import pytest

from realcheck.report import FAIL, PASS, CheckRecord, Report


def test_fail_without_counterexample_is_rejected():
    with pytest.raises(ValueError):
        CheckRecord("s", "c", FAIL)
    with pytest.raises(ValueError):
        Report("s").add("c", FAIL)
    assert CheckRecord("s", "c", FAIL, counterexample=("x",)).verdict == FAIL


def test_verdict_helpers_decide_presence_with_is_not_none():
    rep = Report("s")
    rep.verdict("none_found")
    rep.verdict("found", ("bad", 0))
    rep.found("empty_name", "g", "", "no g")
    rep.found("zero", "n", 0, "no n")
    rep.found("missing", "g", None, "no g")
    rep.found("dict", None, {"k": "a", "s": "b"}, "no pair")
    got = {r.check: (r.verdict, r.witnesses, r.counterexample) for r in rep.records}
    assert got == {
        "none_found": (PASS, {}, None),
        "found": (FAIL, {}, ("bad", 0)),
        "empty_name": (PASS, {"g": ""}, None),
        "zero": (PASS, {"n": 0}, None),
        "missing": (FAIL, {}, ("no g",)),
        "dict": (PASS, {"k": "a", "s": "b"}, None),
    }
