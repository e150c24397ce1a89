import argparse
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realcheck import k2 as k2mod
from realcheck.bco import opca_to_bco
from realcheck.cli import build_parser, main
from realcheck.errors import StructureError
from realcheck.formats import aks_to_dict, load_aks, load_bco, load_map, load_opca, save_aks
from realcheck.lattices import L2, chain, semilattice_opca
from realcheck.opca import KIT_LEN_CAP

from conftest import CHILD_ENV, FIXTURES


def opca_to_dict(opca):
    """The JSON input that ``load_opca`` reads back as ``opca``."""
    return {
        "elements": list(opca.elements),
        "leq": sorted([a, b] for (a, b) in opca.leq_pairs if a != b),
        "app": sorted([a, b, c] for (a, b), c in opca.table.items()),
        "k": opca.k,
        "s": opca.s,
        "filter": None if opca.filter is None else sorted(opca.filter),
        "U": None if opca.U is None else sorted(opca.U),
    }


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- loading -------------------------------------------------------------------

def test_opca_round_trip(tmp_path):
    path = write(tmp_path, "l2.json", dict(opca_to_dict(L2), U=["0"]))
    opca, sup = load_opca(path)
    assert opca.elements == L2.elements
    assert opca.table == L2.table
    assert opca.U == frozenset({"0"})
    assert sup is None


def test_leq_closure_computed_on_load(tmp_path):
    payload = {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]],
               "app": [[x, y, "a"] for x in "abc" for y in "abc"],
               "k": "a", "s": "a"}
    opca, _ = load_opca(write(tmp_path, "chain.json", payload))
    assert opca.leq("a", "c") and opca.leq("b", "b")


def test_missing_field_names_file_and_field(tmp_path):
    path = write(tmp_path, "bad.json", {"elements": ["a"]})
    with pytest.raises(StructureError) as exc:
        load_opca(path)
    assert "bad.json" in str(exc.value) and "app" in str(exc.value)


def test_dangling_reference_names_the_field(tmp_path):
    payload = {"elements": ["a"], "leq": [], "app": [["a", "zz", "a"]],
               "k": "a", "s": "a"}
    with pytest.raises(StructureError) as exc:
        load_opca(write(tmp_path, "dangling.json", payload))
    assert "app" in str(exc.value)


def test_json_syntax_error_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"elements": [\n  "a",\n oops\n]}')
    with pytest.raises(StructureError) as exc:
        load_opca(str(path))
    assert "line 3" in str(exc.value)


def test_sup_field_parsed(tmp_path):
    payload = dict(opca_to_dict(L2))
    payload["sup"] = [[[], "0"], [["0"], "0"], [["0", "1"], "1"]]
    _, sup = load_opca(write(tmp_path, "with_sup.json", payload))
    assert sup[frozenset()] == "0" and sup[frozenset({"0", "1"})] == "1"


def test_aks_file_round_trip(tmp_path):
    aks = load_aks(FIXTURES / "aks_mid0.json")
    path = tmp_path / "copy.json"
    save_aks(path, aks)
    again = load_aks(path)
    assert aks_to_dict(again) == aks_to_dict(aks)


def test_map_file_accepts_both_layouts(tmp_path):
    assert load_map(write(tmp_path, "m1.json", {"map": {"a": "b"}})) == {"a": "b"}
    assert load_map(write(tmp_path, "m2.json", {"map": [["a", "b"]]})) == {"a": "b"}


# -- CLI -----------------------------------------------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_opca_pass(capsys):
    code, out, _ = run(capsys, "check-opca", str(FIXTURES / "l2.json"))
    assert code == 0 and "k.law" in out


def test_input_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "check-opca", str(bad))
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "check-opca", str(tmp_path / "missing.json"))
    assert code == 2


def test_failures_exit_one(capsys):
    code, out, _ = run(capsys, "check-aks", str(FIXTURES / "aks_broken.json"))
    assert code == 1 and "fail" in out


def test_build_then_check_round_trip(capsys, tmp_path):
    out_path = tmp_path / "built.json"
    code, _, _ = run(capsys, "build-aks", str(FIXTURES / "l2.json"),
                     "--U", "0", "--out", str(out_path))
    assert code == 0
    code1, out1, _ = run(capsys, "--format", "machine",
                         "check-aks", str(out_path))
    code2, out2, _ = run(capsys, "--format", "machine",
                         "check-aks", str(out_path))
    assert code1 == code2 == 0
    stripped1 = [json.loads(line) for line in out1.strip().splitlines()]
    stripped2 = [json.loads(line) for line in out2.strip().splitlines()]
    assert stripped1 == stripped2  # identical report across runs
    verdicts = {rec["check"]: rec["verdict"] for rec in stripped1}
    assert all(v == "pass" for v in verdicts.values())
    assert {"aks.s1_dot", "aks.s2_K", "aks.s3_S", "aks.s4_cc",
            "aks.s5_kof"} <= set(verdicts)


def test_machine_format_stable_across_runs(capsys):
    _, out1, _ = run(capsys, "--format", "machine",
                     "check-tripos", str(FIXTURES / "l3.json"))
    _, out2, _ = run(capsys, "--format", "machine",
                     "check-tripos", str(FIXTURES / "l3.json"))
    assert out1 == out2


def test_check_localic_triangulation(capsys):
    code, out, _ = run(capsys, "check-localic", str(FIXTURES / "l3.json"))
    assert code == 0 and "localic.triangulation" in out


def test_check_order_ca(capsys):
    code, out, _ = run(capsys, "check-order-ca", str(FIXTURES / "aks_mid1.json"))
    assert code == 0


def test_check_density_identity(capsys):
    code, out, _ = run(capsys, "check-density", str(FIXTURES / "l2.json"),
                       str(FIXTURES / "l2.json"),
                       str(FIXTURES / "l2_identity.map.json"))
    assert code == 0 and "density.agreement" in out


def test_check_bco_command(capsys, tmp_path):
    path = write(tmp_path, "bco.json", {
        "elements": ["0", "1"], "leq": [["0", "1"]],
        "functions": {"id": [["0", "0"], ["1", "1"]]}})
    code, out, _ = run(capsys, "check-bco", path)
    assert code == 0 and "bco.sub_identity" in out


def test_check_bco_on_the_bco_fixtures(capsys):
    # bco_l3 is the BCO view of l3 written out; bco_gap adds a function
    # defined only at the top, so its domain is not downward closed
    view = opca_to_bco(load_opca(FIXTURES / "l3.json")[0])
    loaded = load_bco(FIXTURES / "bco_l3.json")
    assert (loaded.elements, loaded.leq_pairs, loaded.functions) == \
        (view.elements, view.leq_pairs, view.functions)
    code, out, _ = run(capsys, "--format", "machine", "check-bco", str(FIXTURES / "bco_l3.json"))
    assert code == 0
    assert [json.loads(line)["verdict"] for line in out.splitlines()] == ["pass"] * 3
    code, out, _ = run(capsys, "--format", "machine", "check-bco", str(FIXTURES / "bco_gap.json"))
    records = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert code == 1
    assert records["bco.domains_monotone"]["counterexample"] == ["top_only", "1", "0"]
    assert [r["verdict"] for r in records.values()] == ["fail", "pass", "pass"]


def test_check_filter_override(capsys):
    code, _, _ = run(capsys, "check-filter", str(FIXTURES / "l3.json"),
                     "--subset", "1")
    assert code == 0
    code, _, _ = run(capsys, "check-filter", str(FIXTURES / "l3.json"),
                     "--subset", "m")
    assert code == 1  # designated k=s=1 missing from {m}


def test_flags_given_without_names_mean_the_empty_set(capsys):
    # U = {} is a legal downset; the file's U is {0}
    code, out, _ = run(capsys, "--format", "machine",
                       "build-aks", str(FIXTURES / "l2.json"), "--U")
    subjects = {json.loads(line)["subject"] for line in out.splitlines()}
    assert code == 0 and subjects == {f"K({FIXTURES / 'l2.json'},U=[])"}
    code, out, _ = run(capsys, "--format", "machine",
                       "check-filter", str(FIXTURES / "l3.json"), "--subset")
    verdicts = {rec["check"]: rec["verdict"] for rec in map(json.loads, out.splitlines())}
    assert code == 1 and verdicts["filter.has_k"] == "fail"


def test_closed_stdout_exits_one_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "realcheck.cli", "--format", "machine",
             "build-aks", str(FIXTURES / "l2.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_k2_subcommands(capsys):
    code, out, _ = run(capsys, "k2", "apply", "--alpha", "1", "--beta", "n+1",
                       "--n", "7", "--fuel", "1")
    assert code == 0 and "'value': 0" in out
    code, _, _ = run(capsys, "k2", "apply", "--alpha", "0", "--beta", "n",
                     "--n", "0", "--fuel", "5")
    assert code == 1
    code, out, _ = run(capsys, "k2", "discrete", "--elems", "n+1; n*2",
                       "--depth", "3")
    assert code == 0
    code, _, _ = run(capsys, "k2", "tau", "--alpha", "0", "--prefix", "1,2",
                     "--nprime", "1", "--j", "0", "--fuel", "2")
    assert code == 1


@pytest.mark.parametrize("alpha, message", [
    ("\u00b2", "bad character"),
    ("(" * 2000 + "n" + ")" * 2000, "nests deeper than 100"),
])
def test_k2_expressions_that_are_input_errors(capsys, alpha, message):
    code, _, err = run(capsys, "k2", "apply", "--alpha", alpha, "--beta", "n",
                       "--n", "0", "--fuel", "1")
    assert code == 2 and "input error: " in err and message in err
    assert "Traceback" not in err


def test_check_tripos_exit_zero_on_lattice(capsys):
    code, out, _ = run(capsys, "check-tripos", str(FIXTURES / "diamond.json"))
    assert code == 0 and "tripos.star_equals_applicative" in out


@pytest.mark.parametrize("flag, value", [("--index-size", "2"), ("--predicate-cap", "5")])
def test_check_tripos_takes_no_index_size_or_cap(capsys, flag, value):
    # the Booleanization is decided for every index set at once
    with pytest.raises(SystemExit) as exc:
        main(["check-tripos", str(FIXTURES / "l3.json"), flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in err and "Traceback" not in err


def option_surface(parser, path="realcheck"):
    """{command path: its positional names and option strings, in order}
    for ``parser`` and every subcommand under it; --help left out."""
    surface, names = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                surface.update(option_surface(child, f"{path} {name}"))
        elif not isinstance(action, argparse._HelpAction):
            names += action.option_strings or [action.dest]
    surface[path] = names
    return surface


def test_the_option_surface_is_pinned():
    # a knob added or removed shows up here as a reviewed diff
    assert option_surface(build_parser()) == {
        "realcheck": ["--format"],
        "realcheck check-opca": ["file", "--search-ks", "--eval-term"],
        "realcheck check-bco": ["file"],
        "realcheck check-filter": ["file", "--subset"],
        "realcheck build-aks": ["file", "--U", "--max-len", "--out"],
        "realcheck check-aks": ["file"],
        "realcheck check-order-ca": ["file"],
        "realcheck check-tripos": ["file"],
        "realcheck check-localic": ["file", "--max-len"],
        "realcheck check-density": ["src", "dst", "mapfile"],
        "realcheck k2": [],
        "realcheck k2 apply": ["--alpha", "--beta", "--n", "--fuel"],
        "realcheck k2 tau": ["--alpha", "--prefix", "--nprime", "--j", "--fuel"],
        "realcheck k2 discrete": ["--elems", "--depth"],
    }


def test_check_tripos_refuses_booleanization_on_a_broken_table(capsys, tmp_path):
    # with no application the two Booleanization forms disagree; the
    # cross-check assumes an opca, so the disagreement is a refusal
    path = write(tmp_path, "l2.json", variant("l2.json", app=[]))
    code, out, err = run(capsys, "--format", "machine", "check-tripos", path)
    records = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert code == 1 and "Traceback" not in err
    booleanization = records["tripos.booleanization"]
    assert booleanization["verdict"] == "refused"
    assert booleanization["detail"].startswith("Booleanization forms disagree on ")
    assert "contravariant=None double-negation='1'" in booleanization["detail"]


def test_check_tripos_with_k_outside_the_filter_is_an_error(capsys, tmp_path):
    # s·k·k then lies outside the filter, so no implicative kit is recovered
    path = write(tmp_path, "l2.json", variant("l2.json", k="0"))
    code, _, err = run(capsys, "check-tripos", path)
    assert code == 1 and "error: s·k·k = '0' lies outside the filter" in err
    assert "Traceback" not in err


def test_check_tripos_refuses_without_joins(capsys):
    # the vee has no top, so no sup table can be derived from the poset
    code, out, _ = run(capsys, "check-tripos", str(FIXTURES / "vee.json"))
    assert code == 1 and "refused" in out


def test_check_tripos_answers_the_round_trip_on_the_cube(capsys, tmp_path):
    # fact (a) of the sup derivation reads the 8 closed downsets of the
    # Boolean cube, not its about 4.6e9 families and parts
    els = ("000", "001", "010", "100", "011", "101", "110", "111")
    covers = {(a, b) for a in els for b in els
              if sum(map(int, b)) == sum(map(int, a)) + 1
              and all(x <= y for x, y in zip(a, b))}
    cube = semilattice_opca(els, covers, U={"000"}, name="cube")
    path = write(tmp_path, "cube.json", opca_to_dict(cube))
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "machine", "check-tripos", path)
    elapsed = time.perf_counter() - start
    records = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert code == 0, err
    assert records["tripos.roundtrip_sup"]["verdict"] == "pass"
    assert records["tripos.booleanization"]["verdict"] == "pass"
    assert elapsed < 1.0


def test_check_tripos_reports_a_round_trip_that_breaks(capsys, tmp_path):
    # with m·1 = 1 the table breaks the k law, yet the joins pass as a
    # sup-algebra and their implicative kit passes; the sup derived back from
    # that kit breaks clause 4, and the round trip fails with its message
    app = [row if row[:2] != ["m", "1"] else ["m", "1", "1"] for row in variant("l3.json")["app"]]
    path = write(tmp_path, "l3.json", variant("l3.json", app=app))
    code, out, err = run(capsys, "--format", "machine", "check-tripos", path)
    records = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert code == 1, err
    assert records["implicative.inf_witnessed"]["verdict"] == "pass"
    assert records["tripos.roundtrip_sup"]["counterexample"] == \
        ["derived sup breaks sup.principal_h4"]


def test_check_tripos_answers_the_round_trip_on_a_long_chain(capsys, tmp_path):
    # the 17-element chain has 2^17 subsets but 17 closed downsets, one per
    # infimum the implicative kit reads
    path = write(tmp_path, "chain17.json",
                 opca_to_dict(chain(17).replace(U=frozenset({"c0"}))))
    code, out, err = run(capsys, "--format", "machine", "check-tripos", path)
    records = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert code == 0, err
    assert records["tripos.star"]["verdict"] == "pass"
    assert records["tripos.roundtrip_sup"]["verdict"] == "pass"
    assert records["tripos.booleanization"]["verdict"] == "pass"


def test_eval_term_flag(capsys):
    code, out, _ = run(capsys, "check-opca", str(FIXTURES / "l3.json"),
                       "--eval-term", "S K K m")
    assert code == 0 and "'value': 'm'" in out
    code, _, err = run(capsys, "check-opca", str(FIXTURES / "l3.json"),
                       "--eval-term", r"\x. y (")
    assert code == 2


def test_eval_term_refuses_a_bad_constant_after_an_undefined_step(capsys, tmp_path):
    # 0·0 is undefined, yet zz is refused: every leaf is checked before the term runs
    path = write(tmp_path, "partial.json", {"elements": ["0", "1"], "leq": [],
                                            "app": [["1", "1", "1"], ["1", "0", "0"],
                                                    ["0", "1", "0"]],
                                            "k": "1", "s": "1"})
    for term in ("0 0 zz", "zz (0 0)"):
        code, out, err = run(capsys, "check-opca", path, "--eval-term", term)
        assert (code, out) == (2, "")
        assert err == "input error: --eval-term: constant 'zz' outside the carrier\n"
    code, out, _ = run(capsys, "check-opca", path, "--eval-term", "0 0 1")
    assert code == 1 and "counterexample=['undefined']" in out


def binders_over_chain(n):
    """\\x0 ... x(n-1). x0 ... x(n-1); bracket abstraction makes 24,561
    distinct subterms of it at n = 40, and from n = 58 on a body it abstracts
    has more than BRACKET_NODE_CAP."""
    names = " ".join(f"x{i}" for i in range(n))
    return f"\\{names}. {names}"


PAST_THE_PARSER_LIMIT = "input error: --eval-term: term nests deeper than 100"


@pytest.mark.parametrize("term, code, message", [
    ("(" * 3000 + "K" + ")" * 3000, 2, PAST_THE_PARSER_LIMIT),
    (" ".join(["K"] * 5000), 2, PAST_THE_PARSER_LIMIT),
    ("".join(f"\\x{i}. " for i in range(1500)) + "K", 2, PAST_THE_PARSER_LIMIT),
    # 61 levels as written; once x59 ... x3 are abstracted, the body has 68,276
    # distinct subterms, and abstracting x2 is refused
    (binders_over_chain(60), 1,
     "error: subterms of the body to abstract: 68276 items exceeds cap 65536"),
], ids=["parentheses", "application-chain", "binders", "binders-over-chain"])
def test_eval_term_nested_too_deep_is_an_input_error(capsys, term, code, message):
    got, out, err = run(capsys, "check-opca", str(FIXTURES / "l2.json"), "--eval-term", term)
    assert (got, out) == (code, "")
    assert err == f"{message}\n"


def test_eval_term_inside_the_node_cap_evaluates(capsys):
    code, out, err = run(capsys, "--format", "machine", "check-opca", str(FIXTURES / "l2.json"),
                         "--eval-term", binders_over_chain(40))
    value = [json.loads(line) for line in out.splitlines()][-1]
    assert (code, err) == (0, "")
    assert value["check"] == "term.value" and value["verdict"] == "pass"


def test_build_aks_out_that_cannot_be_written_is_an_input_error(capsys, tmp_path):
    for path, error in ((tmp_path / "missing" / "x.json", "FileNotFoundError"),
                        (tmp_path, "IsADirectoryError")):
        code, out, err = run(capsys, "build-aks", str(FIXTURES / "l2.json"), "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: cannot write the file ({error})\n"


def test_check_bco_accepts_identity_named_empty_string(capsys, tmp_path):
    path = write(tmp_path, "bco.json", {"elements": ["x"], "leq": [],
                                        "functions": {"": [["x", "x"]]}})
    code, out, _ = run(capsys, "--format", "machine", "check-bco", path)
    records = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert code == 0
    assert records["bco.sub_identity"]["witnesses"] == {"i": ""}


def test_check_tripos_on_a_preorder(capsys, tmp_path):
    # a and b are below each other and c below both; application is meet
    rank = {"a": 1, "b": 1, "c": 0}
    app = [[x, y, "c" if min(rank[x], rank[y]) == 0 else x] for x in rank for y in rank]
    path = write(tmp_path, "cycle.json", {
        "elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "a"], ["c", "a"]],
        "app": app, "k": "a", "s": "a", "filter": ["a", "b"], "U": ["c"]})
    code, out, err = run(capsys, "--format", "machine", "check-tripos", path)
    assert code != 2, err
    checks = {json.loads(line)["check"] for line in out.splitlines()}
    assert {"tripos.sup_applicative", "tripos.booleanization"} <= checks


@pytest.mark.parametrize("argv", [
    ("build-aks", "l3.json", "--max-len", "-1"),
    ("check-localic", "l3.json", "--max-len", "-2"),
])
def test_negative_counts_are_usage_errors(capsys, argv):
    command, fixture, flag, value = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(FIXTURES / fixture), flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: must not be negative, got {value}" in err
    assert "Traceback" not in err


def test_non_integer_count_keeps_the_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-aks", str(FIXTURES / "l3.json"), "--max-len", "x"])
    assert exc.value.code == 2
    assert "argument --max-len: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-aks", "check-localic"])
def test_max_len_past_the_kit_cap_is_refused(capsys, command):
    # building the unrolled kit terms costs about max_len squared subterm visits
    code, out, err = run(capsys, command, str(FIXTURES / "l2.json"), "--max-len", "100")
    assert code == 1 and out == ""
    assert f"sequence kit max_len: 100 items exceeds cap {KIT_LEN_CAP}" in err
    assert "Traceback" not in err


def test_max_len_at_the_kit_cap_builds(capsys):
    code, out, err = run(capsys, "--format", "machine", "build-aks", str(FIXTURES / "l2.json"),
                         "--max-len", str(KIT_LEN_CAP))
    assert code == 0, err
    assert all(json.loads(line)["verdict"] == "pass" for line in out.splitlines())


def test_check_tripos_searches_the_uniform_bound_once(capsys, monkeypatch):
    # one unpinned search for tripos.star, one pinned re-check of the found
    # witness in sup_from_implication; implication_from_sup reuses the first
    from realcheck import bco

    calls = []
    original = bco.check_star

    def counting(alg, v=None, **kw):
        calls.append(v)
        return original(alg, v=v, **kw)

    monkeypatch.setattr(bco, "check_star", counting)
    code, out, _ = run(capsys, "--format", "machine", "check-tripos",
                       str(FIXTURES / "l3.json"))
    assert code == 0 and "tripos.roundtrip_sup" in out
    assert len(calls) == 2 and calls[0] is None and calls[1] is not None


# -- malformed inputs ----------------------------------------------------------------

L2_PATH = str(FIXTURES / "l2.json")


def variant(fixture, **changes):
    data = json.loads((FIXTURES / fixture).read_text())
    data.update(changes)
    return data


def appended(fixture, field, *rows):
    data = json.loads((FIXTURES / fixture).read_text())
    return variant(fixture, **{field: data[field] + list(rows)})


AKS_TERM = variant("aks_mid0.json")["terms"][0]
L3_JOIN_SUP = [[[], "0"], [["0"], "0"], [["0", "m"], "m"], [["0", "m", "1"], "1"]]
BCO = {"elements": ["a"], "leq": [], "functions": {"f": [["a", "a"]]}}
L2_WITHOUT_FILTER = {k: v for k, v in variant("l2.json").items() if k != "filter"}

# (argv with "FILE" standing for the written payload, payload, field named)
MALFORMED = {
    "elements-as-string": (["check-opca", "FILE"], variant("l2.json", elements="ab"),
                           "elements"),
    "element-list-name": (["check-opca", "FILE"],
                          variant("l2.json", elements=["0", "1", ["x"]]), "elements"),
    "element-int-name": (["check-opca", "FILE"], variant("l2.json", elements=[1, "1"]),
                         "elements"),
    "k-as-list": (["check-opca", "FILE"], variant("l2.json", k=["1"]), "k"),
    "sup-int-downset": (["check-opca", "FILE"], variant("l2.json", sup=[[5, "1"]]), "sup"),
    "sup-int-downset-tripos": (["check-tripos", "FILE"], variant("l2.json", sup=[[5, "1"]]),
                               "sup"),
    "sup-string-downset": (["check-opca", "FILE"], variant("l2.json", sup=[["1", "1"]]),
                           "sup"),
    "sup-unknown-element": (["check-opca", "FILE"], variant("l2.json", sup=[[["zz"], "1"]]),
                            "sup"),
    "sup-row-not-a-downset": (["check-opca", "FILE"],
                              variant("l3.json", sup=L3_JOIN_SUP + [[["1"], "0"]]), "sup"),
    "sup-row-not-a-downset-localic": (["check-localic", "FILE"],
                                      variant("l3.json", sup=L3_JOIN_SUP + [[["1"], "0"]]),
                                      "sup"),
    "sup-downset-twice": (["check-tripos", "FILE"],
                          variant("l2.json", sup=[[["0", "1"], "1"], [["1", "0"], "0"]]),
                          "sup"),
    "sup-row-names-an-element-twice": (
        ["check-tripos", "FILE"],
        variant("l3.json", sup=L3_JOIN_SUP[:2] + [[["0", "m", "m"], "m"], L3_JOIN_SUP[3]]),
        "sup"),
    "pole-list-stack": (["check-aks", "FILE"],
                        variant("aks_mid0.json", pole=[[AKS_TERM, ["p0"]]]), "pole"),
    "bco-list-value": (["check-bco", "FILE"],
                       dict(BCO, functions={"f": [["a", ["a"]]]}), "functions"),
    "bco-key-twice": (["check-bco", "FILE"],
                      dict(BCO, functions={"f": [["a", "a"], ["a", "a"]]}), "functions.f"),
    "map-list-value": (["check-density", L2_PATH, L2_PATH, "FILE"], {"map": {"0": ["1"]}},
                       "map"),
    "map-key-twice": (["check-density", L2_PATH, L2_PATH, "FILE"],
                      {"map": [["0", "0"], ["1", "1"], ["0", "1"]]}, "map"),
    "app-key-twice": (["check-opca", "FILE"],
                      appended("l2.json", "app", ["1", "1", "0"]), "app"),
    "top-level-string": (["check-opca", "FILE"], "elements", None),
    "top-level-number": (["check-opca", "FILE"], 5, None),
    "leq-as-string": (["check-opca", "FILE"], variant("l2.json", leq="01"), "leq"),
    "app-as-string": (["check-opca", "FILE"], variant("l2.json", app="001"), "app"),
    "aks-dot-outside-carrier": (["check-aks", "FILE"],
                                appended("aks_mid0.json", "dot", ["zz", AKS_TERM, AKS_TERM]),
                                "dot"),
    "aks-kof-outside-carrier": (["check-aks", "FILE"],
                                appended("aks_mid0.json", "kOf", ["nowhere", AKS_TERM]),
                                "kOf"),
    "aks-term-twice": (["check-aks", "FILE"], appended("aks_mid0.json", "terms", AKS_TERM),
                       "terms"),
    "build-aks-U-outside-carrier": (["build-aks", str(FIXTURES / "l3.json"), "--U", "zz"],
                                    None, "U"),
    "aks-terms-empty": (["check-aks", "FILE"], variant("aks_mid0.json", terms=[]), None),
    "aks-pole-outside-carrier": (["check-aks", "FILE"],
                                 appended("aks_mid0.json", "pole", ["zz", "p0"]), "pole"),
    "aks-qp-outside-carrier": (["check-aks", "FILE"], appended("aks_mid0.json", "QP", "zz"),
                               "QP"),
    "aks-K-outside-carrier": (["check-aks", "FILE"], variant("aks_mid0.json", K="zz"), "K"),
    "aks-dot-not-total": (["check-aks", "FILE"],
                          variant("aks_mid0.json", dot=variant("aks_mid0.json")["dot"][1:]),
                          "dot"),
    "opca-elements-empty": (["check-opca", "FILE"],
                            {"elements": [], "leq": [], "app": [], "k": "1", "s": "1"}, None),
    "opca-k-outside-carrier": (["check-opca", "FILE"], variant("l2.json", k="zz"), "k"),
    "bco-function-escapes-carrier": (["check-bco", "FILE"],
                                     dict(BCO, functions={"f": [["a", "zz"]]}), "functions"),
    "check-filter-without-filter": (["check-filter", "FILE"], L2_WITHOUT_FILTER, None),
    "check-tripos-without-filter": (["check-tripos", "FILE"], L2_WITHOUT_FILTER, None),
}

# the refusal each of these cases reaches, where the field does not tell it
MALFORMED_MESSAGES = {
    "build-aks-U-outside-carrier": "subset escapes carrier",
    "aks-terms-empty": "aks needs nonempty terms and stacks",
    "aks-pole-outside-carrier": "pole entry outside carrier",
    "aks-qp-outside-carrier": "QP escapes terms",
    "aks-K-outside-carrier": "distinguished term outside carrier",
    "aks-dot-not-total": "dot not total at ('t0', 't0')",
    "opca-elements-empty": "empty carrier",
    "opca-k-outside-carrier": "designated k='zz' outside carrier",
    "bco-function-escapes-carrier": "function 'f' escapes carrier",
    "check-filter-without-filter": "no filter in file and none given",
    "check-tripos-without-filter": "check-tripos needs a filtered opca",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_naming_file_and_field(capsys, tmp_path, case):
    argv, payload, field = MALFORMED[case]
    path = argv[1] if payload is None else write(tmp_path, "input.json", payload)
    code, out, err = run(capsys, *(path if a == "FILE" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path}: "), err
    if field is not None:
        assert f"field {field!r}" in err, err
    assert MALFORMED_MESSAGES.get(case, "") in err, err


def test_sup_row_that_is_not_a_downset_is_an_input_error(capsys, tmp_path):
    joins = write(tmp_path, "joins.json", variant("l3.json", sup=L3_JOIN_SUP))
    assert run(capsys, "check-tripos", joins)[0] == 0
    path = write(tmp_path, "l3.json", variant("l3.json", sup=L3_JOIN_SUP + [[["1"], "0"]]))
    code, out, err = run(capsys, "check-tripos", path)
    assert (code, out) == (2, "")
    assert "field 'sup': sup row ['1'] is not a downset" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["check-opca", "check-tripos", "check-localic"])
def test_U_that_is_not_a_downset_is_an_input_error(capsys, tmp_path, command):
    path = write(tmp_path, "l3.json", variant("l3.json", U=["m"]))
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: field 'U': U is not downward closed\n"


@pytest.mark.parametrize("mapping, message", [
    ({"0": "0", "1": "1", "zz": "1"}, "field 'map': map key 'zz' outside the source carrier"),
    ({"0": "0"}, "field 'map': map not total / escapes target at '1'"),
], ids=["stray-key", "missing-key"])
def test_check_density_map_keys_must_be_the_source_carrier(capsys, tmp_path, mapping,
                                                           message):
    path = write(tmp_path, "map.json", {"map": mapping})
    code, out, err = run(capsys, "check-density", L2_PATH, L2_PATH, path)
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command, fixture, field", [
    ("check-aks", "aks_mid0.json", "QP"), ("check-aks", "aks_mid0.json", "pole"),
    ("check-opca", "l3.json", "filter"), ("check-opca", "l3.json", "leq"),
    ("check-opca", "l3.json", "U"), ("check-bco", "bco_l3.json", "leq"),
])
def test_an_entry_given_twice_in_a_set_valued_field_is_an_input_error(capsys, tmp_path,
                                                                      command, fixture, field):
    first = json.loads((FIXTURES / fixture).read_text())[field][0]
    path = write(tmp_path, fixture, appended(fixture, field, first))
    code, out, err = run(capsys, command, path)
    shown = repr(first if isinstance(first, str) else tuple(first))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: field {field!r}: entry {shown} given twice\n"


def test_duplicate_json_object_key_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text('{"map": {"0": "0", "1": "1", "0": "1"}}')
    code, _, err = run(capsys, "check-density", L2_PATH, L2_PATH, str(path))
    assert code == 2 and "key '0' given twice" in err


def test_unreadable_files_are_input_errors(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"elements": ' + "[" * 100000 + "]" * 100000 + "}")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"elements": ["\xe9"]}')
    for path in (deep, latin, tmp_path):
        code, _, err = run(capsys, "check-opca", str(path))
        assert code == 2 and err.startswith(f"input error: {path}: cannot read the file")


def test_optional_null_fields_read_as_absent(tmp_path):
    payload = variant("l2.json", leq=None, filter=None, U=None, sup=None)
    opca, sup = load_opca(write(tmp_path, "nulls.json", payload))
    assert opca.filter is None and opca.U is None and sup is None
    assert opca.leq_pairs == {("0", "0"), ("1", "1")}


@pytest.mark.parametrize("argv, flag", [
    (["k2", "tau", "--alpha", "0", "--prefix", "a,b", "--nprime", "1", "--j", "0",
      "--fuel", "2"], "--prefix"),
    (["k2", "tau", "--alpha", "0", "--prefix", "1,-2", "--nprime", "1", "--j", "0",
      "--fuel", "1"], "--prefix"),
    (["k2", "apply", "--alpha", "1", "--beta", "n", "--n", "-1", "--fuel", "3"], "--n"),
    (["k2", "apply", "--alpha", "1", "--beta", "n", "--n", "0", "--fuel", "-1"], "--fuel"),
    (["k2", "tau", "--alpha", "0", "--prefix", "1", "--nprime", "-1", "--j", "0",
      "--fuel", "1"], "--nprime"),
    (["k2", "tau", "--alpha", "0", "--prefix", "1", "--nprime", "0", "--j", "-3",
      "--fuel", "1"], "--j"),
    (["k2", "discrete", "--elems", "n", "--depth", "-1"], "--depth"),
])
def test_k2_and_cap_integers_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: " in err and "Traceback" not in err


def test_k2_tau_refuses_past_the_phase_two_cap(capsys, monkeypatch):
    # the default fuel 8 asks for 48,427,560 alpha calls
    monkeypatch.setattr(k2mod, "_TAU_CAP", 1000)
    code, out, _ = run(capsys, "--format", "machine", "k2", "tau", "--alpha", "0",
                       "--prefix", "1,2", "--nprime", "1", "--j", "0")
    assert code == 1
    assert json.loads(out) == {
        "check": "k2.tau", "counterexample": None, "subject": "k2", "verdict": "refused",
        "detail": "tau_extract phase 2 alpha calls at fuel 8: 48427560 items exceeds cap 1000",
        "witnesses": {}}


def test_k2_tau_takes_an_empty_prefix(capsys):
    code, _, err = run(capsys, "k2", "tau", "--alpha", "0", "--prefix", "", "--nprime", "0",
                       "--j", "0", "--fuel", "1")
    assert code == 2 and "prefix length 0 != nprime+1 = 1" in err


# -- fuzzing: any document or argv ends in exit 0, 1 or 2 --------------------------

NAMES = ["0", "1", "m", "t0", "t1", "p0", "zz", ""]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(NAMES),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(NAMES), inner, max_size=3)),
    max_leaves=10)

FUZZED_FILES = [
    ([command, "FILE"], variant(f"{name}.json"), ["sup"])
    for command in ("check-opca", "check-tripos")
    for name in ("l2", "l3", "m3", "diamond", "vee")
] + [
    (["check-aks", "FILE"], variant(f"{name}.json"), [])
    for name in ("aks_broken", "aks_mid0", "aks_mid1", "aks_point_empty", "aks_point_full")
] + [
    (["check-density", L2_PATH, L2_PATH, "FILE"], variant("l2_identity.map.json"), []),
    (["check-bco", "FILE"], BCO, []),
]


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse usage errors
        return e.code


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(FUZZED_FILES), data=st.data())
def test_fuzzed_structure_files_exit_zero_one_or_two(capsys, tmp_path, case, data):
    argv, payload, extra = case
    field = data.draw(st.sampled_from(sorted(payload) + extra))
    payload = dict(payload)
    if data.draw(st.booleans()):
        payload[field] = data.draw(json_values)
    else:
        payload.pop(field, None)
    path = write(tmp_path, "fuzzed.json", payload)
    assert exit_code([path if a == "FILE" else a for a in argv]) in (0, 1, 2)
    capsys.readouterr()


K2_VALUES = ["0", "1", "2", "-1", "x", "", "1,2", "0,,3", "n", "n+1", "eq(n,1)", "(", "n*2",
             "\u00b2", "1\u0663", "(" * 500 + "n" + ")" * 500, "n+" * 500 + "1"]
K2_FLAGS = {"apply": ("--alpha", "--beta", "--n"),
            "tau": ("--alpha", "--prefix", "--nprime", "--j"),
            "discrete": ("--elems", "--depth")}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sub=st.sampled_from(sorted(K2_FLAGS)), data=st.data())
def test_fuzzed_k2_argv_exits_zero_one_or_two(capsys, monkeypatch, sub, data):
    monkeypatch.setattr(k2mod, "_TAU_CAP", 64)  # so tau's default fuel refuses quickly
    argv = ["k2", sub]
    for flag in K2_FLAGS[sub]:
        if data.draw(st.integers(0, 9)):  # mostly present
            argv += [flag, data.draw(st.sampled_from(K2_VALUES))]
    # apply's default fuel is far too large for a test; tau's reaches the cap
    if sub == "apply" or sub == "tau" and data.draw(st.booleans()):
        argv += ["--fuel", data.draw(st.sampled_from(["0", "1", "2", "-1", "x"]))]
    assert exit_code(argv) in (0, 1, 2)
    capsys.readouterr()
