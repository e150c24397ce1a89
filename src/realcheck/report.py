"""Check reports: one record per verified clause, renderable as text or NDJSON."""

from __future__ import annotations

import json

from .record import Record, Value

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"

_FRESH = object()  # default argument: a new empty dict or list per instance


def _show(value):
    """Render a witness/counterexample component deterministically."""
    if isinstance(value, frozenset) or isinstance(value, set):
        return sorted((_show(v) for v in value), key=str)
    if isinstance(value, (tuple, list)):
        return [_show(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _show(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class CheckRecord(Record):
    _fields = ("subject", "check", "verdict", "witnesses", "counterexample", "detail")
    __eq__ = Value.__eq__

    def __init__(self, subject, check, verdict, witnesses=_FRESH, counterexample=None,
                 detail=""):
        self.subject = subject
        self.check = check
        self.verdict = verdict
        self.witnesses = {} if witnesses is _FRESH else witnesses
        self.counterexample = counterexample
        self.detail = detail
        if verdict not in (PASS, FAIL, REFUSED):
            raise ValueError(f"bad verdict {verdict!r}")
        if verdict == FAIL and counterexample is None:
            raise ValueError(f"{check}: a fail needs a counterexample")

    @property
    def passed(self):
        return self.verdict == PASS

    def as_dict(self):
        rec = {"subject": self.subject, "check": self.check, "verdict": self.verdict,
               "witnesses": _show(self.witnesses),
               "counterexample": _show(self.counterexample)}
        if self.detail:
            rec["detail"] = self.detail
        return rec


class Report(Record):
    _fields = ("subject", "records", "elapsed_ms")
    __eq__ = Value.__eq__

    def __init__(self, subject, records=_FRESH, elapsed_ms=0.0):
        self.subject = subject
        self.records = [] if records is _FRESH else records
        self.elapsed_ms = elapsed_ms

    def add(self, check, verdict, witnesses=None, counterexample=None, detail=""):
        self.records.append(
            CheckRecord(self.subject, check, verdict,
                        witnesses or {}, counterexample, detail)
        )
        return self

    def verdict(self, check, counterexample=None, witnesses=None, detail=""):
        """Record the outcome of a counterexample search: pass with
        ``witnesses`` when ``counterexample`` is None, else fail with it."""
        if counterexample is None:
            return self.add(check, PASS, witnesses=witnesses, detail=detail)
        return self.add(check, FAIL, counterexample=counterexample, detail=detail)

    def found(self, check, name, value, missing, detail=""):
        """Record the outcome of a witness search: pass with {name: value}
        (or the dict ``value`` itself when ``name`` is None) when ``value``
        is not None, else fail with the counterexample (missing,)."""
        if value is None:
            return self.verdict(check, (missing,), detail=detail)
        return self.verdict(check, witnesses=value if name is None else {name: value},
                            detail=detail)

    def per_key(self, check, name, found):
        """Record a ``poset.witness_per_key`` search: pass with {name: found}
        (or ``found`` itself when ``name`` is None) when every key has a
        witness, else fail with (key,) for the key without one."""
        missing = next(((key,) for key, w in found.items() if w is None), None)
        return self.verdict(check, missing, found if name is None else {name: found})

    def extend(self, other):
        self.records.extend(other.records)
        return self

    def record(self, check):
        for rec in self.records:
            if rec.check == check:
                return rec
        raise KeyError(check)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    @property
    def failures(self):
        return [r for r in self.records if r.verdict == FAIL]

    def render_text(self):
        lines = []
        for r in self.records:
            line = f"[{r.verdict:>7}] {r.subject} :: {r.check}"
            if r.witnesses:
                line += f"  witnesses={_show(r.witnesses)}"
            if r.counterexample is not None:
                line += f"  counterexample={_show(r.counterexample)}"
            if r.detail:
                line += f"  ({r.detail})"
            lines.append(line)
        return "\n".join(lines)

    def render_machine(self):
        # No timing in machine records: the stream must be byte-stable across
        # runs (witness selection is deterministic, wall time is not).
        return "\n".join(json.dumps(r.as_dict(), sort_keys=True) for r in self.records)
