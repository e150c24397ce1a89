"""Seconds-long self-test of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For each workload it runs a small slice with the oracles on and requires no
failure; then it makes one expected verdict deliberately wrong and requires
failed_frac > 0, which shows the oracles catch a wrong answer.  It also
runs the krivine slice traced twice and requires every count metric to
repeat exactly, and checks that BENCHMARK.json lists the tracer's
per-layer metrics.  Prints every broken expectation and then exits 1.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

from worker import ROOT, WORK_DIR, Context, run_pass

sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Cheap items only, so the whole test takes seconds.
SLICES = {
    "krivine_sweep": lambda groups: groups[:3],
    "morphism_scan": lambda groups: groups[:40],
    "k2_dialogue": lambda groups: [g for g in groups
                                   if g[0].id.startswith(("k/", "mono/", "tau/1/"))][:80],
    "cli_cold": lambda groups: [g for g in groups if g[0].id.startswith(
        ("check-bco", "check-aks fixtures/aks_broken", "k2 apply"))],
}


@contextmanager
def patched(owner, name, value):
    """Temporarily replace ``owner.name``: the deliberately wrong expectation."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def wrong_golden(real=workloads.load_cli_golden):
    return {k: dict(v, exit=v["exit"] + 1) for k, v in real().items()}


# One deliberately wrong expected verdict per workload.
MUTATIONS = {
    "krivine_sweep": (oracles, "top_element", lambda *args: "no-such-element"),
    "morphism_scan": (oracles, "applicative",
                      lambda *args, real=oracles.applicative: not real(*args)),
    "k2_dialogue": (oracles, "dialogue", lambda *args: -1),
    "cli_cold": (workloads, "load_cli_golden", wrong_golden),
}


def run_slice(name, ctx):
    groups = SLICES[name](workloads.WORKLOADS[name](0, ctx))
    digests = workloads.load_digests().get(name)
    durations, failures = {}, []
    run_pass(groups, ctx, digests, durations, failures)
    return len(durations), failures


def traced_counts(ctx):
    tracer = tracing.Tracer("krivine_sweep")
    groups = SLICES["krivine_sweep"](workloads.krivine_setup(0, ctx))
    tracer.install([workloads])
    ctx.tracer = tracer
    try:
        run_pass(groups, ctx, None, {}, [])
    finally:
        tracer.uninstall()
        ctx.tracer = None
    metrics = tracer.metrics(1.0, 1.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def main():
    ctx = Context(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    problems = []
    for name in workloads.WORKLOADS:
        attempted, failures = run_slice(name, ctx)
        print(f"{name}: {attempted} items, {len(failures)} failed")
        problems += [f"{name} slice: {f}" for f in failures]
        owner, attr, wrong = MUTATIONS[name]
        with patched(owner, attr, wrong):
            attempted, failures = run_slice(name, ctx)
        frac = len(failures) / attempted
        print(f"{name} with a wrong expected verdict: failed_frac {frac:.3f}")
        if frac == 0:
            problems.append(f"{name}: a wrong expected verdict went unnoticed")

    first, second = traced_counts(ctx), traced_counts(ctx)
    print(f"traced krivine slice: {sum(1 for v in first.values() if v)} nonzero counts")
    if first != second:
        problems.append(f"trace counts differ between runs: {first} vs {second}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    if declared != list(tracing.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
