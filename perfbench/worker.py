"""One workload in one fresh process; started by run.py, not by hand.

Prints ``READY <seconds>`` once realcheck is imported and the inputs are
built, where the figure is the set-up's CPU time at reference speed (see
SpeedGauge).  Then, unless ``--setup-only``, it runs the workload and prints
one JSON line with the per-item durations and verdict failures.  With
``--trace 1`` it runs the same pass untraced and traced, twice each, and
prints the per-layer metrics instead of durations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "_work")
MIN_PASSES = 2  # each item's latency is the fastest of at least two repeats
REFERENCE_S = 0.0022  # reference_work's CPU time at full speed on the baseline host
PROBE_GAP_S = 0.1     # at most one speed probe per this many seconds of items
PROBE_WINDOW_S = 0.5  # a repeat is scaled by the probes this close to it
CHEAP_S = 0.001       # a measured item faster than this is called again at once,
CHEAP_CALLS = 8       # up to this many calls in all per pass
CHILD_RSS = {"cli_cold"}  # workloads whose peak memory is that of their CLI processes


class Context:
    """What an item's run may use: the checkout, the CLI's environment, and
    the tracer while a traced pass is running (None otherwise)."""

    def __init__(self, root):
        self.root = root
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.spans_file = os.path.join(WORK_DIR, "cli-child-spans.json")

    def count_queries(self, fn):
        return fn if self.tracer is None else self.tracer.count_queries(fn)


def cpu_seconds():
    """CPU seconds used so far by this process and by its children that ended.

    Items are timed by CPU time rather than wall time: the work is pure
    Python on one thread, so the two agree except for the time the process
    waits for a CPU, which belongs to other processes on the host.  A CLI
    call's cost is the child's CPU time plus the parent's for starting it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reference_work():
    """A fixed piece of pure-Python work unrelated to realcheck: tuples,
    frozensets, dict updates and set operations, about two milliseconds."""
    table = {}
    for i in range(600):
        key = (i % 17, i % 5, frozenset(range(i % 7, i % 13)))
        table[key] = table.get(key, 0) + len(key[2])
    sets = list({k[2] for k in table})
    acc = sum(len(a & b) + len(a | b) for a in sets for b in sets)
    return acc + sum(table.values())


class SpeedGauge:
    """Scales CPU times to the host's reference speed.

    On a shared host a core runs the same Python code at full speed or up
    to about 1.5 times slower, as neighbours come and go, in phases that last
    from seconds to minutes; CPU time does not remove this.  The gauge runs
    ``reference_work`` between items, at most every PROBE_GAP_S, and scales
    each repeat's CPU time by REFERENCE_S over the fastest probe within
    PROBE_WINDOW_S of it: like a repeat, a probe is only ever slowed down by
    a burst, so the fastest one is the host's speed there, and a repeat is
    never scaled below what the fastest moment near it supports.  The worker
    is pinned to one CPU, so the probes and the CLI processes it starts run
    on the same core.  A change to realcheck's code changes the items and
    not the probes, so it shows in full; the host's phases move both and
    cancel out.
    """

    def __init__(self):
        self.probes = []    # (wall time, CPU seconds of one reference_work)
        self.repeats = []   # (item id, wall start, wall end, CPU seconds)

    def probe(self):
        """Time reference_work once, with the cyclic collector off so that
        the size of realcheck's heap cannot change the probe."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall = perf_counter()
            start = cpu_seconds()
            reference_work()
            took = cpu_seconds() - start
        finally:
            if enabled:
                gc.enable()
        self.probes.append((wall, took))
        return took

    def probe_if_due(self):
        if not self.probes or perf_counter() - self.probes[-1][0] >= PROBE_GAP_S:
            self.probe()

    def scaled(self):
        """item id -> the CPU times of its repeats at reference speed."""
        walls = [wall for wall, _ in self.probes]
        out = {}
        for item_id, start, end, took in self.repeats:
            # Never empty: a probe runs at most PROBE_GAP_S before each item.
            near = self.probes[bisect_left(walls, start - PROBE_WINDOW_S):
                               bisect_right(walls, end + PROBE_WINDOW_S)]
            local = min(t for _, t in near)
            out.setdefault(item_id, []).append(took * REFERENCE_S / local)
        return out


def setup_seconds():
    """This process's CPU time so far at reference speed, from the fastest
    of probes taken right after the set-up (the first one warms up and is
    dropped)."""
    took = cpu_seconds()
    gauge = SpeedGauge()
    probes = [gauge.probe() for _ in range(4)][1:]
    return took * REFERENCE_S / min(probes)


def pin_to_one_cpu():
    """Keep this process and the CLI processes it starts on one CPU, the one
    the speed probes measure."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_call(item, ctx, durations, gauge):
    """Call ``item.run(ctx)`` once; returns (result, error or None, CPU seconds)."""
    wall = perf_counter()
    start = cpu_seconds()
    try:
        result, error = item.run(ctx), None
    except Exception as exc:  # a crash is a failed item, not a dead harness
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    took = cpu_seconds() - start
    if gauge is not None:
        gauge.repeats.append((item.id, wall, perf_counter(), took))
    durations.setdefault(item.id, []).append(took)
    return result, error, took


def run_pass(order, ctx, digests, durations, failures, gauge=None):
    """Run the items of ``order`` (a list of groups); returns the timed seconds.

    Appends each item's CPU time to ``durations[item.id]`` and one line per
    failed item to ``failures``.  With a ``gauge`` (the measured passes), it
    also probes the speed between items and records each repeat in it, and
    an item that took under CHEAP_S is called again at once, up to
    CHEAP_CALLS calls in all: sub-millisecond items need more repeats than
    the passes give to settle.  Only the first call's result is checked.
    A raising item or check counts as failed; nothing escapes to the caller.
    """
    from canon import digest

    timed = 0.0
    for group in order:
        for item in group:
            if gauge is not None:
                gauge.probe_if_due()
            if ctx.tracer is not None:
                ctx.tracer.item = item.id
            result, error, took = time_call(item, ctx, durations, gauge)
            timed += took
            calls = 1
            while gauge is not None and error is None and took < CHEAP_S and calls < CHEAP_CALLS:
                _, error, took = time_call(item, ctx, durations, gauge)
                calls += 1
            if error is not None:
                bad = [error]
            else:
                try:
                    bad = item.check(result)
                    if item.digest is not None and digests is not None:
                        got = digest(item.digest(result))
                        if got != digests.get(item.id):
                            bad = bad + [f"witness digest {got} != golden "
                                         f"{digests.get(item.id)}"]
                except Exception as exc:
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                failures.append(f"{item.id}: {'; '.join(bad)}")
    if gauge is not None:
        gauge.probe()
    return timed


def peak_rss_kb(workload):
    """Peak resident memory of the worker or, for CHILD_RSS, of its largest child."""
    who = resource.RUSAGE_CHILDREN if workload in CHILD_RSS else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from tracer import Tracer

    setup = workloads.WORKLOADS[args.workload]
    tracer = Tracer(args.workload) if args.trace else None
    ctx = Context(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    if tracer:
        tracer.install([workloads])
    groups = setup(args.seed, ctx)
    if tracer:
        tracer.uninstall()
    print(f"READY {setup_seconds()!r}", flush=True)
    if args.setup_only:
        return 0

    digests = workloads.load_digests().get(args.workload)
    rng = random.Random(f"order-{args.seed}")
    failures = []
    if not tracer:
        raw, gauge = {}, SpeedGauge()
        # Whole shuffled passes only, so every item gets the same number of
        # repeats: at least MIN_PASSES, and another one while the passes so
        # far say it ends within --seconds.
        start = perf_counter()
        passes = 0
        while (passes < MIN_PASSES
               or (perf_counter() - start) * (passes + 1) / passes <= args.seconds):
            order = list(groups)
            rng.shuffle(order)
            run_pass(order, ctx, digests, raw, failures, gauge)
            passes += 1
        probes = [took for _, took in gauge.probes]
        result = {"durations": gauge.scaled(), "raw_durations": raw, "passes": passes,
                  "probe_ms": [min(probes) * 1000, statistics.median(probes) * 1000,
                               max(probes) * 1000],
                  "rss_kb": peak_rss_kb(args.workload)}
        attempted = passes * sum(len(group) for group in groups)
    else:
        # Untraced and traced passes alternate, twice, over one order.  The
        # first traced pass is the one reported; the overhead compares each
        # item's fastest untraced and fastest traced repeat.
        order = list(groups)
        rng.shuffle(order)
        plain, traced, traced_pass_s = {}, {}, []
        for recorder in (tracer, Tracer(args.workload)):
            run_pass(order, ctx, digests, plain, failures)
            recorder.install([workloads])
            ctx.tracer = recorder
            try:
                traced_pass_s.append(run_pass(order, ctx, digests, traced, failures))
            finally:
                recorder.uninstall()
                ctx.tracer = None
        tracer.write_spans(os.path.join(WORK_DIR, f"spans-{args.workload}.jsonl"))
        plain_s = sum(min(d) for d in plain.values())
        traced_s = sum(min(d) for d in traced.values())
        attempted = sum(len(d) for d in plain.values()) * 2
        result = {"metrics": tracer.metrics(plain_s, traced_s),
                  "notes": [f"reported traced pass: {traced_pass_s[0]:.4g} s of items",
                            f"fastest repeats: untraced {plain_s:.4g} s, "
                            f"traced {traced_s:.4g} s per pass"]}
    result.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
