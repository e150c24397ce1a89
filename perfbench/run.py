"""realcheck benchmark: time to a verdict on four seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is krivine_sweep, morphism_scan, k2_dialogue or cli_cold.  Each
workload runs in a fresh worker process (perfbench/worker.py).  With
``--trace 0`` the last line of output is a JSON object whose metrics are the
end-to-end ones: setup_s, items_per_s, item_p50_ms, item_tail_ms and
peak_rss_mb.  Times are CPU times scaled to the host's reference speed
(worker.SpeedGauge).  The lines before it print the same figures together
with failed_frac, the tail percentile and its sample count, the unscaled
figures and the speed probes.  With ``--trace 1`` the metrics are the
per-layer figures of perfbench/tracer.py.

Every item's verdict is checked against known answers; ``correct`` is true
when no item failed.  Exits 2 when the checkout lacks realcheck's sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("krivine_sweep", "morphism_scan", "k2_dialogue", "cli_cold")
REQUIRED = ("src/realcheck/__init__.py", "src/realcheck/cli.py", "fixtures/l2.json",
            "perfbench/golden/cli_cold.json", "perfbench/golden/digests.json")
SETUP_SPAWNS = 4    # set-up-only workers timed before and again after the measured one
RUN_LIMIT_S = 170   # a run that is not done by then is killed
TAIL_LADDER = (75, 80, 85, 90, 95, 98, 99, 99.5, 99.9)


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, deadline):
    """Start a worker and wait for READY; returns (process, watchdog, set-up seconds).

    The set-up seconds are the worker's CPU time up to READY, at reference
    speed (worker.SpeedGauge): interpreter start, imports and inputs.
    """
    # Its own session, so the watchdog also stops the CLI processes it started.
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    watchdog = threading.Timer(max(deadline - perf_counter(), 1.0), kill_group, (proc,))
    watchdog.start()
    word, _, value = proc.stdout.readline().partition(" ")
    if word != "READY":
        finish_worker(proc, watchdog)
        raise WorkerFailed(f"worker did not get ready (exit {proc.returncode})")
    return proc, watchdog, float(value)


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finish_worker(proc, watchdog):
    out = proc.stdout.read()
    proc.wait()
    watchdog.cancel()
    return out


def tail_rank(count):
    """(percentile, item count, items beyond it) of the item_tail_ms percentile:
    the highest of TAIL_LADDER with at least ten items beyond it."""
    pct = max(p for p in TAIL_LADDER if count - math.ceil(p / 100 * count) >= 10)
    return pct, count, count - math.ceil(pct / 100 * count)


def latency_figures(durations):
    """items_per_s, item_p50_ms and item_tail_ms from item id -> repeat times.

    Each item's latency is the fastest of its repeats (worker.run_pass);
    throughput is computed from the same minima.
    """
    latencies = sorted(min(d) for d in durations.values())
    _, count, beyond = tail_rank(len(latencies))
    return {"items_per_s": (count / sum(latencies), "1/s"),
            "item_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "item_tail_ms": (latencies[count - beyond - 1] * 1000, "ms")}


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (metrics dict, attempted, failed, notes)."""
    deadline = perf_counter() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]

    def setup_only():
        proc, watchdog, took = start_worker(base + ["--setup-only"], deadline)
        finish_worker(proc, watchdog)
        if proc.returncode != 0:
            raise WorkerFailed(f"set-up run exited {proc.returncode}")
        return took

    # Set-up is timed on both sides of the measurement: the host's speed
    # changes within seconds, and the median should not hang on one moment.
    spawns = 0 if trace else SETUP_SPAWNS
    setups = [setup_only() for _ in range(spawns)]
    proc, watchdog, took = start_worker(base + ["--trace", str(int(trace))], deadline)
    setups.append(took)
    out = finish_worker(proc, watchdog)
    setups += [setup_only() for _ in range(spawns)]
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    for failure in result["failures"]:
        print(f"FAILED {name} {failure}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        return result["metrics"], attempted, failed, result["notes"]

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **latency_figures(result["durations"]),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
    }
    unscaled = latency_figures(result["raw_durations"])
    tail_pct, count, beyond = tail_rank(len(result["durations"]))
    notes = [f"item_tail_ms is p{tail_pct:g} of {count} items, {beyond} beyond it; "
             f"{result['passes']} whole passes",
             "unscaled CPU time: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in unscaled.items()),
             "speed probe min/median/max (ms): "
             + " ".join(f"{v:.4g}" for v in result["probe_ms"]),
             "set-up runs (s): " + " ".join(f"{s:.4f}" for s in setups),
             f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})"]
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            attempted, failed, notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description="realcheck benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not a realcheck checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            metrics, attempted, failed, notes = run_workload(
                name, args.seed, args.seconds, args.trace)
        except (WorkerFailed, ValueError, KeyError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, entry in metrics.items():
            print(f"  {metric:<40} {entry['value']:.6g} {entry['unit']}")
        for note in notes:
            print(f"  {note}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
