"""Rewrite the golden files from the code as it stands.

Usage (from the root of a checkout): python3 perfbench/capture.py

golden/cli_cold.json holds the exact ``--format machine`` stdout and exit
code of every cli_cold invocation; golden/digests.json holds a witness
digest per item of krivine_sweep and morphism_scan.  Run it only when a
change is meant to alter output, and review the diff by hand: the files are
the byte-identical regression oracle.  Items whose known-answer checks fail
are reported and still captured.
"""

from __future__ import annotations

import json
import os
import sys

from worker import ROOT, WORK_DIR, Context

sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from canon import digest  # noqa: E402


def write(name, data):
    with open(os.path.join(workloads.GOLDEN_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ctx = Context(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    digests = {}
    for name in ("krivine_sweep", "morphism_scan"):
        digests[name] = {}
        for group in workloads.WORKLOADS[name](0, ctx):
            for item in group:
                result = item.run(ctx)
                for problem in item.check(result):
                    print(f"{name} {item.id}: {problem}", file=sys.stderr)
                digests[name][item.id] = digest(item.digest(result))
    write("digests.json", digests)

    golden = {}
    for group in workloads.cli_groups():
        for argv in group:
            code, stdout = workloads.run_cli(ctx, argv, None)
            golden[workloads.cli_id(argv)] = {"argv": argv, "exit": code, "stdout": stdout}
    write("cli_cold.json", golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
