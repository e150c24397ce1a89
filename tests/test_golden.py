"""The benchmark's recorded CLI output and witness digests as byte-identity
oracles, and its self-test."""

import json
import subprocess
import sys

from realcheck.cli import main

from conftest import FIXTURES

ROOT = FIXTURES.parent
PERFBENCH = ROOT / "perfbench"


def perfbench_modules():
    """The benchmark's ``workloads`` and ``canon`` modules, imported as they are."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import canon
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, canon


def cli_groups():
    workloads, _ = perfbench_modules()
    return workloads.cli_groups(), workloads.cli_id


def test_cli_replays_golden_machine_output(capsys, tmp_path, monkeypatch):
    # Relative paths in the golden output resolve inside tmp_path, so the
    # build-aks calls write there and not under the repository's perfbench/.
    (tmp_path / "fixtures").symlink_to(FIXTURES)
    (tmp_path / "perfbench" / "_work").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    golden = json.loads((PERFBENCH / "golden" / "cli_cold.json").read_text(encoding="utf-8"))
    groups, cli_id = cli_groups()
    mismatches, calls = [], 0
    for group in groups:
        for argv in group:
            code = main(["--format", "machine", *argv])
            out = capsys.readouterr().out
            want = golden[cli_id(argv)]
            calls += 1
            if (code, out) != (want["exit"], want["stdout"]):
                mismatches.append(cli_id(argv))
    assert calls == len(golden) == 49
    assert mismatches == []


def test_krivine_sweep_matches_the_oracles_and_golden_digests():
    # every item of the benchmark's krivine_sweep, in-process and in setup order
    workloads, canon = perfbench_modules()
    golden = workloads.load_digests()["krivine_sweep"]
    items = [item for group in workloads.krivine_setup(0, None) for item in group]
    problems = {}
    for item in items:
        result = item.run(None)
        bad = item.check(result)
        got = canon.digest(item.digest(result))
        if got != golden[item.id]:
            bad.append(f"witness digest {got} != golden {golden[item.id]}")
        if bad:
            problems[item.id] = bad
    assert len(items) == len(golden) == 48
    assert problems == {}


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
