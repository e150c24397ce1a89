"""The benchmark's recorded CLI output as a byte-identity oracle, and its self-test."""

import json
import subprocess
import sys

from realcheck.cli import main

from conftest import FIXTURES

ROOT = FIXTURES.parent
PERFBENCH = ROOT / "perfbench"


def cli_groups():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
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


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
