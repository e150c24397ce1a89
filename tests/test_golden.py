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


def replay(items, golden, canon):
    """{item id: problems} of the benchmark items that fail their oracles or
    whose witness digest differs from the golden one, run in-process in order."""
    problems = {}
    for item in items:
        result = item.run(None)
        bad = item.check(result)
        got = canon.digest(item.digest(result))
        if got != golden[item.id]:
            bad.append(f"witness digest {got} != golden {golden[item.id]}")
        if bad:
            problems[item.id] = bad
    return problems


def test_krivine_sweep_matches_the_oracles_and_golden_digests():
    # every item of the benchmark's krivine_sweep, in-process and in setup order
    workloads, canon = perfbench_modules()
    golden = workloads.load_digests()["krivine_sweep"]
    items = [item for group in workloads.krivine_setup(0, None) for item in group]
    assert len(items) == len(golden) == 48
    assert replay(items, golden, canon) == {}


def test_morphism_scan_matches_the_oracles_and_golden_digests():
    # the benchmark's morphism_scan items, in-process and in setup order: every
    # map with a fixture of fewer than 3 elements at either end, and every 7th
    # of the maps between two 3-element fixtures
    workloads, canon = perfbench_modules()
    golden = workloads.load_digests()["morphism_scan"]
    fixtures = workloads.morphism_fixtures()
    items = [item for group in workloads.morphism_setup(0, None) for item in group]
    assert len(items) == len(golden) == 314
    sizes = {f.name: len(f.elements) for f in fixtures}
    wide = [item.id for item in items
            if all(sizes[name] == 3 for name in item.id.partition("/")[0].split("->"))]
    assert len(wide) == 243
    skipped = set(wide) - set(wide[::7])
    chosen = [item for item in items if item.id not in skipped]
    assert len(chosen) == 71 + 35
    assert replay(chosen, golden, canon) == {}


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
