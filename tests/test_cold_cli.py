"""One fresh CLI process per subcommand: the modules it loads, and its
machine output against the benchmark's recorded golden output."""

import json
import subprocess
import sys

import pytest

from conftest import CHILD_ENV, FIXTURES
from test_golden import PERFBENCH, cli_groups

# The modules each subcommand runs; ``import realcheck`` registers the rest
# lazily, so they are never compiled.  Only a subcommand that builds or runs
# a term loads ``terms`` (check-density runs the pairing term as its first
# meet candidate); check-aks reads a structure file and builds no opca.
BASE = {"errors", "record", "report"}
FILE = BASE | {"formats", "poset"}
OPCA = FILE | {"opca"}
TERMS = OPCA | {"terms"}
LOADED = {
    "check-opca": OPCA, "check-filter": OPCA,
    "build-aks": TERMS | {"aks"}, "check-aks": FILE | {"aks"}, "check-order-ca": OPCA | {"aks"},
    "check-bco": FILE | {"bco"}, "check-density": TERMS | {"bco"},
    "check-tripos": TERMS | {"bco", "tripos"},
    "check-localic": TERMS | {"aks", "bco", "tripos"},
    "k2 apply": BASE | {"k2"}, "k2 tau": BASE | {"k2"}, "k2 discrete": BASE | {"k2"},
}

# Prints, after the CLI's own output, the realcheck modules loaded by
# ``import realcheck`` and then by the whole run; a lazy module does not count.
LOADED_MODULES = """
import json, runpy, sys, types

def loaded():
    return sorted(name.partition(".")[2] for name, module in sys.modules.items()
                  if name.startswith("realcheck.") and type(module) is types.ModuleType)

import realcheck
after_import = loaded()
try:
    runpy.run_module("realcheck.cli", run_name="__main__")
except SystemExit:
    pass
print(json.dumps([after_import, loaded()]))
"""


def first_call_per_subcommand():
    """{subcommand: argv}: the first benchmark call of each subcommand."""
    groups, _ = cli_groups()
    calls = {}
    for group in groups:
        for argv in group:
            calls.setdefault(" ".join(argv[:2]) if argv[0] == "k2" else argv[0], argv)
    return calls


@pytest.fixture
def workdir(tmp_path):
    """A directory where the golden output's relative paths resolve, so that
    build-aks writes there and not under the repository's perfbench/."""
    (tmp_path / "fixtures").symlink_to(FIXTURES)
    (tmp_path / "perfbench" / "_work").mkdir(parents=True)
    return tmp_path


def run_side_by_side(commands, cwd):
    """(exit code, stdout, stderr) of each command, the processes run at once."""
    procs = [subprocess.Popen(cmd, cwd=cwd, env=CHILD_ENV, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for cmd in commands]
    outs = [proc.communicate(timeout=120) for proc in procs]
    return [(proc.returncode, *out) for proc, out in zip(procs, outs)]


def test_each_subcommand_loads_only_the_modules_it_reads(workdir):
    calls = first_call_per_subcommand()
    assert calls.keys() == LOADED.keys()
    results = run_side_by_side(
        [[sys.executable, "-c", LOADED_MODULES, "--format", "machine", *argv]
         for argv in calls.values()], workdir)
    for command, (_, stdout, stderr) in zip(calls, results):
        after_import, after_run = json.loads(stdout.splitlines()[-1])
        assert after_import == [], command
        assert set(after_run) == LOADED[command], command


def test_cold_cli_replays_golden_machine_output(workdir):
    golden = json.loads((PERFBENCH / "golden" / "cli_cold.json").read_text(encoding="utf-8"))
    calls = first_call_per_subcommand()
    results = run_side_by_side(
        [[sys.executable, "-m", "realcheck.cli", "--format", "machine", *argv]
         for argv in calls.values()], workdir)
    for argv, (code, stdout, stderr) in zip(calls.values(), results):
        want = golden[" ".join(argv)]
        assert (code, stdout) == (want["exit"], want["stdout"]), argv
        # runpy's warning, or an error raised while a module loads, shows here
        lines = stderr.splitlines()
        if code == 2:  # an input error (check-bco's call) is one line
            assert len(lines) == 1 and lines[0].startswith("input error: "), argv
        else:
            assert lines == [], argv
