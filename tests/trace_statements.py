"""Which statements of ``src/realcheck`` the tier-1 suite never runs.

The script runs the tests in this process under ``sys.settrace`` and
records every line of ``src/realcheck`` that runs.  The CLI and other child
Pythons the tests start are followed too: a temporary ``sitecustomize``,
put first on the children's ``PYTHONPATH``, traces each child the same way
and writes its lines to a temporary file when it exits.

A statement is an ``ast`` statement (or ``except`` clause) with bytecode
on its lines: a simple statement spans all its lines, a compound one its
header (from the first decorator to the line before its body).  It has
run when a traced line falls in its span.  The script prints the
statements that never run, in-process or in a child, then those that run
only in a child, with a count per module for each list, and the
statements that never run in-process.

It is not collected by pytest (the name does not start with ``test_``).
Run it by hand from the root of the repository; arguments after the
script name go to pytest in place of the default ``tests``:

    PYTHONPATH=src python tests/trace_statements.py
    PYTHONPATH=src python tests/trace_statements.py tests/test_aks.py

Tracing makes the suite about three times slower (3.5 minutes against
one, Python 3.11.7), and a test that times itself may fail under it; the
lists are printed either way, with pytest's exit status.
"""

import ast
import os
import pathlib
import sys
import tempfile
import threading

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "realcheck"

# The tracer, as source: this process runs it, and so does each child
# Python, from the ``sitecustomize`` that ``CHILD`` completes.
TRACER = """
def tracer(src, hits):
    \"\"\"A ``sys.settrace`` function adding the line of each line run in a
    file under ``src`` to ``hits``, as {path: set of lines}.\"\"\"
    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(src):
            return None
        lines = hits.setdefault(path, set())

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line

        return line(frame, event, arg)

    return trace
"""

# Traces a child and writes "path:line" per line run to a file of its own
# in the directory OUT when it exits.
CHILD = """
import atexit, os, sys

_hits = {}


def _write():
    sys.settrace(None)
    with open(os.path.join(OUT, str(os.getpid())), "w") as f:
        for path, lines in _hits.items():
            f.writelines(f"{path}:{n}\\n" for n in lines)


sys.settrace(tracer(SRC, _hits))
atexit.register(_write)
"""


def code_lines(code):
    """The lines that hold bytecode in ``code`` and its nested code objects."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= code_lines(const)
    return out


def statements(path):
    """[(first line, span)] for every statement of the file with bytecode."""
    source = path.read_text()
    coded = code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        span = range(first, last + 1)
        if coded.intersection(span):
            found.append((node.lineno, span))
    return sorted(found)


def unrun(hits):
    """{module file name: [(line, source line)]} of the statements with no
    line in ``hits``."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        run = hits.get(str(path), set())
        text = path.read_text().splitlines()
        missed = [(n, text[n - 1].strip()) for n, span in statements(path)
                  if not run.intersection(span)]
        if missed:
            out[path.name] = missed
    return out


def show(title, missed):
    total = sum(map(len, missed.values()))
    per_module = ", ".join(f"{name[:-3]} {len(rows)}" for name, rows in missed.items())
    print(f"\n{title}: {total}" + (f" ({per_module})" if total else ""))
    for name, rows in missed.items():
        for n, line in rows:
            print(f"  {name}:{n}  {line}")


def main(argv):
    inside = {}
    with tempfile.TemporaryDirectory() as boot, tempfile.TemporaryDirectory() as out:
        pathlib.Path(boot, "sitecustomize.py").write_text(
            f"SRC, OUT = {str(SRC)!r}, {out!r}\n{TRACER}{CHILD}")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [boot, str(SRC.parent), os.environ.get("PYTHONPATH", "")])
        sys.path.insert(0, str(SRC.parent))
        scope = {}
        exec(TRACER, scope)
        trace = scope["tracer"](str(SRC), inside)
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            import pytest
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  "--continue-on-collection-errors", *(argv or ["tests"])])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        children = {}
        for record in pathlib.Path(out).iterdir():
            for entry in record.read_text().splitlines():
                path, _, line = entry.rpartition(":")
                children.setdefault(path, set()).add(int(line))
    everywhere = {path: inside.get(path, set()) | children.get(path, set())
                  for path in {*inside, *children}}
    never = unrun(everywhere)
    in_process = unrun(inside)
    show("statements that never run", never)
    show("statements that run only in a child process", {
        name: [row for row in rows if row not in never.get(name, ())]
        for name, rows in in_process.items()
        if any(row not in never.get(name, ()) for row in rows)})
    print(f"\nstatements that never run in-process: {sum(map(len, in_process.values()))}")
    print(f"pytest exit status: {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
