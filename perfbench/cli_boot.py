"""Run the realcheck CLI once with the benchmark's tracer installed.

Usage: python cli_boot.py SPANS_OUT CLI_ARGS...

Times ``import realcheck.cli`` as the span ``cli.import``, installs the
tracer, calls ``realcheck.cli.main(CLI_ARGS)`` and writes this process's
spans and counters to SPANS_OUT as JSON before exiting with main's code.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer("cli_cold")
    tracer.item = "cli"
    start = perf_counter()
    import realcheck.cli
    tracer.add_span("cli.import", start, perf_counter())
    tracer.install()
    try:
        code = realcheck.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
