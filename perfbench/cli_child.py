"""Run one ``udcop`` command line under the tracer, in a fresh interpreter.

Usage: python3 perfbench/cli_child.py SPANS_JSON ARG...

Times ``import udcop.cli`` as the span ``cli.import``, then calls
``udcop.cli.main(ARG...)`` with every target traced, writes the spans to
SPANS_JSON and exits with the command's exit code.
"""

import time

_IMPORT_START = time.perf_counter_ns()

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import udcop.cli  # noqa: E402

_IMPORT_END = time.perf_counter_ns()

from perfbench import tracer as tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tr.add_span("cli.import", _IMPORT_START, _IMPORT_END)
    restore = tracing.install(tr)
    try:
        code = udcop.cli.main(argv)
    finally:
        restore()
        tr.dump(spans_path, _IMPORT_START)
    return code


if __name__ == "__main__":
    sys.exit(main())
