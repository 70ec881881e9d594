"""Run one quiverstab command under the benchmark's tracer.

Usage: python3 cli_traced.py SPANS_FILE COMMAND [ARGS...]

Same arguments, output and exit code as ``python -m quiverstab.cli``; the
spans of the command are written to SPANS_FILE.
"""

import sys

import tracer

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    from quiverstab import cli

    try:
        code = cli.main(argv)
    finally:
        t.dump(spans_file)
    sys.exit(code)
