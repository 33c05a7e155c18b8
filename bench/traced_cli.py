"""Run one ``seqcong`` command with its library calls traced.

Usage: ``python3 bench/traced_cli.py SPANS_PATH ARGS...``, with ``src`` on
``PYTHONPATH``.  Behaves like ``python3 -m seqcong.cli ARGS...`` on stdin,
stdout, stderr and exit code, and writes its spans to SPANS_PATH on exit.
The wrappers go in before ``seqcong.cli`` is imported, because the CLI binds
its map functions into a table at import time.
"""

import sys

from spans import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.active = True
    seqcong = tracer.span("cli.import", __import__, "seqcong")
    tracer.install()
    tracer.span("cli.import", __import__, "seqcong.cli")
    try:
        return tracer.span("cli.run", seqcong.cli.run, argv)
    finally:
        sys.stdout.flush()
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())
