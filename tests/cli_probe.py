"""Run one ``seqcong`` command, then name the seqcong modules whose code ran.

Usage: ``python tests/cli_probe.py ARGS...`` with ``src`` on ``PYTHONPATH``.
The command reads stdin and writes stdout as ``python -m seqcong.cli ARGS...``
does; the last line of stderr is a JSON list of the ``seqcong.*`` modules
that ran.  A registered submodule that has not run has no ``__builtins__``
in its namespace, and reading that namespace does not run it.
"""

import json
import sys

from seqcong.cli import main


def ran() -> list[str]:
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("seqcong.") and "__builtins__" in vars(module))


if __name__ == "__main__":
    try:
        main()
    finally:
        print(json.dumps(ran()), file=sys.stderr)
