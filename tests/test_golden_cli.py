"""Byte-for-byte CLI goldens for the ideal engines.

``golden_cli.json`` holds the stdout, stderr and exit code of every
``seqcong ideal {closure,order,weak-order,modulus,Lset,link}`` run below, for
every builtin kind (the parameterised ones at two parameters each) in text and
JSON, plus the error for each tag that names no kind or breaks a kind's
parameter rule.  It was captured before the ideal kinds were rewritten as one
incremental test each, so any change in a report's wording, order, witness or
counter fails here.

Rewrite it only for an intended output change::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib

from seqcong.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# the eleven kinds, each parameterised one at two parameters
KINDS = ("SA", "SA_maxlen:1", "SA_maxlen:2", "S", "D", "R", "Rprime", "Adiff", "N_maxlen:1",
         "N_maxlen:3", "P_parity", "P_mod:2", "P_mod:3", "Pprime")
ACTIONS = ("closure", "order", "weak-order", "modulus", "Lset", "link")
BOX = ("--max-part", "8", "--max-len", "4")
# tags every kind's parameter rule refuses, each with its error message
BAD_TAGS = ("bogus", "SA_maxlen", "SA_maxlen:0", "N_maxlen:-1", "P_mod", "P_mod:1", "D:3",
            "S:1", "R:x")


def cases():
    for fmt in ("text", "json"):
        for kind in KINDS:
            for action in ACTIONS:
                argv = ["--format", fmt, "ideal", action, "--ideal", kind, *BOX]
                if action in ("modulus", "Lset", "link"):
                    argv += ["--modulus", "2"]
                yield argv
    for tag in BAD_TAGS:
        yield ["ideal", "closure", "--ideal", tag, *BOX]


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_ideal_reports_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = [capture(argv) for argv in cases()]
    assert [g["argv"] for g in got] == [w["argv"] for w in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(g["argv"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([capture(argv) for argv in cases()], indent=1) + "\n")
