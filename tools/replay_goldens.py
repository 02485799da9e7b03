"""Replay a few golden CLI transcripts through a given command.

Usage: python tools/replay_goldens.py COMMAND [ARG...]

Each case in CASES is run as ``COMMAND ARG... <case argv>``, and its
stdout, exit code and, where the transcript records it, stderr are compared
with the transcript of the same argv in tests/golden_cli.json.  CI runs it
with the ``lpifc`` script that pip installed, from outside the checkout and
with no PYTHONPATH; the test suite runs it with ``python -m lpifc.cli``.
The ``eval`` case takes a block power by Cayley-Hamilton, the ``expand`` and
``in-l`` cases read sums of words through the power-series expansion and the
square-zero parser, the ``p1`` and last two ``grpalg`` cases run the M2,
group-algebra and product-group builders, the ``bac`` case keeps sampled
tuples, the ``verify-tables`` case builds each word's image from its
parent's, the ``support3`` case decides 42 of its candidates by a
translation of the polynomial's words, and the ``cprime-bound`` case stops
at the bound on the words it would enumerate.  Prints each mismatch and
exits 1 if there is any.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden_cli.json"

CASES = (
    ["word", "X*Y^-1", "--json"],
    ["word", "X*Z"],
    ["grpalg", "--algebra-file", "/nonexistent/lpifc.alg", "--field", "2"],
    ["eval", "Y^90 - 1", "--field", "3", "--units", "swapped", "--json"],
    ["expand", "X*Y*X^-1*Y^-1 - 1", "--field", "0", "--trunc", "4", "--json"],
    ["in-l", "1 + a*b - 2*b*a*b", "--field", "5"],
    ["p1", "--algebra", "m2", "--field", "2", "--g", "T"],
    ["grpalg", "--group", "sym:3", "--field", "3", "--predicates"],
    ["grpalg", "--group", "cyclic:2xsym:3", "--field", "2", "--json"],
    ["bac", "--algebra", "sqzero2", "--field", "3", "--g", "T^2", "--mode", "sampled",
     "--samples", "200", "--seed", "5"],
    ["verify-tables", "--cmax", "3", "--field", "5", "--json"],
    ["support3", "--cmax", "2", "--field", "3", "--seed", "1", "--coeff-samples", "1", "--json"],
    ["cprime-bound", "--cmax", "40"],
)


def main(command: list[str]) -> int:
    if not command:
        print("usage: python tools/replay_goldens.py COMMAND [ARG...]", file=sys.stderr)
        return 2
    golden = {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text())}
    failed = False
    for argv in CASES:
        case = golden[tuple(argv)]
        run = subprocess.run([*command, *argv], capture_output=True, text=True)
        # Some transcripts, as those of verify-tables, record no stderr.
        stderr = case.get("stderr", run.stderr)
        if (run.returncode, run.stdout, run.stderr) != (case["exit"], case["stdout"], stderr):
            print(f"{' '.join(command + argv)} differs from its golden transcript"
                  f" (exit {run.returncode}, expected {case['exit']}):")
            print(run.stdout + run.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
