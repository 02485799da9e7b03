"""CLI contract: every argv drawn from a small grammar, valid or not, ends in
exit 0, 1 or 2 without a traceback.  Exit 2 comes with ``error:`` or an
argparse usage line, and ``--json`` output parses.

The sizes are kept small so that no draw runs into a long computation:
fields up to F5, groups of order at most 6 only over F2, and always an
explicit sample count and k (the sampled p1 check tests every pair of its
square-zero draws, so its default of 2000 draws can take seconds, and so can
the default S_4 on F2[S3]).
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpifc.cli import main

WORDS = ("X*Y^-1", "X^3", "Y^-2*X", "1", "X*Z", "X^", "")
LAURENT = ("X*Y - Y*X", "X - 1", "1 + X*Y^-1", "2*X^2 - 1/2*Y", "X - X",
           "X*", "X^", "Z", "", "1/0 + X", "X^a", "(X")
AB_EXPR = ("a*b - b*a", "1 - 1", "a + b", "2*a*b", "a*", "c", "")
TPOLY = ("T", "T^2", "T + 1", "T^2 + 2*T", "0", "T^", "X", "")
FIELDS = ("0", "1", "4", "-3", "2", "3", "5")
# The finite-algebra checks enumerate K^dim; F3 and F5 would make the
# group algebras of order 6 too large to sweep quickly.  F2 is listed twice
# to draw it more often.
ALGEBRA_FIELDS = ("0", "1", "4", "-3", "2", "2")
COUNTS = ("-1", "0", "3")
CMAX = ("-1", "0", "1", "2")
MISSING = ("/nonexistent/lpifc.alg", "")
ALGEBRAS = ("m2", "sqzero1", "sqzero2", "group:sym:3", "group:cyclic:2", "group:bad", "foo",
            *(f"file:{path}" for path in MISSING), *(f"group-file:{path}" for path in MISSING))


def _req(flag, values):
    return st.sampled_from(values).map(lambda v: [flag, v])


def _opt(flag, values):
    """``[flag, value]`` for a drawn value, or nothing."""
    return st.one_of(st.just([]), _req(flag, values))


def _argv(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name, *(tok for p in ps for tok in p)])


def _pos(values):
    return st.sampled_from(values).map(lambda v: [v])


UNITS = _opt("--units", ("primary", "alternate", "swapped"))
FIELD = _opt("--field", FIELDS)
SEED = _opt("--seed", ("0", "7", "-1"))
MODE = _opt("--mode", ("exhaustive", "sampled"))
# No algebra flag, one, or two of them.
GRPALG_ALGEBRA = st.lists(st.one_of(
    _req("--algebra", ALGEBRAS),
    _req("--group", ("sym:3", "cyclic:3", "bad")),
    _req("--group-file", MISSING),
    _req("--algebra-file", MISSING),
), max_size=2).map(lambda flags: [tok for flag in flags for tok in flag])

COMMANDS = st.one_of(
    _argv("word", _pos(WORDS)),
    _argv("obstruct", _pos(LAURENT), FIELD),
    _argv("eval", _pos(LAURENT), FIELD, UNITS),
    _argv("in-l", _pos(AB_EXPR), FIELD),
    _argv("extract-g", _pos(LAURENT), FIELD, UNITS, _opt("--conj-bound", COUNTS)),
    _argv("thekey", FIELD, _opt("--degree-bound", COUNTS)),
    _argv("expand", _pos(LAURENT), FIELD, _opt("--trunc", COUNTS)),
    _argv("verify-tables", FIELD, _opt("--cmax", CMAX)),
    _argv("support3", FIELD, SEED, _opt("--cmax", CMAX), _opt("--coeff-samples", COUNTS)),
    _argv("cprime-bound", FIELD, SEED, _opt("--cmax", CMAX), _opt("--samples", COUNTS)),
    _argv("grpalg", _opt("--field", ALGEBRA_FIELDS), SEED, GRPALG_ALGEBRA,
          st.one_of(st.just([]), _opt("--lpi", LAURENT), st.just(["--predicates"])),
          _opt("--trials", COUNTS)),
    *(_argv(name, _req("--algebra", ALGEBRAS), _opt("--field", ALGEBRA_FIELDS), SEED,
            _req("--g", TPOLY), MODE, _req("--samples", COUNTS))
      for name in ("p1", "bac")),
    _argv("finitecondi", _req("--q", FIELDS), _req("--g", TPOLY)),
    _argv("standard-poly", _req("--algebra", ALGEBRAS), _opt("--field", ALGEBRA_FIELDS), SEED,
          _req("--k", COUNTS), MODE, _req("--samples", COUNTS),
          _opt("--elements", ("1,0,0,0;0,1,0,0;0,0,1,0", "1,0", "1,x", ";"))),
)
ARGV = st.tuples(COMMANDS, st.booleans()).map(lambda c: c[0] + ["--json"] * c[1])


def check_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "internal error:" not in stderr, (argv, stderr)
    if code == 2:
        assert stderr.startswith("error: ") or "usage: " in stderr, (argv, stderr)
    elif "--json" in argv:
        json.loads(out.getvalue())


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(ARGV)
# A negative seed reaches numpy's seeded draw only in a sampled S_k that
# passes every other check, which the grammar above rarely draws.
@example(["standard-poly", "--algebra", "m2", "--field", "2", "--k", "2", "--mode", "sampled",
          "--samples", "5", "--seed", "-1"])
def test_cli_contract(argv):
    check_contract(argv)
