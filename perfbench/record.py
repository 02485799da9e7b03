"""Generate the query catalogue and record its expected outputs.

    python3 perfbench/record.py            # rewrite perfbench/queries.json

The catalogue is built from a fixed generator seed, so rerunning this script
reproduces the same inputs.  For every entry it records the exit code and the
sha256 of stdout of one in-process ``lpifc.cli.main`` call at the current
commit; the ``queries`` workload compares against these.  Rerun it only when
a change to the CLI output is intended.

The inputs follow the README's CLI examples with randomised arguments.
``eval "X^800 - 1"`` is left out: it runs for over a minute and has no
resource bound yet.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from run import REF_MS  # noqa: E402
from worker import reference_work  # noqa: E402
from workloads import QUERIES_FILE, run_cli  # noqa: E402

GENERATOR_SEED = 1712
# Catalogue entries per per-pass slot: the seed chooses one of each bin.
BIN = 3
# Runs per entry when recording; the median scaled time orders the cost bins.
REPEATS = 5
FIELDS = (0, 2, 3, 5, 7)


def _word(rng: random.Random, max_blocks: int, max_exp: int) -> str:
    gen = rng.randrange(2)
    parts = []
    for _ in range(rng.randint(1, max_blocks)):
        exp = rng.choice((1, -1)) * rng.randint(1, max_exp)
        parts.append("XY"[gen] + ("" if exp == 1 else f"^{exp}"))
        gen ^= 1
    return "*".join(parts)


def _coeff(rng: random.Random, p: int) -> str:
    """A small integer or fraction whose denominator is a unit mod p."""
    num = rng.randint(1, 4)
    if rng.random() < 0.7:
        return str(num)
    return f"{num}/{rng.choice([d for d in (2, 3, 5) if p == 0 or d % p])}"


def _signs(rng: random.Random, i: int) -> str:
    # The first term is never negated: a lone argument such as "-X" would
    # be read as a command-line option.
    return f" {rng.choice('+-')} " if i else ""


def _laurent(rng: random.Random, p: int, terms: int, max_blocks: int, max_exp: int,
             identity: bool = True) -> str:
    words = {_word(rng, max_blocks, max_exp) for _ in range(terms)}
    if identity and rng.random() < 0.5:
        words.add("1")
    out = ""
    for i, w in enumerate(sorted(words)):
        c = _coeff(rng, p) if rng.random() < 0.5 else ""
        out += _signs(rng, i) + (w if not c else (c if w == "1" else f"{c}*{w}"))
    return out


def _fc_expr(rng: random.Random) -> str:
    monos = ["1", "a", "b", "a*b", "b*a", "a*b*a", "b*a*b", "a*b*a*b", "b*a*b*a"]
    chosen = rng.sample(monos, rng.randint(1, 4))
    out = ""
    for i, m in enumerate(chosen):
        c = rng.randint(1, 3)
        out += _signs(rng, i) + (m if c == 1 else (str(c) if m == "1" else f"{c}*{m}"))
    return out


def _gpoly(rng: random.Random, linear: bool = True) -> str:
    deg = rng.randint(1 if linear else 2, 3)
    out = f"T^{deg}" if deg > 1 else "T"
    for k in range(deg - 1, 0 if linear else 1, -1):
        if rng.random() < 0.4:
            out += f" + {rng.randint(1, 2)}*T^{k}" if k > 1 else f" + {rng.randint(1, 2)}*T"
    return out


def _units(rng):
    return rng.choice(("primary", "alternate", "swapped"))


def gen_word(rng, i):
    return ["word", _word(rng, 6, 4), "--json"]


def gen_obstruct(rng, i):
    p = rng.choice(FIELDS)
    return ["obstruct", _laurent(rng, p, rng.randint(2, 4), 4, 3), "--field", str(p), "--json"]


def gen_eval(rng, i):
    p = rng.choice(FIELDS)
    return ["eval", _laurent(rng, p, rng.randint(1, 3), 3, 2), "--units", _units(rng),
            "--field", str(p), "--json"]


def gen_eval_power(rng, i):
    # Three forms at rising exponents, 0.1 to 0.6 s each over Q.
    level, form = divmod(i, 3)
    if form == 0:
        k = 30 + 3 * level // 2
        expr = f"{rng.choice('XY')}^{rng.choice((k, -k))} - 1"
    elif form == 1:
        k = 16 + level
        expr = f"X^{k}*Y - Y*X^{k}"
    else:
        k = 10 + level // 2
        expr = f"X^{k}*Y*X^-{k}*Y^-1 - 1"
    return ["eval", expr, "--units", _units(rng), "--json"]


def gen_in_l(rng, i):
    return ["in-l", _fc_expr(rng), "--field", str(rng.choice(FIELDS)), "--json"]


def gen_extract_g(rng, i):
    p = rng.choice((0, 3, 5))
    return ["extract-g", _laurent(rng, p, rng.randint(1, 3), 2, 1), "--units", _units(rng),
            "--field", str(p), "--json"]


def gen_thekey(rng, i):
    return ["thekey", "--field", str(FIELDS[i % 5]), "--degree-bound", str(1 + i // 5 % 4),
            "--json"]


def gen_expand(rng, i):
    p = rng.choice(FIELDS)
    return ["expand", _laurent(rng, p, rng.randint(1, 3), 3, 1), "--trunc",
            str(rng.randint(2, 4)), "--field", str(p), "--json"]


def gen_p1(rng, i):
    algebra, field = rng.choice((("sqzero1", 2), ("sqzero1", 3), ("sqzero2", 2), ("m2", 2)))
    argv = ["p1", "--algebra", algebra, "--field", str(field), "--g", _gpoly(rng)]
    if rng.random() < 0.3:
        argv += ["--mode", "sampled", "--samples", str(rng.randint(20, 60)),
                 "--seed", str(rng.randrange(1000))]
    return argv + ["--json"]


def gen_bac(rng, i):
    algebra, field = rng.choice((("sqzero1", 2), ("sqzero1", 3), ("sqzero2", 2)))
    # On sqzero2, bac's square-zero precondition holds only for g without a
    # linear term.
    return ["bac", "--algebra", algebra, "--field", str(field),
            "--g", _gpoly(rng, linear=algebra != "sqzero2"), "--json"]


def gen_standard_poly(rng, i):
    choice = rng.randrange(3)
    if choice == 0:
        return ["standard-poly", "--algebra", "m2", "--field", "2", "--k", str(rng.randint(2, 3)),
                "--json"]
    if choice == 1:
        return ["standard-poly", "--algebra", "m2", "--field", "2", "--k", "4",
                "--mode", "sampled", "--samples", str(rng.randint(500, 2000)),
                "--seed", str(rng.randrange(1000)), "--json"]
    group = rng.choice(("cyclic:2", "cyclic:3", "cyclic:4"))
    return ["standard-poly", "--algebra", f"group:{group}", "--field", "2", "--k", "2", "--json"]


def gen_grpalg(rng, i):
    group = rng.choice(("cyclic:3", "cyclic:4", "cyclic:5", "sym:3", "dihedral:4",
                        "quaternion8", "cyclic:2xcyclic:2"))
    p = rng.choice((2, 3, 5))
    field = str(p)
    mode = rng.randrange(3)
    if mode == 0:
        return ["grpalg", "--group", group, "--field", field, "--lpi",
                _laurent(rng, p, 2, 2, 1), "--trials", str(rng.randint(20, 80)),
                "--seed", str(rng.randrange(1000)), "--json"]
    if mode == 1:
        return ["grpalg", "--group", rng.choice(("cyclic:3", "cyclic:4", "sym:3")),
                "--field", "2", "--predicates", "--json"]
    return ["grpalg", "--group", group, "--field", field, "--json"]


# (kind, generator).  There is no record of what users run, so every kind
# gets the same number of queries per pass: an assumed mix, not a measured
# one.  High-power evaluation is one kind of twelve, the few large-degree
# products among many small queries.
KINDS = (
    ("word", gen_word),
    ("obstruct", gen_obstruct),
    ("eval", gen_eval),
    ("eval-power", gen_eval_power),
    ("in-l", gen_in_l),
    ("extract-g", gen_extract_g),
    ("thekey", gen_thekey),
    ("expand", gen_expand),
    ("p1", gen_p1),
    ("bac", gen_bac),
    ("standard-poly", gen_standard_poly),
    ("grpalg", gen_grpalg),
)
# 12 x 17 = 204 queries, so ten or more lie above the 95th percentile.
PER_PASS = 17
# The CLI's exit code for usage and parameter errors.  The catalogue holds
# none: every query is one a user would expect to succeed.
USAGE_ERROR = 2

# The first query of each workload's user, timed by setup_s.
PROBES = {
    "tables": ["verify-tables", "--cmax", "1", "--json"],
    "support3": ["support3", "--cmax", "1", "--field", "2", "--json"],
    "algebra": ["p1", "--algebra", "sqzero1", "--field", "2", "--g", "T^2", "--json"],
    "queries": ["word", "X*Y^-1", "--json"],
}


def _ref_ms() -> float:
    t0 = time.perf_counter()
    reference_work()
    return (time.perf_counter() - t0) * 1000


def record(argv: list[str], ident: str, kind: str) -> dict:
    """Run one query REPEATS times; its outputs must agree every time.  The
    recorded cost is the median time scaled to the reference speed, with the
    reference task timed just before and after each run."""
    outcomes, times = set(), []
    for _ in range(REPEATS):
        ref0 = _ref_ms()
        t0 = time.perf_counter()
        rc, stdout = run_cli(argv)
        ms = (time.perf_counter() - t0) * 1000
        times.append(ms * REF_MS * 2 / (ref0 + _ref_ms()))
        outcomes.add((rc, hashlib.sha256(stdout).hexdigest()))
    if len(outcomes) != 1:
        raise SystemExit(f"nondeterministic output for {argv}: {outcomes}")
    (rc, digest), = outcomes
    return {"id": ident, "kind": kind, "argv": argv, "exit": rc, "sha256": digest,
            "ms": round(statistics.median(times), 1)}


def main() -> int:
    entries = []
    for kind, gen in KINDS:
        rng = random.Random(f"{GENERATOR_SEED}-{kind}")
        rows = [record(gen(rng, i), "", kind) for i in range(BIN * PER_PASS)]
        bad = [r["argv"] for r in rows if r["exit"] == USAGE_ERROR]
        if bad:
            raise SystemExit(f"{kind}: {len(bad)} queries exit {USAGE_ERROR}, first {bad[0]}")
        rows.sort(key=lambda r: r["ms"])
        for i, row in enumerate(rows):
            row["id"] = f"{kind}-{i:03d}"
        entries += rows
        ms = [r["ms"] for r in rows]
        print(f"{kind:14s} {len(rows):3d} entries, {min(ms):7.1f}..{max(ms):7.1f} ms, "
              f"exit codes {sorted({r['exit'] for r in rows})}", file=sys.stderr)
    out = {
        "generator_seed": GENERATOR_SEED,
        "kinds": [{"name": k, "per_pass": PER_PASS} for k, _ in KINDS],
        "probes": {w: record(argv, f"probe-{w}", "probe") for w, argv in PROBES.items()},
        "entries": entries,
    }
    QUERIES_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
