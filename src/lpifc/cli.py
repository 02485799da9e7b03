"""Command-line front end.

Exit codes: 0 = success / verified / no counterexample found (inconclusive
results included); 1 = a property was violated or a counterexample/witness
was found (and printed); 2 = usage or parse error, or an internal error
(``lpifc.errors.InternalError``, a bug) printed as ``internal error:``.

Verdicts for identity checks are strictly three-valued: "NOT an LPI
(certificate attached)", "no obstruction found (inconclusive)", or an input
error; there is no positive verdict.

JSON output (--json) is canonical (sorted keys); identical invocations with
the same seed are byte-identical.  The three campaigns take --timings, which
adds their wall-clock duration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import expand as expand_mod
from . import fcrep, grpalg, search
from .errors import InternalError, InvalidParameter, StillInL, UsageError
from .exactalg import Field, UniPoly, render_scalar_mat, scalar_mat_is_zero
from .laurent import max_cumulus, obstruction_matrix, parse_laurent
from .parsing import is_digits, parse_int
from .words import parse_word, word_invariants

NOT_LPI = "NOT an LPI of U(F_C) (certificate attached)"
INCONCLUSIVE = "no obstruction found (inconclusive)"
HOLDS = {True: "holds", False: "fails", None: "inconclusive"}

# Each handler returns (record, lines, exit code); main prints the record as
# JSON under --json, else the lines.
Output = tuple[dict, list[str], int]


def _falsifier(record: dict, lines: list[str], nonzero: bool) -> Output:
    """A nonzero certificate means NOT an LPI (exit 1); a zero one decides
    nothing."""
    verdict = NOT_LPI if nonzero else INCONCLUSIVE
    record.update(nonzero=nonzero, verdict=verdict)
    return record, lines + [f"verdict: {verdict}"], 1 if nonzero else 0


def _options(args, reads: bool, where: str, **defaults) -> dict:
    """The options named in ``defaults``, each its default when not given
    (the parser leaves them None).  A run that ``reads`` none of them
    rejects any that is given, naming it."""
    given = [name for name in defaults if getattr(args, name) is not None]
    if given and not reads:
        raise InvalidParameter(f"{where} does not read --{given[0]}")
    return {name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in defaults.items()}


def _check(record: dict, headline: str, result: grpalg.CheckResult) -> Output:
    """A finite-algebra check: exit 1 with its witness printed when it
    fails."""
    lines = [headline] + ([f"  witness: {result.witness}"] if result.witness else [])
    return {**record, **asdict(result)}, lines, 1 if result.holds is False else 0


# -- subcommand handlers -----------------------------------------------------


def cmd_word(args) -> Output:
    w = parse_word(args.expr)
    invs = word_invariants(w).to_dict()
    lines = [f"word: {w.render()}"] + [f"  {k} = {v}" for k, v in invs.items()]
    return {"word": w.render(), **invs}, lines, 0


def cmd_obstruct(args) -> Output:
    field = Field(args.field)
    f = parse_laurent(args.expr, field)
    if f.is_zero:
        raise InvalidParameter("the zero polynomial has no obstruction matrix")
    mat = obstruction_matrix(f)
    record = {
        "input": f.render(),
        "field": repr(field),
        "cumulus": max_cumulus(f),
        "matrix": render_scalar_mat(mat),
    }
    lines = [
        f"input: {f.render()} over {field!r}",
        f"max cumulus: {record['cumulus']}",
        f"obstruction matrix: {record['matrix']}",
    ]
    return _falsifier(record, lines, not scalar_mat_is_zero(mat))


def cmd_eval(args) -> Output:
    field = Field(args.field)
    f = parse_laurent(args.expr, field)
    img = fcrep.eval_laurent(f, fcrep.unit_pair(args.units, field))
    record = {
        "input": f.render(),
        "field": repr(field),
        "units": args.units,
        "matrix": img.render(),
        "degree": None if img.is_zero else int(img.degree),
    }
    lines = [f"input: {f.render()} over {field!r} (units: {args.units})", f"evaluation: {img}"]
    return _falsifier(record, lines, not img.is_zero)


def cmd_in_l(args) -> Output:
    field = Field(args.field)
    m = fcrep.phi_eval(args.expr, field)
    member = m.in_l()
    record = {"input": args.expr, "field": repr(field), "decomposition": m.to_dict(), "in_l": member}
    return record, [f"decomposition: {m}", f"in L: {member}"], 0


def cmd_extract_g(args) -> Output:
    field = Field(args.field)
    f = parse_laurent(args.expr, field)
    record = {"input": f.render(), "field": repr(field), "units": args.units}
    try:
        witness = fcrep.extract_g(f, fcrep.unit_pair(args.units, field), conj_bound=args.conj_bound)
    except StillInL as exc:
        record.update(status="inconclusive", detail=str(exc))
        return record, [f"inconclusive: {exc}"], 0
    record.update(
        conj_bound=args.conj_bound,
        g=str(witness.g),
        sigma=witness.sigma,
        tau=witness.tau,
        conjugator=witness.conjugator,
        verdict=NOT_LPI,
    )
    lines = [
        f"g(T) = {witness.g}",
        f"route: sigma={witness.sigma}, tau={witness.tau}, conjugator={witness.conjugator}",
        f"verdict: {NOT_LPI}",
    ]
    return record, lines, 1


def cmd_thekey(args) -> Output:
    field = Field(args.field)
    report = fcrep.thekey_solve(field, degree_bound=args.degree_bound)
    lines = [f"conjugation system over {field!r}, degree bound {args.degree_bound}"]
    for stage in report.stages:
        lines.append(f"  after {stage.conjugator}: nullspace dim {stage.nullspace_dim}")
    for rel, holds in report.relations:
        lines.append(f"  relation {rel}: {'holds' if holds else 'fails'}")
    lines.append(f"solution space: {'zero' if report.zero_space else f'dim {report.final_dim}'}")
    return report.to_dict(), lines, 0 if report.zero_space else 1


def cmd_expand(args) -> Output:
    field = Field(args.field)
    f = parse_laurent(args.expr, field)
    ts = expand_mod.expand(f, bound=args.trunc)
    record = {
        "input": f.render(),
        "field": repr(field),
        "truncation": ts.bound,
        "components": ts.to_dict(),
    }
    lines = [f"expansion of {f.render()} (truncation {ts.bound})"]
    for key, val in record["components"].items():
        lines.append(f"  T-degree ({key}): {val}")
    if ts.is_zero:
        record["minimal_degree"] = None
        lines.append("all components vanish within the truncation")
    else:
        m, mds = expand_mod.minimal_degree(ts)
        record["minimal_degree"] = m
        record["minimal_multidegrees"] = [list(md) for md in mds]
        record["minimal_component_sum"] = expand_mod.render_component(
            expand_mod.minimal_component_sum(ts), ts.nvars)
        lines.append(f"minimal total degree: {m} at {record['minimal_multidegrees']}")
        lines.append(f"minimal component sum: {record['minimal_component_sum']}")
    return record, lines, 0


def _campaign_exit(args, headline: str, campaign, *params, **options) -> Output:
    """Run ``campaign(*params, **options)``; under --timings its record gains
    the wall-clock duration of the run."""
    start = time.perf_counter()
    report = campaign(*params, **options)
    record = report.to_dict()
    if args.timings:
        record["duration_ms"] = (time.perf_counter() - start) * 1000
    lines = [headline, f"checked: {report.checked}, passed: {report.passed}, failed: {report.failed}"]
    lines += [f"  FAILURE {failure}" for failure in report.failures[:10]]
    return record, lines, 0 if report.failed == 0 else 1


def cmd_verify_tables(args) -> Output:
    field = Field(args.field)
    return _campaign_exit(args, f"leading-term table sweep, c <= {args.cmax}, {field!r}",
                          search.verify_tables, args.cmax, field)


def cmd_support3(args) -> Output:
    field = Field(args.field)
    return _campaign_exit(args, f"three-term-support campaign, c <= {args.cmax}, {field!r}",
                          search.support3_campaign, args.cmax, [field],
                          coeff_samples=args.coeff_samples, seed=args.seed)


def cmd_cprime_bound(args) -> Output:
    field = Field(args.field)
    return _campaign_exit(args, f"alternate-pair degree bound, weight <= {args.cmax}, {field!r}",
                          search.cprime_bound_campaign, args.cmax, field,
                          samples=args.samples, seed=args.seed)


def _algebra_from(spec: str, field: Field) -> grpalg.FinAlgebra:
    if spec == "m2":
        return grpalg.matrix2_algebra(field)
    if spec == "sqzero1":
        return grpalg.square_zero_algebra(field, 1)
    if spec == "sqzero2":
        return grpalg.square_zero_algebra(field, 2)
    if spec.startswith("group:"):
        return grpalg.group_algebra(grpalg.build_group(spec[len("group:"):]), field)
    if spec.startswith("group-file:"):
        return grpalg.group_algebra(grpalg.load_group(spec[len("group-file:"):]), field)
    if spec.startswith("file:"):
        return grpalg.load_algebra(spec[len("file:"):], field)
    raise InvalidParameter(
        f"unknown algebra spec {spec!r}; use m2, sqzero1, sqzero2, group:SPEC, or file:PATH"
    )


def cmd_grpalg(args) -> Output:
    field = Field(args.field)
    if args.algebra is None:
        raise InvalidParameter("grpalg needs --group, --group-file, or --algebra-file")
    options = _options(args, bool(args.lpi), "grpalg without --lpi", trials=200, seed=0)
    algebra = _algebra_from(args.algebra, field)

    if args.lpi:
        f = parse_laurent(args.lpi, field)
        result = grpalg.falsify_lpi(f, algebra, **options)
        if result.found:
            lines = [
                f"counterexample on {algebra.name} at trial {result.trial}:",
                f"  units: {result.units}",
                f"  value: {result.value}",
            ]
        else:
            lines = [f"no counterexample found on {algebra.name} after {result.trials} trials"]
        record = {"algebra": algebra.name, "input": f.render(), **asdict(result)}
        return record, lines, 1 if result.found else 0

    if args.predicates:
        report = grpalg.structural_predicates(algebra)
        lines = [
            f"structural predicates on {algebra.name}:",
            f"  idempotents checked ({report.idempotent_mode}): {report.idempotents_checked}",
            f"  all idempotents central: {report.all_idempotents_central}",
            f"  normalizer criterion: {report.normalizer_criterion_holds}"
            f" over {report.normalizer_pairs_checked} pairs",
        ]
        if report.noncentral_idempotent:
            lines.append(f"  noncentral idempotent: {report.noncentral_idempotent}")
        ok = report.all_idempotents_central and report.normalizer_criterion_holds
        return asdict(report), lines, 0 if ok else 1

    record = {
        "algebra": algebra.name,
        "dim": algebra.dim,
        "field": repr(field),
        "labels": list(algebra.labels),
    }
    return record, [f"{algebra.name}: dimension {algebra.dim} over {field!r}"], 0


def cmd_p1(args) -> Output:
    options = _options(args, args.mode == "sampled", "exhaustive p1", samples=2000, seed=0)
    field = Field(args.field)
    algebra = _algebra_from(args.algebra, field)
    g = UniPoly.parse(args.g, field)
    result = grpalg.p1_check(algebra, g, mode=args.mode, **options)
    return _check(
        {"algebra": algebra.name, "g": str(g), "mode": args.mode},
        f"square-zero vanishing of g = {g} on {algebra.name}: {HOLDS[result.holds]}",
        result,
    )


def cmd_bac(args) -> Output:
    options = _options(args, args.mode == "sampled", "exhaustive bac", samples=2000, seed=0)
    field = Field(args.field)
    algebra = _algebra_from(args.algebra, field)
    g = UniPoly.parse(args.g, field)
    result = grpalg.bac_check(algebra, g, mode=args.mode, **options)
    return _check(
        {"algebra": algebra.name, "g": str(g), "h": str(UniPoly.T(field) * g), "mode": args.mode},
        f"zero-product chain h = T*g with g = {g} on {algebra.name}: {HOLDS[result.holds]}",
        result,
    )


def cmd_finitecondi(args) -> Output:
    g = UniPoly.parse(args.g, Field(args.q))
    witness = grpalg.finitecondi_witness(args.q, g)
    lines = [
        f"witness over F_{args.q} for g = {g}:",
        f"  r = {witness.r}, a = {witness.a.render()}, b = {witness.b.render()}",
        f"  g(ab) = {witness.g_of_ab.render()} (g(r) = {witness.g_of_r})",
    ]
    return {"g": str(g), **witness.to_dict()}, lines, 1  # a witness was found and printed


def cmd_standard_poly(args) -> Output:
    mode = args.mode or "exhaustive"
    if args.elements:
        _options(args, False, "standard-poly --elements", mode=None, samples=None, seed=None)
    options = _options(args, mode == "sampled", "exhaustive standard-poly", samples=100000, seed=0)
    field = Field(args.field)
    algebra = _algebra_from(args.algebra, field)
    if args.elements:
        elems = []
        for chunk in args.elements.split(";"):
            try:
                coeffs = [parse_int(tok) for tok in chunk.split(",")]
            except ValueError:
                raise InvalidParameter(
                    f"--elements coefficients must be integers, got {chunk!r}"
                ) from None
            elems.append(algebra.elem(coeffs))
        value = grpalg.standard_poly(args.k, elems)
        record = {
            "algebra": algebra.name,
            "k": args.k,
            "elements": [e.render() for e in elems],
            "value": value.render(),
            "zero": value.is_zero,
        }
        return record, [f"S_{args.k} = {value.render()}"], 0
    if mode == "exhaustive":
        result = grpalg.standard_poly_exhaustive(algebra, k=args.k)
    else:
        result = grpalg.standard_poly_sampled(algebra, k=args.k, **options)
    verdict = {True: "vanishes", False: "does not vanish", None: "inconclusive"}[result.holds]
    return _check(
        {"algebra": algebra.name, "k": args.k, "mode": mode},
        f"S_{args.k} on {algebra.name} ({mode}): {verdict} over {result.checked} tuples",
        result,
    )


# -- parser -------------------------------------------------------------------


ALGEBRA_SPEC = "m2 | sqzero1 | sqzero2 | group:SPEC | group-file:PATH | file:PATH"


def integer(text: str) -> int:
    """The type of the integer options: ASCII digits after an optional ``-``.
    argparse names it in its "invalid integer value" error."""
    return parse_int(text)


def natural(text: str) -> int:
    """The type of ``--seed``: ASCII digits only."""
    if not is_digits(text):
        raise argparse.ArgumentTypeError(f"seeds are non-negative integers, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpifc", allow_abbrev=False,
        description="Exact verification toolkit for Laurent polynomial identities of unit groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, expr=False, field=True, seed=False, units=False, timings=False):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        if expr:
            p.add_argument("expr")
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        if timings:
            p.add_argument("--timings", action="store_true", help="add the wall-clock duration to JSON")
        if field:
            p.add_argument("--field", type=integer, default=0, metavar="Q",
                           help="coefficient field: 0 for the rationals, a prime p for F_p")
        if seed:
            p.add_argument("--seed", type=natural, default=0)
        if units:
            p.add_argument("--units", choices=("primary", "alternate", "swapped"),
                           default="primary")
        return p

    command("word", cmd_word, "invariants of a word", expr=True, field=False)
    command("obstruct", cmd_obstruct, "obstruction matrix of a Laurent polynomial", expr=True)
    command("eval", cmd_eval, "evaluate a Laurent polynomial at a unit pair", expr=True, units=True)
    command("in-l", cmd_in_l, "decompose an a,b-expression and test membership in L", expr=True)

    p = command("extract-g", cmd_extract_g, "extract the witness polynomial from a falsified input",
                expr=True, units=True)
    p.add_argument("--conj-bound", type=integer, default=3)

    p = command("thekey", cmd_thekey, "solve the conjugation membership system")
    p.add_argument("--degree-bound", type=integer, default=4)

    p = command("expand", cmd_expand, "truncated power-series expansion", expr=True)
    p.add_argument("--trunc", type=integer, default=None, help="total-degree truncation bound")

    p = command("verify-tables", cmd_verify_tables, "leading-term table campaign", timings=True)
    p.add_argument("--cmax", type=integer, default=3)

    p = command("support3", cmd_support3, "three-term-support falsification campaign", seed=True,
                timings=True)
    p.add_argument("--cmax", type=integer, default=2)
    p.add_argument("--coeff-samples", type=integer, default=5)

    p = command("cprime-bound", cmd_cprime_bound, "alternate-pair degree bound campaign", seed=True,
                timings=True)
    p.add_argument("--cmax", type=integer, default=3)
    p.add_argument("--samples", type=integer, default=50)

    p = command("grpalg", cmd_grpalg, "finite-algebra tools: info, falsify, predicates", seed=True)
    # --group S, --group-file P and --algebra-file P spell --algebra group:S,
    # group-file:P and file:P.
    spec = p.add_mutually_exclusive_group()
    spec.add_argument("--algebra", help=ALGEBRA_SPEC)
    spec.add_argument("--group", dest="algebra", type="group:".__add__, metavar="GROUP",
                      help="group spec, e.g. cyclic:6, sym:3, quaternion8, cyclic:2xcyclic:2")
    spec.add_argument("--group-file", dest="algebra", type="group-file:".__add__,
                      metavar="GROUP_FILE", help="permutation-generator group file")
    spec.add_argument("--algebra-file", dest="algebra", type="file:".__add__,
                      metavar="ALGEBRA_FILE", help="structure-constant file")
    task = p.add_mutually_exclusive_group()
    task.add_argument("--lpi", help="Laurent polynomial to falsify on the unit group")
    task.add_argument("--predicates", action="store_true", help="idempotent/normalizer predicates")
    # Here and in p1, bac and standard-poly, the options that some runs do
    # not read stay None unless given; the handler's _options call gives
    # them their defaults or rejects them.
    p.add_argument("--trials", type=integer)
    p.set_defaults(seed=None)

    for name, func, help in (("p1", cmd_p1, "square-zero vanishing check g(ab) = 0"),
                             ("bac", cmd_bac, "zero-product chain check h(bacr) = 0 with h = T*g")):
        p = command(name, func, help, seed=True)
        p.add_argument("--algebra", required=True, help=ALGEBRA_SPEC)
        p.add_argument("--g", required=True, help="one-variable polynomial, e.g. 'T^2'")
        p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
        p.add_argument("--samples", type=integer)
        p.set_defaults(seed=None)

    p = command("finitecondi", cmd_finitecondi,
                "matrix witness r, a = r*e12, b = e21 with g(ab) != 0", field=False)
    p.add_argument("--q", type=integer, required=True, help="prime field size")
    p.add_argument("--g", required=True)

    p = command("standard-poly", cmd_standard_poly, "standard polynomial S_k evaluation and sweeps",
                seed=True)
    p.add_argument("--algebra", required=True, help=ALGEBRA_SPEC)
    p.add_argument("--k", type=integer, default=4)
    p.add_argument("--mode", choices=("exhaustive", "sampled"))
    p.add_argument("--samples", type=integer)
    p.add_argument("--elements", help="semicolon-separated coefficient vectors to evaluate at")
    p.set_defaults(seed=None)

    return parser


# Building the parser costs about as much as a small query, so one process
# builds it once; parsing does not change it.
_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        record, lines, code = args.func(args)
        print(json.dumps(record, sort_keys=True, indent=2) if args.json else "\n".join(lines))
        return code
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
