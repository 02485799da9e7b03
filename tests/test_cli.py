"""CLI surface: exit codes, JSON schemas, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from lpifc import fcrep
from lpifc.cli import main
from lpifc.exactalg import Field, Mat2Poly

# Exact stdout and exit codes. The `eval` and `verify-tables` --json entries
# were recorded with the Mat2Poly evaluation route (commit 0676dcd) before
# word images moved to the raw-coefficient kernel; the `thekey` entries, in
# text and --json, with the linear-form conjugation system (commit 02e2f67)
# before it was rebuilt from conjugated matrix units. The entries of every
# subcommand that parses a word, Laurent, a/b or T input (with stderr too)
# were recorded with one signed-term loop per grammar (commit 71d13b0)
# before the grammars were folded into `parsing.parse_terms`. The `support3`,
# `cprime-bound`, `grpalg` and `standard-poly` entries (with stderr) were
# recorded with the separate raw-coefficient evaluation kernel (commit
# 5f57f23) before `UniPoly`/`Mat2Poly` took over its arithmetic. The entries
# for negative sample and trial counts, `standard-poly --samples 0`, `--k 0`
# and malformed `--elements` were recorded once those cases became usage
# errors (exit 2) or an inconclusive verdict. The `standard-poly` entries for
# `group:sym:3 --field 2 --k 3`, `m2 --field 3 --k 3`, the sampled
# `m2 --field 3 --k 4 --samples 50000 --seed 7` and the `group:cyclic:6
# --field 3 --k 3` rejection were recorded at commit ddba5ab, where S_k built
# every tuple up front, before the chunked scan; the `--samples 16777217`
# rejection was recorded once the sampled count became bounded. The `expand`
# entries for `X*Y*X^-1*Y^-1 - 1 --trunc 1`, `X^-2 + Y^3 --trunc 0` and
# `X^-1*Y^2*X - Y --field 2 --trunc 5` were recorded at commit 472229a, where
# the truncated series kept one NCPoly per multidegree. The entries for
# `cprime-bound --cmax 0` and `--cmax -1`, the missing `grpalg` and `p1`
# input files, `grpalg --algebra m2` and `grpalg` with two algebra flags were
# recorded once those cases became usage errors or reachable (each ended in
# a traceback before). The last one records no stderr: argparse wraps its
# usage line to the terminal width. The `standard-poly --k 9 --elements`
# rejection was recorded once k! became bounded. The `eval` entries for
# `X^120 - 1`, `X^40*Y*X^-40*Y^-1 - 1 --units alternate` and `Y^90 - 1
# --field 3 --units swapped` (with stderr) were recorded at commit 9b15281,
# where every block power went by binary powering, before large powers
# went by Cayley-Hamilton. The text-mode `eval` entries for `X - X` and
# `X*Y - Y*X --field 3 --units alternate`, the text-mode `verify-tables --cmax
# 2 --field 3` entry and the `extract-g ... --conj-bound 0` inconclusive
# entries, in text and --json, were recorded at commit d16055d, where every
# handler printed its own output, before `main` became the one print site.
# The `grpalg` entries for `dihedral:4`, `quaternion8 --predicates` and
# `cyclic:2xsym:3` were recorded at commit e01384c, where each group builder
# wrote its own table loop. The sampled `bac --field 3 --samples 200 --seed 5`
# and `p1 --field 3 --samples 40 --seed 2` entries and the `p1` entries on
# `group:cyclic:12` and `group:sym:3xcyclic:2` (above the index-table bound)
# were recorded at commit 012ba58, where each of those routes had a loop of
# its own. The `p1` entries on `group:cyclic:2xcyclic:2xcyclic:2`, whose
# table scan of 16,384 pairs (four chunks) fails in its first chunk, were
# recorded at commit 2192625, where a failing scan still evaluated every
# tuple after its witness. The `cprime-bound --cmax 40` entries were recorded
# once the words of weight <= c_max became bounded.
GOLDEN_ALL = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
GOLDEN_THEKEY = [c for c in GOLDEN_ALL if c["argv"][0] == "thekey"]
EVALUATIONS = ("eval", "verify-tables")
GOLDEN = [c for c in GOLDEN_ALL if c["argv"][0] in EVALUATIONS]
CAMPAIGNS_AND_ALGEBRAS = ("support3", "cprime-bound", "grpalg", "standard-poly")
GOLDEN_CAMPAIGNS = [c for c in GOLDEN_ALL if c["argv"][0] in CAMPAIGNS_AND_ALGEBRAS]
GOLDEN_PARSED = [
    c for c in GOLDEN_ALL
    if "stderr" in c and c["argv"][0] not in CAMPAIGNS_AND_ALGEBRAS + EVALUATIONS
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_word_invariants(capsys):
    code, record, _ = run_json(capsys, "word", "X*Y^-1")
    assert code == 0
    assert record == {
        "word": "X*Y^-1",
        "B": "X",
        "E": "Y^-1",
        "N": 1,
        "M": 0,
        "sgn": -1,
        "C": 2,
        "Cprime": 2,
    }


def test_obstruct_commutator(capsys):
    code, record, _ = run_json(capsys, "obstruct", "X*Y - Y*X")
    assert code == 1  # certificate found
    assert record["matrix"] == [["0", "1"], ["0", "0"]]
    assert record["verdict"].startswith("NOT an LPI")


def test_obstruct_inconclusive(capsys):
    # X^2 and X*Y^-1*X share cumulus 2, beginning X, end X, and sign +1, so
    # their difference has a vanishing obstruction matrix
    code, record, _ = run_json(capsys, "obstruct", "X^2 - X*Y^-1*X")
    assert code == 0
    assert record["nonzero"] is False
    assert record["verdict"] == "no obstruction found (inconclusive)"


def test_eval_exit_codes(capsys):
    code, record, _ = run_json(capsys, "eval", "X - 1")
    assert code == 1 and record["nonzero"]
    code, record, _ = run_json(capsys, "eval", "X - X")
    assert code == 0 and not record["nonzero"]


def test_eval_units_flag(capsys):
    code, record, _ = run_json(capsys, "eval", "X - 1", "--units", "alternate")
    assert code == 1
    assert record["units"] == "alternate"


def test_in_l(capsys):
    code, record, _ = run_json(capsys, "in-l", "a*b - b*a")
    assert code == 0
    assert record["in_l"] is False
    code, record, _ = run_json(capsys, "in-l", "1 - 1")
    assert record["in_l"] is True


def test_extract_g(capsys):
    code, record, _ = run_json(capsys, "extract-g", "X - 1")
    assert code == 1
    assert record["g"] == "T^2"
    assert record["sigma"] == "a" and record["tau"] == "ab"


def test_thekey(capsys):
    code, record, _ = run_json(capsys, "thekey", "--field", "3")
    assert code == 0
    assert record["zero_space"] is True
    relations = {r["relation"]: r["holds"] for r in record["relations"]}
    assert relations == {"C = 0": True, "A = D": True, "B = -(1+T)*A": True}


def test_expand(capsys):
    code, record, _ = run_json(capsys, "expand", "X*Y*X^-1*Y^-1 - 1", "--trunc", "4")
    assert code == 0
    assert record["minimal_degree"] == 2
    assert record["components"]["1,1"] == "X*Y - Y*X"


def test_verify_tables(capsys):
    code, record, _ = run_json(capsys, "verify-tables", "--cmax", "2", "--field", "3")
    assert code == 0
    assert record["failed"] == 0


def test_support3(capsys):
    code, record, _ = run_json(capsys, "support3", "--cmax", "2", "--field", "2")
    assert code == 0
    assert record["failed"] == 0
    assert record["checked"] > 0


def test_cprime_bound(capsys):
    code, record, _ = run_json(capsys, "cprime-bound", "--cmax", "2")
    assert code == 0
    assert record["failed"] == 0


def test_grpalg_info_and_falsify(capsys):
    code, record, _ = run_json(capsys, "grpalg", "--group", "sym:3", "--field", "2")
    assert code == 0
    assert record["dim"] == 6
    code, record, _ = run_json(
        capsys, "grpalg", "--group", "sym:3", "--field", "2", "--lpi", "X*Y - Y*X"
    )
    assert code == 1
    assert record["found"] is True
    code, record, _ = run_json(
        capsys, "grpalg", "--group", "cyclic:6", "--field", "2", "--lpi", "X*Y - Y*X"
    )
    assert code == 0
    assert record["found"] is False


def test_grpalg_predicates(capsys):
    code, record, _ = run_json(capsys, "grpalg", "--group", "cyclic:4", "--field", "3", "--predicates")
    assert code == 0
    assert record["all_idempotents_central"] is True


def test_p1_and_bac(capsys):
    code, record, _ = run_json(
        capsys, "p1", "--algebra", "sqzero2", "--field", "2", "--g", "T^2"
    )
    assert code == 0 and record["holds"]
    code, record, _ = run_json(capsys, "p1", "--algebra", "m2", "--field", "2", "--g", "T")
    assert code == 1 and not record["holds"]
    code, record, _ = run_json(
        capsys, "bac", "--algebra", "sqzero2", "--field", "2", "--g", "T^2"
    )
    assert code == 0 and record["holds"]


def test_finitecondi(capsys):
    code, record, _ = run_json(capsys, "finitecondi", "--q", "2", "--g", "T")
    assert code == 1  # witness found and printed
    assert record["r"] == "1"
    assert record["g_of_ab"] == "e11"


def test_standard_poly(capsys):
    code, record, _ = run_json(
        capsys, "standard-poly", "--algebra", "m2", "--field", "2", "--k", "4"
    )
    assert code == 0 and record["holds"]
    code, record, _ = run_json(
        capsys,
        "standard-poly", "--algebra", "m2", "--field", "2", "--k", "2",
        "--elements", "1,0,0,0;0,1,0,0",
    )
    assert code == 0
    assert record["value"] == "e12"


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "word", "X*Z")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "grpalg", "--field", "2")
    assert code == 2


def test_parser_is_built_once_and_reused(capsys):
    from lpifc import cli

    assert cli._parser() is cli._parser()
    p1 = ("p1", "--algebra", "sqzero1", "--field", "2", "--g", "T^2")
    _, record, _ = run_json(capsys, *p1, "--mode", "sampled", "--samples", "3")
    assert record["mode"] == "sampled"
    # an option given in one call does not leak into the next
    _, record, _ = run_json(capsys, *p1)
    assert record["mode"] == "exhaustive"


def test_json_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "support3", "--cmax", "1", "--field", "3", "--seed", "9", "--json")
    _, out2, _ = run(capsys, "support3", "--cmax", "1", "--field", "3", "--seed", "9", "--json")
    assert out1 == out2
    _, det1, _ = run(capsys, "verify-tables", "--cmax", "2", "--field", "5", "--json")
    _, det2, _ = run(capsys, "verify-tables", "--cmax", "2", "--field", "5", "--json")
    assert det1 == det2


# One argv that runs for each subcommand; only the campaigns take --timings.
CAMPAIGN_RUNS = {
    "verify-tables": ["--cmax", "1"],
    "support3": ["--cmax", "1", "--field", "2"],
    "cprime-bound": ["--cmax", "1", "--field", "2", "--samples", "3"],
}
UNTIMED_RUNS = {
    "word": ["X*Y"],
    "obstruct": ["X*Y - Y*X"],
    "eval": ["X - 1"],
    "in-l": ["a*b"],
    "extract-g": ["X - 1"],
    "thekey": ["--degree-bound", "1"],
    "expand": ["X - 1", "--trunc", "2"],
    "grpalg": ["--group", "cyclic:2", "--field", "2"],
    "p1": ["--algebra", "m2", "--field", "2", "--g", "T"],
    "bac": ["--algebra", "sqzero1", "--field", "2", "--g", "T"],
    "finitecondi": ["--q", "2", "--g", "T"],
    "standard-poly": ["--algebra", "m2", "--field", "2", "--k", "2"],
}


def test_timings_is_declared_on_the_campaigns_only():
    import argparse

    from lpifc.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(CAMPAIGN_RUNS) | set(UNTIMED_RUNS)
    timed = {name for name, p in sub.choices.items() if "--timings" in p._option_string_actions}
    assert timed == set(CAMPAIGN_RUNS)


@pytest.mark.parametrize("command", UNTIMED_RUNS)
def test_timings_is_a_usage_error_outside_the_campaigns(capsys, command):
    argv = [command, *UNTIMED_RUNS[command]]
    assert run(capsys, *argv)[0] in (0, 1)
    code, out, err = run(capsys, *argv, "--timings")
    assert (code, out) == (2, "")
    # argparse hands an option that no subparser declares back to the top
    # parser, which prints its own usage line.
    assert err.startswith("usage: lpifc ")
    assert err.endswith("lpifc: error: unrecognized arguments: --timings\n")


@pytest.mark.parametrize("command", CAMPAIGN_RUNS)
def test_timings_adds_only_the_duration(capsys, command):
    argv = [command, *CAMPAIGN_RUNS[command]]
    _, untimed, _ = run_json(capsys, *argv)
    _, timed, _ = run_json(capsys, *argv, "--timings")
    duration = timed.pop("duration_ms")
    assert isinstance(duration, float) and duration >= 0
    assert timed == untimed


def test_report_schema(capsys):
    _, record, _ = run_json(capsys, "verify-tables", "--cmax", "1", "--timings")
    assert set(record) == {
        "campaign",
        "params",
        "checked",
        "passed",
        "failed",
        "failures",
        "seed",
        "duration_ms",
    }
    assert record["failed"] == len(record["failures"])


def test_grpalg_group_file(tmp_path, capsys):
    path = tmp_path / "s3.grp"
    path.write_text("perm-group\ndegree 3\ngen 1 0 2\ngen 1 2 0\n")
    code, record, _ = run_json(
        capsys, "grpalg", "--group-file", str(path), "--field", "2", "--lpi", "X*Y - Y*X"
    )
    assert code == 1 and record["found"]


def test_grpalg_algebra_file(tmp_path, capsys):
    path = tmp_path / "dual.alg"
    path.write_text(
        "algebra\ndim 2\nlabel 0 1\nlabel 1 x\nunity 1 0\n"
        "sc 0 0 0 1\nsc 0 1 1 1\nsc 1 0 1 1\n"
    )
    code, record, _ = run_json(capsys, "grpalg", "--algebra-file", str(path), "--field", "2")
    assert code == 0 and record["dim"] == 2


def test_grpalg_algebra_flags_are_spellings_of_one_spec(tmp_path, capsys):
    path = tmp_path / "s3.grp"
    path.write_text("perm-group\ndegree 3\ngen 1 0 2\ngen 1 2 0\n")
    spellings = [
        (["--group", "sym:3"], ["--algebra", "group:sym:3"]),
        (["--group-file", str(path)], ["--algebra", f"group-file:{path}"]),
    ]
    for flag, spec in spellings:
        assert run(capsys, "grpalg", *flag, "--field", "2") == run(capsys, "grpalg", *spec, "--field", "2")
    code, out, err = run(capsys, "grpalg", "--group", "sym:3", "--algebra", "m2")
    assert (code, out) == (2, "")
    assert err.endswith("lpifc grpalg: error: argument --algebra: not allowed with argument --group\n")


def test_abbreviated_flags_are_rejected(capsys):
    # --alg once read as --algebra-file, --gro as --group
    for argv in (["grpalg", "--alg", "m2"], ["grpalg", "--gro", "sym:3"], ["word", "X", "--js"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


def test_every_input_error_is_a_usage_error():
    from lpifc import errors

    classes = {name: obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    bugs = {name for name, cls in classes.items() if not issubclass(cls, errors.UsageError)}
    assert bugs == {"DecompositionFailure", "InternalError", "StillInL"}
    assert len(classes) - len(bugs) == 14  # UsageError and its 13 subclasses


# Planted bugs, one per raise of InternalError or its subclass.


def _swap_beta_for_alpha(mp):
    # u = (1+aba)(1+a) misses the fixed display of the primary u
    mp.setattr(fcrep, "phi_beta", fcrep.phi_alpha)


def _shear_conjugator(mp):
    # lower-left constant 1: its conjugates leave the represented image
    mp.setattr(fcrep, "default_conjugators",
               lambda field: [("shear", Mat2Poly.from_scalars(field, ((1, 0), (1, 1))))])


def _zero_ab(mp):
    # ab maps to zero, so no sigma*r*tau route of extract-g is nonzero
    image = fcrep.phi_monomial
    mp.setattr(fcrep, "phi_monomial", lambda mon, field: (
        Mat2Poly.zero(field) if tuple(mon) == (0, 1) else image(mon, field)))


def _no_field_elements(mp):
    mp.setattr(Field, "elements", lambda self: iter(()))


PLANTED_BUGS = {
    "unit-pair display": (_swap_beta_for_alpha, ["eval", "X - 1"], "primary u = "),
    "decomposition": (_shear_conjugator, ["thekey", "--degree-bound", "1"], "lower-left entry"),
    "no sigma, tau": (_zero_ab, ["extract-g", "X - 1"], "no sigma, tau"),
    "no witness": (_no_field_elements, ["finitecondi", "--q", "3", "--g", "T"], "every field"),
}


@pytest.mark.parametrize("bug", PLANTED_BUGS)
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_every_bug_signal_exits_2(capsys, monkeypatch, bug, json_flag):
    plant, argv, message = PLANTED_BUGS[bug]
    plant(monkeypatch)
    code, out, err = run(capsys, *argv, *json_flag)
    assert (code, out) == (2, "")
    assert err.startswith(f"internal error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


# Each number, with the index of its first character that is not an ASCII
# digit: str.isdigit takes the first three, int takes all four.
@pytest.mark.parametrize("number, bad", [("²", 0), ("٣", 0), ("１", 0), ("1_0", 1)])
def test_numbers_take_ascii_digits_only(capsys, tmp_path, number, bad):
    at = f"(at offset {2 + bad})"  # after "X^" or "T^"
    cases = [
        (["word", f"X^{number}"], at),
        (["obstruct", f"X^{number}"], at),
        (["eval", f"X^{number} - 1"], at),
        (["p1", "--algebra", "m2", "--field", "3", "--g", f"T^{number}"], at),
        (["standard-poly", "--algebra", "m2", "--field", "3", "--k", "2",
          "--elements", f"1,0,0,0;0,{number},0,0"], f"got '0,{number},0,0'"),
        (["grpalg", "--group", f"cyclic:{number}", "--field", "2"], f"'cyclic:{number}'"),
    ]
    files = (f"algebra\ndim {number}\nunity 1 0\n",
             f"algebra\ndim 1\nunity {number}\n",
             f"algebra\ndim 1\nunity 1\nsc 0 0 0 1/{number}\n")
    for line, text in enumerate(files, 2):
        alg = tmp_path / f"bad{line}.alg"
        alg.write_text(text)
        cases.append((["grpalg", "--algebra-file", str(alg), "--field", "3"], f"(at line {line})"))
    for argv, where in cases:
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *json_flag)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and where in err and err.count("\n") == 1, argv


# A value that got past argparse would run: F4 is not a prime field, so the
# --cmax case then ends at once, with an error that is not a usage line.
INTEGER_OPTIONS = {
    "--field": ["obstruct", "X"],
    "--cmax": ["verify-tables", "--field", "4"],
    "--samples": ["p1", "--algebra", "sqzero1", "--field", "2", "--g", "T", "--mode", "sampled"],
}


@pytest.mark.parametrize("option", INTEGER_OPTIONS)
@pytest.mark.parametrize("number", ["٣", "١", "1_0", " 3"])
def test_integer_options_take_ascii_digits_only(capsys, option, number):
    # int takes all four; the integer options read them as parse_int does
    code, out, err = run(capsys, *INTEGER_OPTIONS[option], option, number)
    assert (code, out) == (2, "")
    assert "usage: " in err and f"{option}: invalid integer value: {number!r}" in err


SEEDED = {
    "support3": [],
    "cprime-bound": [],
    "grpalg": ["--group", "cyclic:2", "--field", "2", "--lpi", "X - 1"],
    "p1": ["--algebra", "m2", "--field", "2", "--g", "T", "--mode", "sampled", "--samples", "5"],
    "bac": ["--algebra", "m2", "--field", "2", "--g", "T", "--mode", "sampled", "--samples", "5"],
    "standard-poly": ["--algebra", "m2", "--field", "2", "--k", "2", "--mode", "sampled",
                      "--samples", "5"],
}


@pytest.mark.parametrize("command", SEEDED)
def test_seeds_are_non_negative(capsys, command):
    # random.Random(-7) draws as seed 7, and numpy rejects a negative seed
    code, out, err = run(capsys, command, *SEEDED[command], "--seed", "-7")
    assert (code, out) == (2, "")
    assert "usage: " in err and "--seed: seeds are non-negative integers, got '-7'" in err


P1_M2 = ["--algebra", "m2", "--field", "2", "--g", "T"]
S2_M2 = ["standard-poly", "--algebra", "m2", "--field", "2", "--k", "2"]
UNREAD_OPTIONS = [
    # (argv without the option, the run named in the error, the option)
    *((["p1", *P1_M2, *mode], "exhaustive p1", option)
      for mode in ([], ["--mode", "exhaustive"]) for option in ("--samples", "--seed")),
    *((["bac", "--algebra", "sqzero2", "--field", "2", "--g", "T^2"], "exhaustive bac", option)
      for option in ("--samples", "--seed")),
    *(([*S2_M2, *mode], "exhaustive standard-poly", option)
      for mode in ([], ["--mode", "exhaustive"]) for option in ("--samples", "--seed")),
    *(([*S2_M2, "--elements", "1,0,0,0;0,1,0,0"], "standard-poly --elements", option)
      for option in ("--mode", "--samples", "--seed")),
    *((["grpalg", "--group", "sym:3", "--field", "2", *task], "grpalg without --lpi", option)
      for task in ([], ["--predicates"]) for option in ("--trials", "--seed")),
]


@pytest.mark.parametrize("argv, run_name, option", UNREAD_OPTIONS,
                         ids=[" ".join(argv + [option]) for argv, _, option in UNREAD_OPTIONS])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_options_a_run_does_not_read_are_usage_errors(capsys, argv, run_name, option, json_flag):
    value = "sampled" if option == "--mode" else "3"
    code, out, err = run(capsys, *argv, option, value, *json_flag)
    assert (code, out, err) == (2, "", f"error: {run_name} does not read {option}\n")
    # Without the option, the same argv runs.
    assert run(capsys, *argv, *json_flag)[0] in (0, 1)


def test_grpalg_lpi_and_predicates_exclude_each_other(capsys):
    code, out, err = run(capsys, "grpalg", "--group", "sym:3", "--field", "2",
                         "--lpi", "X*Y - Y*X", "--predicates", "--trials", "5")
    assert (code, out) == (2, "")
    assert "usage: " in err and "--predicates: not allowed with argument --lpi" in err


def test_invalid_field_rejected(capsys):
    code, _, err = run(capsys, "obstruct", "X", "--field", "4")
    assert code == 2
    assert "prime" in err


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_closed_stdout_exits_2(capsys, monkeypatch, json_flag):
    # main prints once, inside the try that maps OSError to exit 2
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    assert main(["word", "X*Y", *json_flag]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_extract_g_rejects_a_negative_conj_bound(capsys):
    # a negative bound would otherwise silently mean "try no conjugator"
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "extract-g", "X-1", "--conj-bound", "-1", *json_flag)
        assert (code, out, err) == (2, "", "error: conj_bound must be non-negative, got -1\n")


@pytest.mark.parametrize(
    "case", GOLDEN,
    ids=lambda c: " ".join(c["argv"][:-1] if c["argv"][-1] == "--json" else c["argv"]),
)
def test_golden_eval_and_verify_tables(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
    if "stderr" in case:
        assert err == case["stderr"]


def test_eval_power_2000_digest(capsys):
    # 4.9 MB of JSON, pinned by its sha256 as binary powering printed it
    code, out, _ = run(capsys, "eval", "X^2000 - 1", "--json")
    assert code == 1
    assert len(out) == 4_882_636
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2b1386e57af0d9216759900f5f5d688c0709e52666d344fa5b0db8cdd1dd2790"
    )


@pytest.mark.parametrize("case", GOLDEN_THEKEY, ids=lambda c: " ".join(c["argv"][1:]))
def test_golden_thekey(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


@pytest.mark.parametrize("case", GOLDEN_PARSED, ids=lambda c: " ".join(c["argv"]))
def test_golden_parsed_inputs(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
    assert err == case["stderr"]


@pytest.mark.parametrize("case", GOLDEN_CAMPAIGNS, ids=lambda c: " ".join(c["argv"]))
def test_golden_campaigns_and_algebras(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
    if "stderr" in case:
        assert err == case["stderr"]


def test_benchmark_query_catalogue_replays(capsys):
    # Every recorded benchmark query and probe, run in process: the exit code
    # and the sha256 of stdout must match the catalogue, which the benchmark
    # checks on every pass.
    catalogue = json.loads(
        (Path(__file__).parent.parent / "perfbench" / "queries.json").read_text()
    )
    assert catalogue["entries"]
    entries = catalogue["entries"] + list(catalogue["probes"].values())
    mismatched = []
    for entry in entries:
        code, out, _ = run(capsys, *entry["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (entry["exit"], entry["sha256"]):
            mismatched.append((entry["id"], code, digest[:12]))
    assert mismatched == []
