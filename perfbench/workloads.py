"""The four benchmark workloads as lists of operations on public lpifc calls.

A pass of a workload runs its operation list once, in a fresh interpreter.
Every operation carries its own correctness check; the expected values of
the campaign and algebra checks below were recorded at the seed commit (they
do not depend on the benchmark seed), and the query outputs are recorded in
``queries.json`` by ``record.py``.

lpifc is imported only inside the builders, which run in the worker: the
parent runner imports this module for the workload names and never imports
lpifc itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
QUERIES_FILE = HERE / "queries.json"

WORKLOADS = ("tables", "support3", "algebra", "queries")

# Seeded obstruction-consistency samples per tables pass (C <= 4 over F5).
CONSISTENCY_SAMPLES = 100
# Seeded coefficient pairs per word pair in the support3 pass over Q.
SUPPORT3_Q_SAMPLES = 5
# Seeded tuples in the sampled standard-polynomial check of the algebra pass.
STANDARD_POLY_SAMPLES = 20000


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # Returns None when the result is right, else what was wrong.
    check: Callable[[object], str | None]
    timeout_s: float
    # How many checks the operation performed: campaign items or tuples.
    checked: Callable[[object], int] = attrgetter("checked")


def _campaign(expected_checked: int):
    def check(report) -> str | None:
        if report.failed != 0:
            return f"{report.failed} campaign failures, first {report.failures[0]}"
        if report.checked != expected_checked or report.passed != expected_checked:
            return f"checked {report.checked} passed {report.passed}, expected {expected_checked}"
        return None
    return check


def _algebra(holds: bool, checked: int):
    def check(result) -> str | None:
        if result.holds != holds or result.checked != checked:
            return (f"holds={result.holds} checked={result.checked}, "
                    f"expected holds={holds} checked={checked}")
        return None
    return check


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """One in-process CLI invocation; returns the exit code and stdout bytes."""
    from lpifc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue().encode()


def _query(entry: dict) -> Op:
    def check(outcome) -> str | None:
        rc, stdout = outcome
        digest = hashlib.sha256(stdout).hexdigest()
        if rc != entry["exit"] or digest != entry["sha256"]:
            return (f"{entry['argv']}: exit {rc} sha256 {digest[:12]}, "
                    f"expected exit {entry['exit']} sha256 {entry['sha256'][:12]}")
        return None
    return Op(entry["id"], lambda: run_cli(entry["argv"]), check, 20.0, lambda _: 1)


def load_queries() -> dict:
    return json.loads(QUERIES_FILE.read_text())


def tables(seed: int) -> list[Op]:
    from lpifc.exactalg import Field
    from lpifc.search import verify_obstruction_consistency, verify_tables

    return [
        Op("verify_tables C<=5 Q", lambda: verify_tables(5, Field(0)),
           _campaign(2046), 120.0),
        Op("obstruction_consistency C<=4 F5",
           lambda: verify_obstruction_consistency(CONSISTENCY_SAMPLES, 4, Field(5), seed=seed),
           _campaign(CONSISTENCY_SAMPLES), 60.0),
    ]


def support3(seed: int) -> list[Op]:
    from lpifc.exactalg import Field
    from lpifc.search import support3_campaign

    return [
        Op("support3 C<=3 F2", lambda: support3_campaign(3, [Field(2)], seed=seed),
           _campaign(7875), 60.0),
        # 30 words of cumulus <= 2 give 435 pairs, each with the sampled pairs.
        Op("support3 C<=2 Q",
           lambda: support3_campaign(2, [Field(0)], coeff_samples=SUPPORT3_Q_SAMPLES, seed=seed),
           _campaign(435 * SUPPORT3_Q_SAMPLES), 60.0),
    ]


def algebra(seed: int) -> list[Op]:
    from lpifc import grpalg
    from lpifc.exactalg import Field, UniPoly

    f2, f3 = Field(2), Field(3)

    def p1_c5():
        return grpalg.p1_check(grpalg.group_algebra(grpalg.cyclic_group(5), f3),
                               UniPoly.parse("T^2", f3))

    def bac_sqzero2():
        return grpalg.bac_check(grpalg.square_zero_algebra(f3, 2), UniPoly.parse("T^2", f3))

    def sk_sampled_c4():
        # F3[C4] is commutative, so S_4 vanishes on every sampled tuple.
        return grpalg.standard_poly_sampled(grpalg.group_algebra(grpalg.cyclic_group(4), f3),
                                            4, STANDARD_POLY_SAMPLES, seed=seed)

    def sk_exhaustive_s3():
        return grpalg.standard_poly_exhaustive(
            grpalg.group_algebra(grpalg.symmetric_group(3), f2), k=3)

    return [
        # F3[C5] is semisimple: only 0 squares to zero, so one pair is checked.
        Op("p1_check F3[C5] T^2", p1_c5, _algebra(True, 1), 120.0),
        Op("bac_check sqzero2 F3 T^2", bac_sqzero2, _algebra(True, 492075), 60.0),
        Op("standard_poly_sampled F3[C4] k=4", sk_sampled_c4,
           _algebra(True, STANDARD_POLY_SAMPLES), 60.0),
        Op("standard_poly_exhaustive F2[S3] k=3", sk_exhaustive_s3,
           _algebra(False, 64**3), 60.0),
    ]


def query_plan(seed: int, catalogue: dict) -> list[dict]:
    """The seeded query list of one pass.

    Each kind contributes a fixed number of queries.  Its catalogue entries
    are stored in order of recorded cost and cut into that many equal bins;
    the seed picks one entry per bin, so every seed draws the same cost mix
    and no entry repeats within a pass.  The seed also fixes the order.
    """
    rng = random.Random(seed)
    plan = []
    for kind in catalogue["kinds"]:
        entries = [e for e in catalogue["entries"] if e["kind"] == kind["name"]]
        size = len(entries) // kind["per_pass"]
        for b in range(kind["per_pass"]):
            plan.append(rng.choice(entries[b * size:(b + 1) * size]))
    rng.shuffle(plan)
    return plan


def queries(seed: int) -> list[Op]:
    return [_query(e) for e in query_plan(seed, load_queries())]


def probe(workload: str) -> Op:
    """The first query a user of this workload runs: one small CLI call."""
    return _query(load_queries()["probes"][workload])


BUILDERS = {"tables": tables, "support3": support3, "algebra": algebra, "queries": queries}
