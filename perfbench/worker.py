"""One pass of one workload in a fresh interpreter (started by ``run.py``).

Usage:
    python3 perfbench/worker.py --workload tables --seed 1 [--trace SPANS]
    python3 perfbench/worker.py --workload queries --probe

A pass runs the workload's operations once, times each one, checks its
result and prints one JSON object on stdout.  ``--probe`` runs only the
workload's first small CLI query and prints as soon as it completes, so the
parent can time interpreter start, imports and the first query together.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

import lpifc.cli  # noqa: E402,F401  (the import users pay for: lpifc and numpy)
import workloads  # noqa: E402

# Reference timings taken after a probe's first query, after PROBE_WARMUP
# untimed runs that warm the interpreter's specialised bytecode.
PROBE_WARMUP = 3
PROBE_SAMPLES = 10


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("operation timed out")


def reference_work() -> None:
    """A fixed pure-Python task with the instruction mix of lpifc's hot
    paths: Fraction and modular int arithmetic, tuple keys, dict updates."""
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    table: dict = {}
    for i in range(3000):
        key = (i % 61, i % 7)
        table[key] = (table.get(key, 0) + i * i) % 1000003


class SpeedSampler:
    """Times ``reference_work`` every SAMPLE_CPU_S of CPU time, from a
    SIGPROF handler, so the machine's speed is sampled all through a pass.
    The sampling time is recorded so that callers can take it back out, and
    a tracer's clock is held still while a sample runs.  The garbage
    collector is off during a sample, so that a large heap left by the code
    under test does not slow the reference task."""

    SAMPLE_CPU_S = 0.2

    def __init__(self, tracer=None):
        self.ref_ms: list[float] = []
        # perf_counter() at the middle of each sample.
        self.ref_at: list[float] = []
        self.spent_s = 0.0
        self.tracer = tracer

    def sample(self, *_):
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        if gc_was_on:
            gc.enable()
        self.ref_ms.append((t1 - t0) * 1000)
        self.ref_at.append((t0 + t1) / 2)
        self.spent_s += t1 - t0
        if self.tracer:
            self.tracer.paused_ns += round((t1 - t0) * 1e9)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.SAMPLE_CPU_S, self.SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)


def run_ops(ops, tracer=None, sampler=None) -> dict:
    """Run, time and check each operation.  Latencies exclude the time the
    sampler's handler spent inside the operation."""
    signal.signal(signal.SIGALRM, _alarm)
    bench_op = tracer.name_id("bench.op") if tracer else None
    lat_ms, op_at, errors = [], [], []
    failed = checks = stdout_bytes = 0
    spent = (lambda: sampler.spent_s) if sampler else (lambda: 0.0)
    start, start_spent = time.perf_counter(), spent()
    for op in ops:
        signal.setitimer(signal.ITIMER_REAL, op.timeout_s)
        sid = tracer.open(bench_op) if tracer else None
        t0, s0 = time.perf_counter(), spent()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # every failure is counted, none dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, s1 = time.perf_counter(), spent()
        if tracer:
            tracer.close(sid, bench_op)
        signal.setitimer(signal.ITIMER_REAL, 0)
        lat_ms.append((t1 - t0 - (s1 - s0)) * 1000)
        op_at.append((t0, t1))
        if error is None:
            error = op.check(result)
        if error is None:
            checks += op.checked(result)
            if isinstance(result, tuple):
                stdout_bytes += len(result[1])
        else:
            failed += 1
            errors.append(f"{op.name}: {error}")
    wall_s = time.perf_counter() - start - (spent() - start_spent)
    return {
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:5],
        "lat_ms": lat_ms,
        "op_at": op_at,
        "wall_s": wall_s,
        "checks": checks,
        "stdout_bytes": stdout_bytes,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", metavar="SPANS",
                    help="trace the pass and write its span table to this file")
    args = ap.parse_args()

    if args.probe:
        out = run_ops([workloads.probe(args.workload)])
        # CLOCK_MONOTONIC is shared by all processes, so the parent can
        # subtract its own start time from this.
        out["done_at"] = time.monotonic()
        sampler = SpeedSampler()
        for _ in range(PROBE_WARMUP):
            reference_work()
        for _ in range(PROBE_SAMPLES):
            sampler.sample()
    elif args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        # Before the operations are built, so that they bind traced names.
        tr.install(tracer)
        with SpeedSampler(tracer) as sampler:
            out = run_ops(workloads.BUILDERS[args.workload](args.seed), tracer, sampler)
        tracer.counters["checks"] = out["checks"]
        tracer.counters["cli.stdout_bytes"] = out["stdout_bytes"]
        out["layers"] = tr.layer_metrics(tracer)
        tr.write_spans(tracer, args.trace, {"workload": args.workload, "seed": args.seed})
    else:
        with SpeedSampler() as sampler:
            out = run_ops(workloads.BUILDERS[args.workload](args.seed), sampler=sampler)
    out["ref_ms"], out["ref_at"] = sampler.ref_ms, sampler.ref_at
    import numpy

    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["numpy"] = numpy.__version__
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
