"""Benchmark runner for lpifc.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lpifc is imported from ``src/``.
Workloads (see ``workloads.py``):

* ``tables``   -- verify_tables C<=5 over Q plus seeded obstruction-consistency
  samples; the K[T] kernel (exactalg) and word evaluation (fcrep) do the work.
* ``support3`` -- the three-term-support campaign; the obstruction layer
  (laurent) and word invariants (words) do the work, the kernel little.
* ``algebra``  -- exhaustive and sampled finite-algebra checks; grpalg table
  building and the numpy sweeps do the work.
* ``queries``  -- a closed loop with one client making 204 seeded in-process
  ``lpifc.cli.main([..., "--json"])`` calls per pass, 17 of each of twelve
  kinds (an assumed mix; see ``record.py``).

Each pass of a workload runs in a fresh interpreter with a pinned
environment, and passes repeat until ``--seconds`` have elapsed.  Times are
scaled to a reference CPU speed: a fixed pure-Python task timed in the same
process all through the pass (see ``REF_MS``).  Each scaled figure is printed
next to its raw value, and the raw times and reference samples are kept in
the record under ``results/``.  With ``--trace 0`` the runner reports the
end-to-end metrics:

* ``wall_s``       -- median time of one pass (imports excluded);
* ``query_p50_ms``, ``query_p95_ms`` -- percentiles over the operations of a
  pass of each one's median latency over the passes; an operation is one CLI
  query, or one campaign or algebra check in the batch workloads, and its
  latency is scaled by the reference samples taken near it;
* ``peak_rss_mb``  -- median peak resident memory of a pass process;
* ``setup_s``      -- median over seven fresh interpreters of the time from
  process start to the first completed CLI query, imports included (after
  one untimed start that compiles the bytecode).

With ``--trace 1`` passes alternate between untraced and traced, and the
runner reports the per-layer metrics of ``tracer.py`` (medians over the
traced passes, times not scaled), the scaled traced pass time and the
tracing overhead: the median over adjacent pairs of passes of scaled traced
minus scaled untraced pass time.  Every operation's output is
checked; any mismatch, exception or timeout is counted in ``failed`` and makes
the run exit 1.  The last stdout line is the JSON result; a fuller record is
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("query_p50_ms", "ms"), ("query_p95_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_STARTS = 7
# Times are reported at a fixed reference speed: each measured time is
# scaled by REF_MS over the typical time (ref_time) of
# worker.reference_work() sampled throughout the same process.  The CPU
# speed of the shared machine the benchmark was built on varied by up to
# 1.7x from minute to minute; scaled pass times varied by 1-4% where raw
# ones varied by 10-15%.  REF_MS is the reference task's usual time there
# (2 vCPU at 2.0 GHz, Python 3.11.7), so the scaled times read as seconds on
# that machine.  The reference task is pure Python, so it does not follow
# speed changes that touch only numpy.
REF_MS = 2.8
# An operation's latency is scaled by the samples taken while it ran, or by
# the LOCAL_SAMPLES samples nearest its middle if it had fewer.
LOCAL_SAMPLES = 10
# Stop starting passes once a run has used this long (the limit is 180 s).
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 140.0


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {k: pinned_env()[k] for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": "0",
    }


def spawn(argv: list[str], timeout: float) -> tuple[dict | None, float, str]:
    """Run the worker; return its JSON result (None on failure), the time
    from just before process start to its last stdout line, and an error."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=pinned_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, 0.0, f"worker timed out after {timeout:.0f} s"
    try:
        result = json.loads(out.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        return None, 0.0, f"worker exit {proc.returncode}: {err.strip()[-500:]}"
    return result, result.get("done_at", t0) - t0, ""


def ref_time(samples: list[float]) -> float:
    """The mean of the reference samples without their fastest and slowest
    tenth.  The samples are bimodal (on the machine of REF_MS, about 1.8 and
    3.1 ms, mixed in proportions that change from minute to minute), so a
    median jumps between the modes while a mean follows the mix; trimming
    keeps one stalled sample from moving it."""
    cut = len(samples) // 10
    return statistics.mean(sorted(samples)[cut:len(samples) - cut])


def speed(result: dict) -> float:
    """The factor that scales a worker's times to the reference speed."""
    return REF_MS / ref_time(result["ref_ms"])


def op_speeds(result: dict) -> list[float]:
    """The factor for each operation of a pass, from the samples near it."""
    samples = list(zip(result["ref_at"], result["ref_ms"]))
    factors = []
    for t0, t1 in result["op_at"]:
        near = [ms for at, ms in samples if t0 <= at <= t1]
        if len(near) < LOCAL_SAMPLES:
            mid = (t0 + t1) / 2
            near = [ms for _, ms in sorted(samples, key=lambda s: abs(s[0] - mid))]
            near = near[:LOCAL_SAMPLES]
        factors.append(REF_MS / ref_time(near))
    return factors


def op_latencies(passes: list[dict], scaled: bool) -> list[float]:
    """Each operation's median latency over the passes.  Every pass runs
    the same operations, so a stall in one pass does not move the
    percentiles."""
    per_pass = [[ms * f for ms, f in zip(p["lat_ms"], op_speeds(p))] if scaled else p["lat_ms"]
                for p in passes]
    return [statistics.median(ms) for ms in zip(*per_pass)]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lpifc" / "__init__.py").is_file():
        print(f"error: no lpifc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    run_start = time.monotonic()
    attempted = failed = 0
    errors: list[str] = []

    def account(result, error):
        nonlocal attempted, failed
        if result is None:
            attempted, failed = attempted + 1, failed + 1
            errors.append(error)
        else:
            attempted += result["attempted"]
            failed += result["failed"]
            errors.extend(result["errors"])

    setup, setup_raw = [], []
    if not args.trace:
        for i in range(SETUP_STARTS + 1):
            result, elapsed, error = spawn(["--workload", args.workload, "--probe"],
                                           PASS_TIMEOUT_S)
            account(result, error)
            if result is not None and i > 0:
                setup.append(elapsed * speed(result))
                setup_raw.append(elapsed)

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.spans.gz"
    plain, traced = [], []
    pass_start = time.monotonic()
    longest = 0.0
    while True:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        argv = ["--workload", args.workload, "--seed", str(args.seed)]
        if trace_this:
            argv += ["--trace", str(spans_path)]
        t0 = time.monotonic()
        result, _, error = spawn(argv, PASS_TIMEOUT_S)
        longest = max(longest, time.monotonic() - t0)
        account(result, error)
        if result is not None:
            (traced if trace_this else plain).append(result)
        done = time.monotonic() - pass_start >= args.seconds and (traced or not args.trace)
        if done or result is None or time.monotonic() - run_start + longest > RUN_BUDGET_S:
            break

    values: dict[str, float] = {}
    raw: dict[str, float] = {}
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    if args.trace and traced and plain:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = statistics.median(p["wall_s"] * speed(p) for p in traced)
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] * speed(t) - p["wall_s"] * speed(p) for p, t in zip(plain, traced))
        raw["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        raw["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    elif not args.trace and plain and setup:
        for out, scaled in ((values, True), (raw, False)):
            op_ms = op_latencies(plain, scaled)
            out.update({
                "wall_s": statistics.median(p["wall_s"] * (speed(p) if scaled else 1)
                                            for p in plain),
                "query_p50_ms": statistics.median(op_ms),
                "query_p95_ms": percentile(op_ms, 95) if len(op_ms) > 1 else op_ms[0],
                "setup_s": statistics.median(setup if scaled else setup_raw),
            })
        values["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in plain)
        values = {name: values[name] for name, _ in END_TO_END}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    env = environment()
    if plain:
        env["numpy"] = plain[0]["numpy"]
    correct = failed == 0 and set(metrics) == set(units)
    ops_n = len(plain[0]["lat_ms"]) if plain else 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes, {attempted} operations, "
          f"{failed} failed, error_rate {failed / max(attempted, 1):.4g}")
    print("env: " + json.dumps(env, sort_keys=True))
    for error in errors[:10]:
        print(f"FAILED {error}")
    if plain:
        print(f"speed factor {statistics.median(speed(p) for p in plain):.4g} "
              f"(REF_MS {REF_MS} over the trimmed mean reference sample of a pass)")
    for name, m in metrics.items():
        note = ""
        if name.startswith("query_"):
            note = f"  (n={ops_n} operations, each the median of {len(plain)} passes)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} starts)"
        elif name in ("wall_s", "peak_rss_mb"):
            note = f"  (median of {len(plain)} passes)"
        if name in raw:
            note = f"  raw {raw[name]:.6g} {m['unit']}" + note
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "errors": errors, "setup_s": setup, "setup_raw_s": setup_raw,
              "passes": [{k: p[k] for k in ("wall_s", "rss_mb", "lat_ms", "op_at", "ref_ms",
                                            "ref_at")} for p in plain],
              "traced_passes": [{k: p[k] for k in ("wall_s", "layers", "ref_ms")}
                                for p in traced],
              "metrics": metrics, "raw": raw}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
