"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads queries --seeds 5
    python3 perfbench/spread.py --seeds 10 --out perfbench/baseline/untraced.json
    python3 perfbench/spread.py --trace 1 --seeds 2 --out perfbench/baseline/traced.json

For every workload it runs ``run.py`` once per seed (one after the other),
then prints, for each metric, the median and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  End-to-end metrics are shown next to their bound from
``BENCHMARK.json``; a spread above a third of the bound is flagged ``WIDE``.

With ``--trace 1`` it prints instead each layer's share of the traced self
time (the ``layer.*.self_ms`` metrics), which is how the workload mix is
checked against its design: fcrep and exactalg should lead ``tables``,
laurent and words ``support3``, and the grpalg table build ``algebra``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED exit {proc.returncode}\n{proc.stdout}",
                      file=sys.stderr)
                ok = False
            runs.append(result)
        record = json.loads((HERE / "results" /
                             f"{workload}-seed{seeds[-1]}-trace{args.trace}.json").read_text())
        stats = {n: summarise([r["metrics"][n]["value"] for r in runs])
                 for n in runs[0]["metrics"]}
        summary["env"] = record["env"]
        summary["workloads"][workload] = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": stats,
        }
        if args.trace:
            # Layer self times are not scaled, so shares are of their sum.
            layers = {n[len("layer."):-len(".self_ms")]: s["median"]
                      for n, s in stats.items() if n.startswith("layer.")}
            total = sum(layers.values()) or 1.0
            shares = sorted(((ms / total, layer) for layer, ms in layers.items()), reverse=True)
            print(f"{workload:9s} traced pass {stats['trace.wall_s']['median']:.3f} s, overhead "
                  f"{stats['trace.overhead_s']['median']:.3f} s; self time by layer: "
                  + ", ".join(f"{layer} {share:.1%}" for share, layer in shares if share >= 0.005),
                  flush=True)
            continue
        for n, s in stats.items():
            bound = bounds[n]
            flag = "ok" if s["spread"] <= bound / 3 else "WIDE"
            print(f"{workload:9s} {n:13s} median {s['median']:12.6g}  spread {s['spread']:7.2%}"
                  f"  bound {bound:.0%} {flag}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
