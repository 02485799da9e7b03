"""How close each benchmark run came to its limits, from its result records.

Usage: python tools/bench_margin.py RESULT.json...

Each RESULT is a record that ``perfbench/run.py --trace 0`` wrote, such as
``perfbench/results/algebra-seed1-trace0.json``.  For each one it prints a
row: the workload, the seed, the number of passes, the fewest reference
samples taken in one pass (``run.py`` cannot scale a pass with none), the
fastest unscaled pass in seconds, and the five scaled end-to-end metrics
(``-`` for a metric the run did not report).  It only reads the records.
Exits 2 when no record is given or one cannot be read.
"""

from __future__ import annotations

import json
import sys

METRICS = ("wall_s", "query_p50_ms", "query_p95_ms", "peak_rss_mb", "setup_s")
HEADER = ("workload", "seed", "passes", "min_ref_samples", "fastest_raw_pass_s", *METRICS)


def row(record: dict) -> list[str]:
    passes = record["passes"]
    metrics = record["metrics"]
    return [
        record["workload"],
        str(record["seed"]),
        str(len(passes)),
        str(min((len(p["ref_ms"]) for p in passes), default="-")),
        f"{min(p['wall_s'] for p in passes):.4f}" if passes else "-",
        *(f"{metrics[name]['value']:.6g}" if name in metrics else "-" for name in METRICS),
    ]


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tools/bench_margin.py RESULT.json...", file=sys.stderr)
        return 2
    rows = [list(HEADER)]
    for path in paths:
        try:
            with open(path) as f:
                record = json.load(f)
            if record.get("trace") != 0:
                raise ValueError("not a --trace 0 record")
            rows.append(row(record))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    widths = [max(len(r[i]) for r in rows) for i in range(len(HEADER))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
