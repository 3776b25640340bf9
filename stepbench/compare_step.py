#!/usr/bin/env python3
"""Compare two sets of step-benchmark runs against BENCHMARK.json's bounds.

Usage:
    compare_step.py BASE.jsonl CUR.jsonl

Each file holds results appended by `run.py --out FILE`, one JSON line per
run; several runs per workload (different seeds, interleaved with the
other side) make the spread measurable. For every workload and
end-to-end metric it prints one row: both medians, the change in the
direction that is worse, the metric's bound, the base runs' spread (the
distance between their quartiles over their median) and a verdict:

    ok          worse by no more than the bound
    REGRESSED   worse by more than the bound
    better      every current run beats every base run
    unresolved  the base spread is wider than the bound, so the runs
                cannot tell a change of that size from noise

Per-layer metrics follow with their medians; a count metric that differs
between the sides is marked `changed`. Exit status 1 if any row
regressed or any run reported incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> tuple[dict, int]:
    """(workload, metric) -> values, and the number of incorrect runs."""
    values = defaultdict(list)
    incorrect = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        incorrect += not run["correct"]
        for name, m in run["metrics"].items():
            values[(run["workload"], name)].append(m["value"])
    return values, incorrect


def spread(vals: list[float]) -> float:
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(med)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("cur", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, base_bad = load(args.base)
    cur, cur_bad = load(args.cur)

    regressed = 0
    print(f"{'workload':<18} {'metric':<28} {'base':>11} {'cur':>11} {'worse':>7} "
          f"{'bound':>6} {'spread':>6}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in base or key not in cur:
                continue
            b, c = base[key], cur[key]
            bm, cm = statistics.median(b), statistics.median(c)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (cm - bm) / bm
            beats_all = max(c) < min(b) if sign > 0 else min(c) > max(b)
            s = spread(b)
            if beats_all:
                verdict = "better"
            elif s > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{w['name']:<18} {m['name']:<28} {bm:>11.5g} {cm:>11.5g} {worse:>+7.1%} "
                  f"{m['bound']:>6.0%} {s:>6.1%}  {verdict}")
    print()
    for w in spec["workloads"]:
        for m in spec["per_layer"]:
            key = (w["name"], m["name"])
            if key not in base or key not in cur:
                continue
            bm, cm = statistics.median(base[key]), statistics.median(cur[key])
            note = "changed" if m["unit"] == "count" and bm != cm else ""
            print(f"{w['name']:<18} {m['name']:<28} {bm:>11.5g} {cm:>11.5g} {m['unit']:>8}  {note}")
    if base_bad or cur_bad:
        print(f"\nincorrect runs: base {base_bad}, current {cur_bad}")
    return 1 if regressed or base_bad or cur_bad else 0


if __name__ == "__main__":
    sys.exit(main())
