#!/usr/bin/env python3
"""Tests of the step benchmark, registered with ctest by CMakeLists.txt.

    test_step.py smoke --build-dir DIR
        Every workload, untraced and traced, runs with --quick (1 episode
        of 3 steps), exits 0, reports correct output and prints every
        metric BENCHMARK.json names.
    test_step.py detects_nonfinite --build-dir DIR
        lo_fft run past its finite window (2 + 50 steps; the state goes
        non-finite at step ~46) must count every step as failed, exit
        nonzero and name the first non-finite step.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def smoke(build_dir: Path) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w["name"],
                   "--quick", "--trace", str(trace), "--build-dir", str(build_dir)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            where = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{where}: incorrect result {result}")
            printed = {line.split()[1] for line in lines[:-1] if len(line.split()) == 4}
            for m in metrics:
                if m["name"] not in printed or m["name"] not in result["metrics"]:
                    errors.append(f"{where}: metric {m['name']} not reported")
    return errors


def detects_nonfinite(build_dir: Path) -> list[str]:
    cmd = [str(build_dir / "bench_step"), "--workload", "lo_fft", "--episodes", "1",
           "--steps", "50"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    out = proc.stdout
    errors = []
    if proc.returncode == 0:
        errors.append("bench_step exited 0 on a run that leaves the finite window")
    if "lo_fft failed_frac 1 fraction" not in out:
        errors.append("failed_frac is not 1")
    if "first non-finite step" not in out:
        errors.append("the first non-finite step is not named")
    if errors:
        errors.append("output:\n" + out + proc.stderr)
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("check", choices=("smoke", "detects_nonfinite"))
    ap.add_argument("--build-dir", type=Path, required=True)
    args = ap.parse_args()
    check = smoke if args.check == "smoke" else detects_nonfinite
    errors = check(args.build_dir.resolve())
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    print(f"bench.step_{args.check}: {'FAILED' if errors else 'passed'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
