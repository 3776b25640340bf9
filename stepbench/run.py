#!/usr/bin/env python3
"""Build bench_step from this checkout, run one workload, check it, report.

Usage (from the repository root):
    python3 stepbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--quick] [--out FILE]
    python3 stepbench/run.py [--seconds S]      # every workload, both modes

One workload prints `workload metric value unit` lines, then as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are BENCHMARK.json's end-to-end metrics, measured
untraced; with `--trace 1` they are its per-layer metrics: the solver's
phase metrics from the untraced episodes, then two traced episodes turned
into layer metrics by trace_report.py. `correct` is false when an episode
throws, ends non-finite or misses its committed reference summary, or
when the trace is invalid or dropped events.

Without --workload it runs every workload untraced and traced and prints
only the metric lines. `--out FILE` appends each result, tagged with
workload, seed and mode, as one JSON line for compare_step.py.

The build goes to build_stepbench/. The benchmark exits 2 without a
result when the beatnik sources are missing or the build fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))


def fail(msg: str) -> None:
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "core" / "solver.hpp").exists() or \
            not (ROOT / "scripts" / "check_trace.py").exists():
        fail(f"beatnik sources not found under {ROOT}")
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_step", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "bench_step"


def run_bench(binary: Path, args: argparse.Namespace, workload: str, seconds: int,
              trace_file: Path | None) -> tuple[int, dict]:
    """Run bench_step once; return its exit status and parsed metrics."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    if args.quick:
        cmd.append("--quick")
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    # Ambient knobs (backend, transport, verifiers, tracing) must not
    # change the workload; bench_step pins what it needs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BEATNIK_")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=seconds + 150)
    metrics = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            metrics[parts[1]] = (float(parts[2]), parts[3])
            print(line)
        else:
            print(line, file=sys.stderr)
    return proc.returncode, metrics


def run_workload(binary: Path, args: argparse.Namespace, workload: str, traced: bool,
                 seconds: int, spec: dict) -> dict:
    trace_file = binary.parent / f"trace_{workload}.json" if traced else None
    if trace_file is not None:
        # A run that dies before writing its trace must not report the last one.
        trace_file.unlink(missing_ok=True)
    status, metrics = run_bench(binary, args, workload, seconds, trace_file)
    correct = status == 0
    if traced:
        # Imported here: it needs the repository's scripts/check_trace.py,
        # which build() has already found with the sources.
        import trace_report
        try:
            layer, _ = trace_report.report(trace_report.load_checked(trace_file))
        except (OSError, ValueError, KeyError) as e:
            print(f"stepbench: trace {trace_file}: {e}", file=sys.stderr)
            layer, correct = {}, False
        for name, (value, unit) in layer.items():
            print(f"{workload} {name} {value:.12g} {unit}")
        metrics.update(layer)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing or "attempted_steps" not in metrics:
        fail(f"{workload}: bench_step exited {status} without metrics {missing}")
    failed = int(metrics["failed_steps"][0])
    return {
        "correct": correct and failed == 0,
        "attempted": int(metrics["attempted_steps"][0]),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="1 episode of 3 steps (smoke test)")
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build_stepbench")
    ap.add_argument("--out", type=Path, help="append each result as a JSON line")
    args = ap.parse_args()

    binary = build(args.build_dir.resolve())
    runs = [(args.workload, args.trace == 1)] if args.workload else \
        [(w, t) for w in names for t in (False, True)]
    ok = True
    for workload, traced in runs:
        result = run_workload(binary, args, workload, traced, args.seconds, spec)
        ok = ok and result["correct"]
        if args.out:
            with args.out.open("a") as f:
                tagged = {"workload": workload, "seed": args.seed, "trace": int(traced)}
                f.write(json.dumps({**tagged, **result}) + "\n")
        if args.workload:
            print(json.dumps(result))
    return 0 if args.workload or ok else 1


if __name__ == "__main__":
    sys.exit(main())
