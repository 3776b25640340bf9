#!/usr/bin/env python3
"""Per-layer report of a bench_step trace (`bench_step --trace FILE`).

Usage:
    trace_report.py TRACE [--workload NAME] [--spans]

The trace is first validated with scripts/check_trace.py and refused if an
arena dropped events (a `telemetry.dropped` instant). Only spans that begin
inside a rank's `bench.timed` span count, so set-up and warm-up steps are
excluded; a "step" is one `step` span on a rank track.

For every span name on the rank tracks it computes, per rank, the self
time (duration minus the part its child spans cover) and total time per
step, and the min/median/max of those across ranks (`--spans` prints that
table). Device-queue tracks are not tied to a rank: their `task` spans
are counted in the union of all ranks' timed windows and divided by the
rank-steps in them. It prints the traced per-layer metrics of
BENCHMARK.json as `workload metric value unit` lines; see README.md for
each definition.
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import check_trace  # noqa: E402  (the repository's trace validator)

RANK_TRACK = re.compile(r"^rank (\d+)$")

# metric -> (span names, per-rank statistic, across ranks, unit). Per-rank
# statistics are per step: "self" self time, "count" span count, "a0" the
# sum of the begin events' first argument (payload bytes for plan.publish).
# Across ranks: "median" or "max".
RANK_METRICS = {
    "comm.plan_wait_ms": (("plan.wait",), "self", "median", "ms"),
    "comm.plan_wait_rank_max_ms": (("plan.wait",), "self", "max", "ms"),
    "comm.plan_block_ms": (("transport.block",), "self", "median", "ms"),
    "comm.plan_publish_ms": (("plan.publish",), "self", "median", "ms"),
    "comm.plan_msgs_per_step": (("plan.publish",), "count", "median", "count"),
    "comm.plan_bytes_per_step": (("plan.publish",), "a0", "median", "bytes"),
    "fft.reshape_ms": (("fft.reshape",), "self", "median", "ms"),
    "fft.reshapes_per_step": (("fft.reshape",), "count", "median", "count"),
    "fft.butterfly_ms": (("fft.forward", "fft.inverse"), "self", "median", "ms"),
    "core.cutoff_accumulate_ms": (("cutoff.accumulate",), "self", "median", "ms"),
    "core.cutoff_ghost_ms": (("cutoff.ghost",), "self", "median", "ms"),
    "core.cutoff_return_ms": (("cutoff.return",), "self", "median", "ms"),
    "grid.migrate_ms": (("cutoff.migrate",), "self", "median", "ms"),
    "search.cell_build_ms": (("cutoff.cells",), "self", "median", "ms"),
    "par.event_wait_ms": (("event.wait",), "self", "median", "ms"),
    "par.fence_ms": (("queue.fence",), "self", "median", "ms"),
    "par.fences_per_step": (("queue.fence",), "count", "median", "count"),
}


class Span:
    __slots__ = ("name", "start", "dur", "self_time", "a0")

    def __init__(self, name, start, a0):
        self.name = name
        self.start = start
        self.dur = 0.0
        self.self_time = 0.0
        self.a0 = a0


def spans_by_track(events):
    """Close B/E pairs per (pid, tid) into Spans (times in microseconds)."""
    names = {}
    stacks = defaultdict(list)
    spans = defaultdict(list)
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                names[(ev["pid"], ev["tid"])] = ev["args"]["name"]
            continue
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            span = Span(ev["name"], float(ev["ts"]), ev.get("args", {}).get("a0", 0))
            stacks[track].append([span, 0.0])
        elif ph == "E":
            span, child = stacks[track].pop()
            span.dur = float(ev["ts"]) - span.start
            span.self_time = span.dur - child
            if stacks[track]:
                stacks[track][-1][1] += span.dur
            spans[track].append(span)
    return names, spans


def inside(t, windows):
    return any(a <= t <= b for a, b in windows)


def report(doc: dict) -> tuple[dict, dict]:
    """Return (metrics, span table) for a validated trace document."""
    names, spans = spans_by_track(doc["traceEvents"])
    # rank -> span name -> [self_us, total_us, count, a0_sum]
    per_rank = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0, 0]))
    rank_steps = defaultdict(int)
    all_windows = []
    for track, track_spans in spans.items():
        m = RANK_TRACK.match(names.get(track, ""))
        if not m:
            continue
        rank = int(m.group(1))
        windows = [(s.start, s.start + s.dur) for s in track_spans if s.name == "bench.timed"]
        all_windows.extend(windows)
        for s in track_spans:
            if s.name == "bench.timed" or not inside(s.start, windows):
                continue
            acc = per_rank[rank][s.name]
            acc[0] += s.self_time
            acc[1] += s.dur
            acc[2] += 1
            acc[3] += s.a0
            if s.name == "step":
                rank_steps[rank] += 1
    if not rank_steps:
        raise ValueError("trace has no step spans inside bench.timed windows")

    def per_step(rank, span_names, stat):
        idx = {"self": 0, "total": 1, "count": 2, "a0": 3}[stat]
        value = sum(per_rank[rank][n][idx] for n in span_names if n in per_rank[rank])
        value /= rank_steps[rank]
        return value / 1e3 if stat in ("self", "total") else value

    ranks = sorted(rank_steps)
    metrics = {}
    for metric, (span_names, stat, across, unit) in RANK_METRICS.items():
        values = [per_step(r, span_names, stat) for r in ranks]
        value = max(values) if across == "max" else statistics.median(values)
        metrics[metric] = (value, unit)

    tasks, task_us = 0, 0.0
    for track, track_spans in spans.items():
        if not names.get(track, "").startswith("queue "):
            continue
        for s in track_spans:
            if s.name == "task" and inside(s.start, all_windows):
                tasks += 1
                task_us += s.dur
    total_steps = sum(rank_steps.values())
    metrics["par.kernels_per_step"] = (tasks / total_steps, "count")
    metrics["par.kernel_ms"] = (task_us / 1e3 / total_steps, "ms")

    table = {}
    span_names = sorted({n for r in ranks for n in per_rank[r]})
    for n in span_names:
        selfs = [per_step(r, (n,), "self") for r in ranks]
        totals = [per_step(r, (n,), "total") for r in ranks]
        counts = [per_step(r, (n,), "count") for r in ranks]
        table[n] = {
            "self_ms": (min(selfs), statistics.median(selfs), max(selfs)),
            "total_ms": (min(totals), statistics.median(totals), max(totals)),
            "per_step": statistics.median(counts),
        }
    return metrics, table


def load_checked(path: Path) -> dict:
    """Load a trace, validate it, and refuse one with dropped events."""
    doc = check_trace.load(path)
    errors = check_trace.validate(doc, [r"^rank \d+$"], [], allow_open_flows=False)
    dropped = sum(1 for ev in doc.get("traceEvents", []) if ev.get("name") == "telemetry.dropped")
    if dropped:
        errors.append(f"{dropped} track(s) dropped events: raise the arena capacity")
    if errors:
        raise ValueError("; ".join(errors[:5]))
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", type=Path)
    ap.add_argument("--workload", default="trace")
    ap.add_argument("--spans", action="store_true",
                    help="also print per-span self/total ms per step (min/med/max over ranks)")
    args = ap.parse_args()
    try:
        metrics, table = report(load_checked(args.trace))
    except (OSError, ValueError, KeyError) as e:
        print(f"{args.trace}: {e}", file=sys.stderr)
        return 1
    if args.spans:
        print(f"{'span':<20} {'per step':>9} {'self ms min/med/max':>28} {'total ms min/med/max':>28}")
        for name, row in table.items():
            s = "/".join(f"{v:.3f}" for v in row["self_ms"])
            t = "/".join(f"{v:.3f}" for v in row["total_ms"])
            print(f"{name:<20} {row['per_step']:>9.1f} {s:>28} {t:>28}")
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload} {metric} {value:.12g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
