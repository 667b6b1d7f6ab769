#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload enum-hard --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports traceforge from
``src/`` there.  One run is one fresh process.  It first measures set-up
(importing traceforge and building the inputs) in several fresh child
processes, builds the inputs itself, then repeats passes over the
workload's items until ``--seconds`` is spent, checking every output.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s``,
``pass_s``, ``slowest_item_s`` and ``peak_rss_mb``.  With ``--trace 1``
the first half of the time runs untraced passes and the second half
traced ones; the per-layer metrics come from the traced passes, and the
spans of the first traced pass go to ``.perfbench_out/<workload>.spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every operation matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
# Self times of a traced pass must add up to its wall time within this share.
COVERAGE_TOLERANCE = 0.05
SHOWN_ERRORS = 5

WORKLOAD_NAMES = ("survey-g6", "enum-hard", "ideals-qq", "artin-census")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one import and input build, print it, and exit")
    return ap.parse_args(argv)


def setup_probe(name: str, seed: int):
    """Print the wall and the rescaled time of one import and input build."""
    from calibrate import SpeedSampler

    with SpeedSampler() as sampler:
        t0 = perf_counter()
        import workloads
        workloads.make(name).build(seed)
        t1 = perf_counter()
    print(repr(sampler.work_s(t0, t1)), repr(sampler.scaled_s(t0, t1)))


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and rescaled set-up times of SETUP_REPEATS fresh processes in turn."""
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall, rescaled = map(float, proc.stdout.split()[-2:])
        walls.append(wall)
        scaled.append(rescaled)
    return walls, scaled


class Tally:
    """Operations attempted and failed over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list):
        self.attempted += len(errors)
        bad = [e for e in errors if e is not None]
        self.failed += len(bad)
        self.errors.extend(bad[:SHOWN_ERRORS - len(self.errors)])


class Passes:
    """Per-pass timings of one phase of a run."""

    def __init__(self):
        self.walls: list[float] = []      # wall time without the speed samples
        self.scaled: list[float] = []     # rescaled to the reference speed
        self.slowest_wall: list[float] = []
        self.slowest_scaled: list[float] = []


def run_passes(workload, items, until: float, tally: Tally, tracer=None, on_pass=None):
    """Run passes until the next one would end after ``until``; at least one.

    Every pass runs under a SpeedSampler, so its times can be rescaled to
    the reference speed.  In a traced pass the samples become spans.
    """
    from calibrate import SpeedSampler
    from workloads import ItemClock

    passes = Passes()
    while True:
        if tracer is not None:
            tracer.reset()
        clock = ItemClock(tracer)
        with SpeedSampler() as sampler:
            t0 = perf_counter()
            outs = workload.run_pass(items, clock)
            wall = perf_counter() - t0
        if tracer is not None:
            tracer.add_samples([m for m in sampler.marks if t0 <= m[0] and m[1] <= t0 + wall])
        if on_pass is not None:
            on_pass(wall)
        try:
            tally.add(workload.check(items, outs))
        finally:
            workload.cleanup(outs)
        passes.walls.append(sampler.work_s())
        passes.scaled.append(sampler.scaled_s())
        passes.slowest_wall.append(max(clock.times))
        passes.slowest_scaled.append(max(sampler.scaled_s(a, b) for a, b in clock.spans))
        if perf_counter() + statistics.median(passes.walls) > until:
            return passes


def traced_run(workload, items, seed: int, start: float, seconds: float, tally: Tally):
    """Untraced passes, then traced ones; returns the per-layer metrics."""
    import tracer as tr

    untraced = run_passes(workload, items, start + seconds / 2, tally).scaled
    tracer = tr.Tracer()
    per_pass: list[dict] = []
    OUT_DIR.mkdir(exist_ok=True)

    def on_pass(wall):
        per_pass.append(tr.layer_metrics(tracer, wall))
        if len(per_pass) == 1:
            tracer.dump(OUT_DIR / f"{workload.name}.spans.json",
                        workload=workload.name, seed=seed, pass_wall_s=wall)

    installed = tr.install(tracer)
    try:
        traced = run_passes(workload, items, start + seconds, tally, tracer, on_pass).scaled
    finally:
        installed.remove()
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    coverage = [p["self_time_coverage"] for p in per_pass]
    consistent = all(abs(c - 1) <= COVERAGE_TOLERANCE for c in coverage)
    if not consistent:
        tally.errors.append(f"self times cover {coverage} of the traced pass wall times")
    (OUT_DIR / f"{workload.name}.layers.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "metrics": metrics},
                   indent=1, sort_keys=True) + "\n")
    return metrics, len(untraced), len(traced), consistent


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_frac", "_coverage")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "traceforge" / "__init__.py").is_file():
        print(f"perfbench: no traceforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the whole run, and not CPU 0: it takes most interrupts and,
    # on the 2-CPU VM this was tuned on, six times the steal time of CPU 1.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import workloads  # imports traceforge and writes its bytecode cache first

    setup_walls, setup_scaled = measure_setup(args.workload, args.seed)
    workload = workloads.make(args.workload)
    items = workload.build(args.seed)
    tally = Tally()
    start = perf_counter()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "cpu": max(os.sched_getaffinity(0)),
            "python": platform.python_version(), "setup_runs": len(setup_walls),
            "wall_setup_s": statistics.median(setup_walls)}
    consistent = True
    if args.trace:
        metrics, info["passes"], info["traced_passes"], consistent = traced_run(
            workload, items, args.seed, start, args.seconds, tally)
    else:
        p = run_passes(workload, items, start + args.seconds, tally)
        info.update(passes=len(p.walls), wall_pass_s=statistics.median(p.walls),
                    wall_slowest_item_s=statistics.median(p.slowest_wall))
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "pass_s": statistics.median(p.scaled),
            "slowest_item_s": statistics.median(p.slowest_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    info["items_per_pass"] = len(items)
    print("# run " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name:45s} {value:>16.6g} {unit_of(name)}")
    for err in tally.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    correct = tally.failed == 0 and consistent
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
