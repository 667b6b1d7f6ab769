#!/usr/bin/env python3
"""Time the Tr(R) enumeration against the walk that tests every module.

    python3 scripts/bench_trace_walk.py OUT.json [--repeats N]

Run it from the root of a source checkout; it imports traceforge from
``src/`` and the full walk, ``trace_ideals_by_full_walk``, from
``tests/_oracles.py``.  For each case it records the best of N wall
times, taken in alternating rounds, of ``trace.enumerate_trace_ideals``,
which tests one module per torus orbit, and of the full walk with each
trace ideal lifted to a fractional ideal as the enumeration lifts it;
each case's census, the number of modules each walk tests and the
number of trace ideals (zero included).
The modules tested are counted in a separate, untimed run that wraps
``trace._gap_fixed_point``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _oracles import trace_ideals_by_full_walk  # noqa: E402
from traceforge.fields import GF  # noqa: E402
from traceforge.semigroups import NumericalSemigroup, parse_generators  # noqa: E402

trace = importlib.import_module("traceforge.trace")  # the package exports a function of that name

# the four cases of the enum-hard benchmark workload, then a larger F_3 case
CASES = (("6,7,8,9,10", 2), ("5,7,8,9", 3), ("3,7", 7), ("4,5", 5), ("6,7,8,9,10", 3))


def best_of(repeats: int, *runs) -> list:
    """The best wall time of each run, over ``repeats`` rounds that run
    each once, in turn and in alternating order, so a change in the
    machine's load meets all of them."""
    times = [[] for _ in runs]
    for r in range(repeats):
        pairs = list(zip(runs, times))
        for run, spent in pairs if r % 2 else reversed(pairs):
            t0 = perf_counter()
            run()
            spent.append(perf_counter() - t0)
    return [min(spent) for spent in times]


def modules_tested(run) -> int:
    """The number of ``_gap_fixed_point`` calls that ``run`` makes."""
    test = trace._gap_fixed_point
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return test(*args)

    trace._gap_fixed_point = counted
    try:
        run()
    finally:
        trace._gap_fixed_point = test
    return calls


def measure(text: str, p: int, repeats: int) -> dict:
    H = NumericalSemigroup.from_generators(parse_generators(text))
    found = trace.enumerate_trace_ideals(H, p)
    census, rows = trace_ideals_by_full_walk(H, p)
    if (census, len(rows)) != (found.census, len(found.ideals)):
        raise AssertionError(f"{text}/F_{p}: the two walks disagree")
    q = trace._quotient(GF(p), H)
    orbit_s, full_s = best_of(repeats, lambda: trace.enumerate_trace_ideals(H, p),
                              lambda: [q.lift(r) for r in trace_ideals_by_full_walk(H, p)[1]])
    return {
        "case": f"{text}/F_{p}",
        "census": found.census,
        "trace_ideals_with_zero": found.count_with_zero,
        "orbit_walk": {
            "best_s": orbit_s,
            "modules_tested": modules_tested(lambda: trace.enumerate_trace_ideals(H, p)),
        },
        # the full walk tests every module
        "full_walk": {"best_s": full_s, "modules_tested": census},
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args(argv)
    results = []
    for text, p in CASES:
        row = measure(text, p, args.repeats)
        walk, full = row["orbit_walk"], row["full_walk"]
        print(f"{row['case']}: {walk['best_s']:.4f} s against {full['best_s']:.4f} s, "
              f"{walk['modules_tested']} of {row['census']} modules tested", file=sys.stderr)
        results.append(row)
    record = {
        "what": "best-of-N wall time of trace.enumerate_trace_ideals (one module per "
                "torus orbit) and of the full walk of tests/_oracles.py with its trace "
                "ideals lifted",
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cases": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
