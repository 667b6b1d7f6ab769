#!/usr/bin/env python3
"""Time the colons over QQ of the ``ideals-qq`` inputs and count their systems.

    python3 scripts/bench_qq_colons.py OUT.json [--repeats N]

Run it from the root of a source checkout; it imports traceforge from
``src/``.  The inputs are those of the ``ideals-qq`` benchmark workload
with fixed samples: every semigroup of genus <= 8, and on each one that
has a probe exponent n, the family probe's colons R : R[t^n + k t^(n+1)]
for the five nonzero samples k of ``SAMPLES``.  It records the best of N
wall times, taken in alternating rounds, of three stages over all inputs:
the probe colons (``trace._probe_colons``), the canonical ideal and m : m.
For each stage, a separate untimed run that wraps the colon's
``solve_homogeneous`` counts the colons solved and the sizes of their
systems: rows, columns, rows x columns and nonzero cells, each summed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from bench_trace_walk import best_of  # noqa: E402
from traceforge.fields import QQ  # noqa: E402
from traceforge.semigroups import (canonical_value_set, enumerate_semigroups,  # noqa: E402
                                   value_set_condition)

ideals = importlib.import_module("traceforge.ideals")
trace = importlib.import_module("traceforge.trace")  # the package exports a function of that name

MAX_GENUS = 8
SAMPLES = tuple(map(Fraction, ("1", "-2", "1/3", "7/5", "-9/4")))


def systems(run) -> dict:
    """The colons ``run`` solves and the summed sizes of their systems."""
    solve = ideals.solve_homogeneous
    counts = dict.fromkeys(("colons_solved", "system_rows", "system_columns",
                            "system_cells", "nonzero_cells"), 0)

    def counted(m):
        counts["colons_solved"] += 1
        counts["system_rows"] += m.nrows
        counts["system_columns"] += m.ncols
        counts["system_cells"] += m.nrows * m.ncols
        counts["nonzero_cells"] += sum(1 for row in m.rows for x in row if x)
        return solve(m)

    ideals.solve_homogeneous = counted
    try:
        run()
    finally:
        ideals.solve_homogeneous = solve
    return counts


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args(argv)
    semigroups = list(enumerate_semigroups(MAX_GENUS))
    probes = [(H, n) for H in semigroups
              if (n := value_set_condition(canonical_value_set(H)).witness) is not None]
    stages = {
        "probe colons": lambda: [trace._probe_colons(H, n, SAMPLES) for H, n in probes],
        "canonical ideal": lambda: [ideals.canonical_fractional_ideal(QQ, H)
                                    for H in semigroups],
        "m : m": lambda: [ideals.endomorphism_ring(ideals.maximal_ideal(QQ, H))
                          for H in semigroups],
    }
    times = best_of(args.repeats, *stages.values())
    results = []
    for (name, run), best_s in zip(stages.items(), times):
        row = {"stage": name, "best_s": best_s, **systems(run)}
        print(f"{name}: {best_s:.4f} s, {row['colons_solved']} colons, "
              f"{row['nonzero_cells']} of {row['system_cells']} cells nonzero", file=sys.stderr)
        results.append(row)
    record = {
        "what": "best-of-N wall time over every genus <= 8 semigroup of the family "
                "probe's colons over QQ, the canonical ideal and m : m, with the colon "
                "systems each stage solves",
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "semigroups": len(semigroups),
        "probes": len(probes),
        "samples": [str(k) for k in SAMPLES],
        "stages": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
