#!/usr/bin/env python3
"""Write one benchmark record, a BENCH_<n>.json, from the table ``BENCHES``.

    python3 scripts/bench.py NAME OUT.json [--repeats N]

Run it from the root of a source checkout; it imports traceforge from
``src/`` and ``_oracles`` and ``goldens`` from ``tests/``.  Every record
opens with one header: what it measures, N, the Python version, the
machine and its CPU count.  A wall time is the best of N, taken in
alternating rounds (``best_of``); a count comes from a separate, untimed
run that wraps one function (``wrapped``).  To add a record, add an
entry to ``BENCHES``.  The entries and the records they wrote:

trace-walk (BENCH_28.json, BENCH_33.json)
    For each of ``CASES``: the census, the trace ideals (zero included),
    and the best time and the modules tested of two walks:
    ``trace.enumerate_trace_ideals``, which tests one module per torus
    orbit (its ``trace._gap_fixed_point`` calls), and the full walk of
    ``tests/_oracles.py``, which tests every module, with each trace
    ideal lifted to a fractional ideal as the enumeration lifts it.
qq-colons (BENCH_35.json)
    The ``ideals-qq`` inputs with fixed samples: every semigroup of genus
    <= 8 and, on each one with a probe exponent n, the family probe's
    colons R : R[t^n + k t^(n+1)] for the five samples k of ``SAMPLES``.
    For each of three stages (the probe colons, the canonical ideal and
    m : m), the best time over all inputs and the colons solved (the
    colon's ``solve_homogeneous`` calls) with the summed rows, columns,
    rows x columns and nonzero cells of their systems.
frontier (BENCH_36.json, BENCH_37.json, BENCH_39.json)
    For each of ``FRONTIER``: the census, the trace ideals (zero
    included), the modules tested and, from BENCH_39.json on, the modules
    multiplied (``trace._gap_products_in_span`` calls: those the
    value-set test does not rule out) of one in-process enumeration, and
    the best time and the peak RSS (``goldens.peak_rss_mb``) of a child
    ``python -m traceforge.cli trace enum GENS --p P``.
"""

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _oracles import trace_ideals_by_full_walk  # noqa: E402
from goldens import peak_rss_mb  # noqa: E402
from traceforge.fields import GF, QQ  # noqa: E402
from traceforge.semigroups import (NumericalSemigroup, canonical_value_set,  # noqa: E402
                                   enumerate_semigroups, parse_generators, value_set_condition)

ideals = importlib.import_module("traceforge.ideals")
trace = importlib.import_module("traceforge.trace")  # the package exports a function of that name

# the four cases of the enum-hard benchmark workload, then a larger F_3 case
CASES = (("6,7,8,9,10", 2), ("5,7,8,9", 3), ("3,7", 7), ("4,5", 5), ("6,7,8,9,10", 3))
# the cases of the enum-8-14-p2, enum-9-16-p2 and enum-8-14-p3 goldens
FRONTIER = (("8,9,10,11,12,13,14", 2), ("9,10,11,12,13,14,15,16", 2),
            ("8,9,10,11,12,13,14", 3))
QQ_MAX_GENUS = 8
SAMPLES = tuple(map(Fraction, ("1", "-2", "1/3", "7/5", "-9/4")))


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


@contextmanager
def wrapped(module, name: str, hook):
    """Within the block, ``module.name(*args)`` first calls ``hook(*args)``."""
    f = getattr(module, name)

    def hooked(*args):
        hook(*args)
        return f(*args)

    setattr(module, name, hooked)
    try:
        yield
    finally:
        setattr(module, name, f)


def enumerate_counted(text: str, p: int):
    """H = <TEXT>, ``trace.enumerate_trace_ideals(H, p)``, the number of
    modules it tests (``_gap_fixed_point`` calls) and the number it
    multiplies (``_gap_products_in_span`` calls)."""
    H = NumericalSemigroup.from_generators(parse_generators(text))
    calls = dict.fromkeys(("_gap_fixed_point", "_gap_products_in_span"), 0)

    def counter(name):
        def count(*args):
            calls[name] += 1
        return count

    with (wrapped(trace, "_gap_fixed_point", counter("_gap_fixed_point")),
          wrapped(trace, "_gap_products_in_span", counter("_gap_products_in_span"))):
        found = trace.enumerate_trace_ideals(H, p)
    return H, found, *calls.values()


def trace_walk(repeats: int) -> dict:
    cases = []
    for text, p in CASES:
        H, found, tested, _ = enumerate_counted(text, p)
        census, rows = trace_ideals_by_full_walk(H, p)
        if (census, len(rows)) != (found.census, len(found.ideals)):
            raise AssertionError(f"{text}/F_{p}: the two walks disagree")
        q = trace._quotient(GF(p), H)
        orbit_s, full_s = best_of(repeats, lambda: trace.enumerate_trace_ideals(H, p),
                                  lambda: [q.lift(r) for r in trace_ideals_by_full_walk(H, p)[1]])
        print(f"{text}/F_{p}: {orbit_s:.4f} s against {full_s:.4f} s, "
              f"{tested} of {census} modules tested", file=sys.stderr)
        cases.append({"case": f"{text}/F_{p}", "census": census,
                      "trace_ideals_with_zero": found.count_with_zero,
                      "orbit_walk": {"best_s": orbit_s, "modules_tested": tested},
                      "full_walk": {"best_s": full_s, "modules_tested": census}})
    return {"cases": cases}


def systems(run) -> dict:
    """The colons ``run`` solves and the summed sizes of their systems."""
    counts = dict.fromkeys(("colons_solved", "system_rows", "system_columns",
                            "system_cells", "nonzero_cells"), 0)

    def count(m):
        counts["colons_solved"] += 1
        counts["system_rows"] += m.nrows
        counts["system_columns"] += m.ncols
        counts["system_cells"] += m.nrows * m.ncols
        counts["nonzero_cells"] += sum(1 for row in m.rows for x in row if x)

    with wrapped(ideals, "solve_homogeneous", count):
        run()
    return counts


def qq_colons(repeats: int) -> dict:
    semigroups = list(enumerate_semigroups(QQ_MAX_GENUS))
    probes = [(H, n) for H in semigroups
              if (n := value_set_condition(canonical_value_set(H)).witness) is not None]
    stages = {
        "probe colons": lambda: [trace._probe_colons(H, n, SAMPLES) for H, n in probes],
        "canonical ideal": lambda: [ideals.canonical_fractional_ideal(QQ, H)
                                    for H in semigroups],
        "m : m": lambda: [ideals.endomorphism_ring(ideals.maximal_ideal(QQ, H))
                          for H in semigroups],
    }
    results = []
    for (name, run), best_s in zip(stages.items(), best_of(repeats, *stages.values())):
        row = {"stage": name, "best_s": best_s, **systems(run)}
        print(f"{name}: {best_s:.4f} s, {row['colons_solved']} colons, "
              f"{row['nonzero_cells']} of {row['system_cells']} cells nonzero", file=sys.stderr)
        results.append(row)
    return {"semigroups": len(semigroups), "probes": len(probes),
            "samples": [str(k) for k in SAMPLES], "stages": results}


def frontier(repeats: int) -> dict:
    os.environ["PYTHONPATH"] = str(ROOT / "src")  # for each child's traceforge
    argvs = [[sys.executable, "-m", "traceforge.cli", "trace", "enum", text, "--p", str(p)]
             for text, p in FRONTIER]
    counted = [enumerate_counted(text, p) for text, p in FRONTIER]
    times = best_of(repeats, *(partial(subprocess.run, argv, check=True,
                                       stdout=subprocess.DEVNULL) for argv in argvs))
    cases = []
    for (text, p), (_, found, tested, multiplied), best_s, argv in zip(
            FRONTIER, counted, times, argvs):
        rss = peak_rss_mb(argv, timeout=600)
        print(f"{text}/F_{p}: {best_s:.2f} s, {rss:.1f} MB, {tested} of {found.census} "
              f"modules tested, {multiplied} multiplied", file=sys.stderr)
        cases.append({"case": f"{text}/F_{p}", "census": found.census,
                      "trace_ideals_with_zero": found.count_with_zero,
                      "modules_tested": tested, "modules_multiplied": multiplied,
                      "best_s": best_s, "peak_rss_mb": rss})
    return {"cases": cases}


BENCHES = {
    "trace-walk": ("best-of-N wall time of trace.enumerate_trace_ideals (one module per "
                   "torus orbit) and of the full walk of tests/_oracles.py with its trace "
                   "ideals lifted", trace_walk),
    "qq-colons": ("best-of-N wall time over every genus <= 8 semigroup of the family "
                  "probe's colons over QQ, the canonical ideal and m : m, with the colon "
                  "systems each stage solves", qq_colons),
    "frontier": ("best-of-N wall time and peak RSS of a child `python -m traceforge.cli "
                 "trace enum GENS --p P` on the frontier cases, with the census, trace "
                 "ideals, modules tested and modules multiplied of one in-process "
                 "enumeration", frontier),
}


def positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("name", choices=BENCHES)
    ap.add_argument("out", type=Path)
    ap.add_argument("--repeats", type=positive, default=20)
    args = ap.parse_args(argv)
    what, build = BENCHES[args.name]
    record = {"what": what, "repeats": args.repeats, "python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(), **build(args.repeats)}
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
