"""Batch surveys: per-semigroup reports, theorem checks, JSON/CSV output.

A survey walks every numerical semigroup up to a genus bound and runs
the whole battery on each: invariants, value-set condition, Kunz
classification, Arf flag, trace enumeration over F_p, the blowup
bijection where it applies, and a colon-separation probe where its
preconditions hold.  Results are written one JSON file per semigroup
plus a summary CSV; identical (config, seed) pairs produce
byte-identical records (timestamps and timings live in a separate
"meta" object).
"""

from __future__ import annotations

import csv
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

from . import __version__
from .semigroups import (NumericalSemigroup, canonical_value_set, enumerate_semigroups,
                         is_arf, kunz_cone_classify, value_set_condition,
                         cm_type_list_check, EXTERIOR, INTERIOR)
from .trace import (ENUMERATION_PRIMES, _bijection_report, enumerate_trace_ideals,
                    family_probe)

__all__ = ["survey", "survey_one", "SCHEMA_VERSION", "SUMMARY_COLUMNS"]

SCHEMA_VERSION = 1

SUMMARY_COLUMNS = ("gens", "genus", "mult", "edim", "arf", "kunz_class",
                   "vs_condition", "n_trace_p", "bijection_ok", "family_witness")

PROBE_SAMPLE_COUNT = 5

# each key of record["checks"] and the violation it names, in report order:
# False is a violation, None means the check does not apply
THEOREM_CHECKS = {
    "kunz_class_consistent": "kunz-classification",
    "conductor_least_trace": "conductor-least-trace",
    "maximal_ideal_trace_iff_not_dvr": "maximal-ideal-trace",
    "blowup_bijection": "blowup-bijection",
    "arf_value_set_condition": "arf-value-set-condition",
}


def _probe_samples(gens: tuple, seed: int) -> list[int]:
    # per-semigroup RNG so records do not depend on worker partitioning
    rng = random.Random(f"{seed}:{','.join(map(str, gens))}")
    return sorted(rng.sample(range(0, 40), PROBE_SAMPLE_COUNT))


def survey_one(gens: tuple, prime: int, seed: int) -> dict:
    """The full per-semigroup record; pure given (gens, prime, seed)."""
    H = NumericalSemigroup.from_generators(gens)
    K = canonical_value_set(H)
    record: dict = {
        "gens": H.text,
        "genus": H.genus,
        "frobenius": H.frobenius,
        "conductor": H.conductor,
        "gaps": list(H.gaps()),
        "multiplicity": H.multiplicity,
        "embedding_dimension": H.embedding_dimension,
        "minimal_multiplicity": H.has_minimal_multiplicity,
        "gorenstein": H.is_symmetric,
        "cm_type": H.cm_type,
        "arf": is_arf(H),
        "finite_type_tag": cm_type_list_check(K),
    }

    cond = value_set_condition(K)
    record["vs_condition"] = {"kind": cond.kind, "witness": cond.witness}

    if H.genus == 0:
        record["kunz"] = None
        kunz_ok = True
    else:
        e = H.multiplicity  # at least 2, since H has a gap
        kv = H.kunz_coordinates(e)
        region = kunz_cone_classify(kv)
        record["kunz"] = {"e": e, "coords": list(kv.coords), "class": region}
        kunz_ok = (region != EXTERIOR
                   and (region == INTERIOR) == H.has_minimal_multiplicity)

    enum = enumerate_trace_ideals(H, prime)
    record["trace"] = {"prime": prime, **enum.to_report()}
    record["n_trace"] = enum.count_with_zero
    m_trace = any(i.is_maximal_ideal for i in enum.ideals)
    record["maximal_ideal_is_trace"] = m_trace

    bijection_ok = None
    if H.genus > 0 and H.has_minimal_multiplicity:
        rep = _bijection_report(enum)
        bijection_ok = rep.ok
        record["bijection"] = {"ok": rep.ok, "left": rep.left_count,
                               "right": rep.right_count, "blowup": rep.blowup}
    else:
        record["bijection"] = None

    probe = None
    # the least n >= 2 with n, n + 1 outside K(H), and only when 1 is outside
    # K(H): exactly family_probe's preconditions
    n = cond.witness
    if n is not None:
        rep = family_probe(H, n, _probe_samples(gens, seed))
        probe = {"n": n, "samples": list(map(int, rep.samples)),
                 "distinct": rep.distinct_results, "verdict": rep.verdict}
    record["family_probe"] = probe

    checks = record["checks"] = {
        "kunz_class_consistent": kunz_ok,
        # every enumerated ideal contains the conductor by construction
        "conductor_least_trace": any(i.is_conductor for i in enum.ideals),
        "maximal_ideal_trace_iff_not_dvr": m_trace == (H.genus != 0),
        "blowup_bijection": bijection_ok,
        "arf_value_set_condition": cond.holds() if record["arf"] else None,
    }
    record["violations"] = [name for key, name in THEOREM_CHECKS.items()
                            if checks[key] is False]
    record["flag_for_study"] = (not cond.holds())
    return record


def survey(max_genus: int, prime: int, out_dir, seed: int = 0,
           threads: int | None = None) -> dict:
    """Run the battery over every semigroup of genus <= max_genus.

    Writes one JSON per semigroup plus summary.csv and run.json under
    ``out_dir`` and returns the run record.  max_genus is capped at 10,
    and ``threads`` worker processes run it (at least one; None means 1).
    The inputs are checked before ``out_dir`` is created.
    """
    if max_genus > 10:
        raise ValueError("survey bound is genus 10")
    if prime not in ENUMERATION_PRIMES:
        raise ValueError(f"survey supports primes {ENUMERATION_PRIMES}")
    if out_dir == "":  # Path("") is the current directory
        raise ValueError("survey needs a nonempty output directory")
    semigroups = enumerate_semigroups(max_genus)  # rejects a negative genus
    threads = max(1, threads or 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gens_list = [H.minimal_generators for H in semigroups]
    t0 = time.monotonic()
    args = (gens_list, repeat(prime), repeat(seed))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(survey_one, *args))
    else:
        records = list(map(survey_one, *args))
    elapsed = time.monotonic() - t0

    summary_rows = []
    violations = []
    for rec in records:
        if rec["violations"]:
            violations.append({"gens": rec["gens"], "violations": rec["violations"]})
        summary_rows.append({
            "gens": rec["gens"],
            "genus": rec["genus"],
            "mult": rec["multiplicity"],
            "edim": rec["embedding_dimension"],
            "arf": rec["arf"],
            "kunz_class": rec["kunz"]["class"] if rec["kunz"] else "",
            "vs_condition": rec["vs_condition"]["kind"],
            "n_trace_p": rec["n_trace"],
            "bijection_ok": "" if rec["bijection"] is None else rec["bijection"]["ok"],
            "family_witness": "" if rec["family_probe"] is None
                              else rec["family_probe"]["verdict"],
        })

    run_record = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": {"command": "survey", "max_genus": max_genus, "prime": prime,
                   "out_dir": str(out_dir), "seed": seed, "threads": threads},
        "count": len(records),
        "violations": violations,
        "flagged_for_study": [r["gens"] for r in records if r["flag_for_study"]],
        "results": summary_rows,
    }
    meta = {"timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": elapsed}

    for rec in records:
        name = "H_" + rec["gens"].replace(",", "-") + ".json"
        _write_json(out / name, {"schema_version": SCHEMA_VERSION,
                                 "record": rec, "meta": meta})
    _write_json(out / "run.json", {"record": run_record, "meta": meta})
    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in summary_rows:
            writer.writerow(row)
    return run_record


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
