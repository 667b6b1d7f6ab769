"""The benchmark workloads: inputs from a seed, one pass, output checks.

A workload is a fixed list of items; one pass runs every item once, in
the order the seed chose, in this process and on one thread.  Every item
is one operation: it fails when it raises or when its output differs
from the committed reference in ``references.json``.  Outputs that
depend on the seed (probe samples) are checked against invariants.

Only the public functions of the traceforge modules are called, always
through their module, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import shutil
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from time import perf_counter

from tracer import BENCH_ITEM

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"

semigroups = importlib.import_module("traceforge.semigroups")
fields = importlib.import_module("traceforge.fields")
ideals = importlib.import_module("traceforge.ideals")
trace = importlib.import_module("traceforge.trace")
artin = importlib.import_module("traceforge.artin")
batch = importlib.import_module("traceforge.batch")

PROBE_SAMPLES = 5


def digest(value) -> str:
    """SHA-256 of the canonical JSON text of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def ideal_key(I) -> list:
    """The canonical (tail, rows) of a fractional ideal as JSON data."""
    return [I.tail, [r.to_json() for r in I.rows]]


def semigroup(text: str):
    return semigroups.NumericalSemigroup.from_generators(semigroups.parse_generators(text))


def rational_samples(rng: random.Random, count: int = PROBE_SAMPLES) -> list[Fraction]:
    """``count`` pairwise-distinct nonzero rationals of bounded height."""
    out: list[Fraction] = []
    while len(out) < count:
        k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))
        if k not in out:
            out.append(k)
    return out


class Failed:
    """The output of an item that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


class ItemClock:
    """Times each item of a pass; with a tracer it also opens an item span."""

    def __init__(self, tracer=None):
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.tracer = tracer
        self._span_name = tracer.name_id(BENCH_ITEM) if tracer else None

    @contextmanager
    def item(self):
        tracer = self.tracer
        if tracer is not None:
            tracer.item = len(self.times)
            sid = tracer.open(self._span_name)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.times.append(t1 - t0)
            self.spans.append((t0, t1))
            if tracer is not None:
                tracer.close(sid)


class Workload:
    """Base class: a list of items run one after another."""

    name = ""

    def __init__(self, references: dict):
        self.references = references

    def build(self, seed: int) -> list:
        """The items of a pass, in the order chosen by ``seed``."""
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def key(self, item) -> str:
        raise NotImplementedError

    def summarize(self, item, out) -> dict:
        """The seed-independent part of an output, compared with the reference."""
        raise NotImplementedError

    def invariant_error(self, item, out) -> str | None:
        """A violated invariant of the seed-dependent part of an output."""
        return None

    def batches(self, items: list) -> list[list]:
        """The timed units of a pass: by default every item on its own."""
        return [[item] for item in items]

    def run_pass(self, items: list, clock: ItemClock) -> list:
        outs = []
        for batch in self.batches(items):
            with clock.item():
                for item in batch:
                    try:
                        out = self.run_item(item)
                    except Exception as exc:  # an operation that raised counts as failed
                        out = Failed(exc)
                    outs.append(out)
        return outs

    def check(self, items: list, outs: list) -> list[str | None]:
        """One entry per operation: None when correct, else what went wrong."""
        return [self.check_item(item, out) for item, out in zip(items, outs)]

    def cleanup(self, outs: list):
        """Remove whatever a pass left on disk, once its outputs are checked."""

    def check_item(self, item, out) -> str | None:
        key = self.key(item)
        if isinstance(out, Failed):
            return f"{key}: raised {out.message}"
        ref = self.references.get(key)
        if ref is None:
            return f"{key}: no reference"
        try:
            got = self.summarize(item, out)
            bad = self.invariant_error(item, out) if got == ref else None
        except Exception as exc:  # an output too broken to summarize is wrong
            return f"{key}: unreadable output ({type(exc).__name__}: {exc})"
        if got != ref:
            return f"{key}: output {got} differs from reference {ref}"
        return f"{key}: {bad}" if bad else None


class SurveyG6(Workload):
    """``batch.survey`` over every semigroup of genus <= 6 with p = 2."""

    name = "survey-g6"
    MAX_GENUS = 6
    PRIME = 2

    def build(self, seed: int) -> list:
        self.seed = seed
        return [H.text for H in semigroups.enumerate_semigroups(self.MAX_GENUS)]

    def key(self, item) -> str:
        return item

    def run_pass(self, items: list, clock: ItemClock) -> list:
        OUT_DIR.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="survey-", dir=OUT_DIR)
        original = batch.survey_one

        def clocked(*args, **kwargs):
            with clock.item():
                return original(*args, **kwargs)

        batch.survey_one = clocked
        try:
            batch.survey(self.MAX_GENUS, self.PRIME, out_dir, seed=self.seed, threads=1)
        except Exception as exc:  # the whole survey failed: every record is missing
            failure = Failed(exc)
            shutil.rmtree(out_dir, ignore_errors=True)
            return [failure] * len(items)
        finally:
            batch.survey_one = original
        return [Path(out_dir)] * len(items)

    def cleanup(self, outs: list):
        for d in {o for o in outs if isinstance(o, Path)}:
            shutil.rmtree(d, ignore_errors=True)

    @staticmethod
    def record(item, out_dir: Path) -> dict:
        path = out_dir / ("H_" + item.replace(",", "-") + ".json")
        return json.loads(path.read_text())["record"]

    def summarize(self, item, out) -> dict:
        rec = self.record(item, out)
        probe = rec.get("family_probe")
        if probe:
            rec["family_probe"] = {**probe, "samples": None}
        return {"record_sha256": digest(rec)}

    def invariant_error(self, item, out) -> str | None:
        probe = self.record(item, out).get("family_probe")
        if not probe:
            return None
        s = probe["samples"]
        if not (len(s) == PROBE_SAMPLES and s == sorted(set(s))
                and all(isinstance(k, int) and 0 <= k < 40 for k in s)):
            return f"probe samples {s} are not {PROBE_SAMPLES} distinct integers in [0, 40)"
        if probe["distinct"] != len(s):
            return f"probe separated {probe['distinct']} of {len(s)} samples"
        return None


class EnumHard(Workload):
    """``trace.enumerate_trace_ideals`` on four lattice shapes and fields."""

    name = "enum-hard"
    CASES = (("6,7,8,9,10", 2), ("5,7,8,9", 3), ("3,7", 7), ("4,5", 5))

    def build(self, seed: int) -> list:
        items = [(text, semigroup(text), p) for text, p in self.CASES]
        random.Random(seed).shuffle(items)
        return items

    def key(self, item) -> str:
        return f"{item[0]}/F_{item[2]}"

    def run_item(self, item):
        return trace.enumerate_trace_ideals(item[1], item[2])

    def summarize(self, item, out) -> dict:
        return {"count_with_zero": out.count_with_zero, "census": out.census,
                "ideals_sha256": digest([ideal_key(i.ideal) for i in out.ideals])}


def probe_exponent(H) -> int | None:
    """Least n >= 2 with n, n + 1 and 1 outside K(H), as the survey picks it."""
    K = semigroups.canonical_value_set(H)
    if 1 in K:
        return None
    return next((n for n in range(2, H.frobenius + 1)
                 if n not in K and (n + 1) not in K), None)


class IdealsQQ(Workload):
    """Colon, adjoin, multiply and canonical forms over QQ; no lattice, no F_p.

    Each semigroup is one operation, but the timed unit is a genus: a
    single semigroup takes about 0.15 s, too short for a steady
    straggler time on a machine whose speed changes within tenths of a
    second, while the genus-8 batch takes seconds.
    """

    name = "ideals-qq"
    MAX_GENUS = 8

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        levels: dict[int, list] = {}
        for H in semigroups.enumerate_semigroups(self.MAX_GENUS):
            n = probe_exponent(H)
            samples = rational_samples(rng) if n is not None else None
            levels.setdefault(H.genus, []).append((H, n, samples))
        order = list(levels)
        rng.shuffle(order)
        items = []
        for genus in order:
            rng.shuffle(levels[genus])
            items += levels[genus]
        return items

    def batches(self, items: list) -> list[list]:
        return [list(batch) for _, batch in groupby(items, key=lambda item: item[0].genus)]

    def key(self, item) -> str:
        return item[0].text

    def run_item(self, item):
        H, n, samples = item
        QQ = fields.QQ
        probe = trace.family_probe(H, n, samples) if n is not None else None
        W, r = ideals.canonical_fractional_ideal(QQ, H)
        E = ideals.endomorphism_ring(ideals.maximal_ideal(QQ, H))
        return probe, W, r, E

    def summarize(self, item, out) -> dict:
        probe, W, r, E = out
        return {"probe_exponent": item[1], "reduction_exponent": r,
                "canonical_sha256": digest(ideal_key(W)),
                "endomorphism_sha256": digest(ideal_key(E))}

    def invariant_error(self, item, out) -> str | None:
        probe, samples = out[0], item[2]
        if probe is None:
            return None
        if tuple(probe.samples) != tuple(samples):
            return "probe reports other samples than it was given"
        if probe.distinct_results != len(samples) or probe.verdict != "infinite-family-witness":
            return (f"probe separated {probe.distinct_results} of {len(samples)} samples "
                    f"({probe.verdict})")
        return None


class ArtinCensus(Workload):
    """Trace ideals of Artinian algebras by the Hom definition."""

    name = "artin-census"
    QUOTIENTS = (("5,7,8,9", 2), ("4,6,9", 3), ("3,7", 5), ("4,5", 3))
    SEPARATION = "gorenstein_two_generators/QQ separation"

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        items = [(f"F_{p}[[{text}]]/c", artin.semigroup_quotient(semigroup(text), p))
                 for text, p in self.QUOTIENTS]
        items += [
            ("gorenstein_two_generators/F_7", artin.gorenstein_two_generators(fields.GF(7))),
            ("truncated_dvr(7)/F_3", artin.truncated_dvr(fields.GF(3), 7)),
            ("truncated_dvr(9)/F_2", artin.truncated_dvr(fields.GF(2), 9)),
            (self.SEPARATION, artin.gorenstein_two_generators(fields.QQ),
             rational_samples(rng)),
        ]
        rng.shuffle(items)
        return items

    def key(self, item) -> str:
        return item[0]

    def run_item(self, item):
        if item[0] == self.SEPARATION:
            A, samples = item[1], item[2]
            return artin.gorenstein_family_separation(A, (0, 1, 0, 0), (0, 0, 1, 0), samples)
        return artin.enumerate_trace_ideals_artinian(item[1])

    def summarize(self, item, out) -> dict:
        if item[0] == self.SEPARATION:
            return {"separated_all_samples": out == len(item[2])}
        rows = sorted(I.rows for I in out)
        return {"dims": sorted(I.dim for I in out), "rows_sha256": digest(
            [[[str(x) for x in row] for row in I] for I in rows])}


WORKLOADS = {w.name: w for w in (SurveyG6, EnumHard, IdealsQQ, ArtinCensus)}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def make(name: str, references: dict | None = None) -> Workload:
    refs = load_references() if references is None else references
    return WORKLOADS[name](refs.get(name, {}))
