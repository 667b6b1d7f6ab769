"""Trace ideals of numerical semigroup rings.

The trace of a fractional ideal I is tr(I) = (R : I) * I; an integral
ideal is a trace ideal exactly when it is a fixed point of that map.
Over a finite coefficient field every nonzero trace ideal contains the
conductor, so Tr(R) embeds into the finite lattice of R-submodules of
R / conductor; this module builds that lattice with the cover-based
engine of :mod:`traceforge.artin`, fed the shifts by the minimal
generators below the conductor, lifts every member to an ideal and
filters it, and layers several whole-theorem checks on top (the
smallest-trace statements, the blowup bijection for minimal
multiplicity, the value-set necessary condition, and the colon
separation probe that certifies infinite families over the rationals).
"""

from __future__ import annotations

from dataclasses import dataclass

from .artin import ENUMERATION_DIM_LIMIT, _check_quotient_dim, _ideal_lattice
from .errors import IsDVR, NotMinimalMultiplicity, PreconditionViolated
from .fields import QQ, GF
from .ideals import (FractionalIdeal, LaurentPoly, adjoin, colon, contains_ideal,
                     closed_under, conductor_ideal, endomorphism_ring, equals,
                     from_window_vectors, add, integral_closure_ideal,
                     maximal_ideal, multiply, reinterpret, shift, unit_ideal)
from .semigroups import NumericalSemigroup, blowup, canonical_value_set

__all__ = [
    "trace",
    "is_trace_ideal",
    "has_free_summand",
    "TraceIdealInfo",
    "TraceEnumeration",
    "enumerate_trace_ideals",
    "ENUMERATION_PRIMES",
    "ENUMERATION_DIM_LIMIT",
    "verify_smallest_regular_trace",
    "BijectionReport",
    "verify_bijection",
    "FamilyProbeReport",
    "family_probe",
    "verify_normalization_union",
    "minimal_trace_classification",
    "MINIMAL_TRACE_SET",
    "LARGER",
]

ENUMERATION_PRIMES = (2, 3, 5, 7)


def trace(I: FractionalIdeal) -> FractionalIdeal:
    """tr(I) = (R : I) * I.

    The formula is invariant under monomial scaling of I, so fractional
    inputs need no prior normalization; the result is an ideal of R and
    contains I whenever I is integral.
    """
    R = unit_ideal(I.field, I.semigroup)
    return multiply(colon(R, I), I)


def is_trace_ideal(I: FractionalIdeal) -> bool:
    """Fixed-point test tr(I) = I for a nonzero integral ideal."""
    R = unit_ideal(I.field, I.semigroup)
    if not contains_ideal(R, I):
        raise ValueError("trace fixed-point test needs an integral ideal")
    return equals(trace(I), I)


def has_free_summand(I: FractionalIdeal) -> bool:
    """tr(I) = R, i.e. I has a free direct summand (here: I is principal)."""
    R = unit_ideal(I.field, I.semigroup)
    if not contains_ideal(R, I):
        raise ValueError("free-summand test needs an integral ideal")
    return equals(trace(I), R)


# ---------------------------------------------------------------------------
# exhaustive enumeration over a prime field


@dataclass(frozen=True)
class TraceIdealInfo:
    ideal: FractionalIdeal
    is_conductor: bool
    is_maximal_ideal: bool
    is_unit_ideal: bool
    is_monomial: bool

    def label(self) -> str:
        if self.is_unit_ideal:
            return "R"
        if self.is_conductor and self.is_maximal_ideal:
            return "m = c"
        if self.is_conductor:
            return "c"
        body = ", ".join(str(r) for r in self.ideal.rows)
        name = f"c+({body})" if body else "c"
        return f"m = {name}" if self.is_maximal_ideal else name


@dataclass(frozen=True)
class TraceEnumeration:
    """The complete set of trace ideals of K[[H]] over a finite field.

    ``ideals`` lists the nonzero trace ideals in canonical form, sorted
    by dimension over the conductor; the zero ideal is always a trace
    ideal and is carried as a flag.  ``census`` counts every candidate
    ideal between the conductor and R that was examined.
    """

    field: object
    semigroup: NumericalSemigroup
    ideals: tuple
    census: int
    zero_ideal_included: bool = True

    @property
    def count_with_zero(self) -> int:
        return len(self.ideals) + 1

    def to_report(self) -> dict:
        return {
            "semigroup": self.semigroup.text,
            "field": repr(self.field),
            "census": self.census,
            "zero_ideal_included": self.zero_ideal_included,
            "trace_ideals": [
                {
                    **info.ideal.to_json(),
                    "label": info.label(),
                    "is_conductor": info.is_conductor,
                    "is_maximal_ideal": info.is_maximal_ideal,
                    "is_unit_ideal": info.is_unit_ideal,
                    "is_monomial": info.is_monomial,
                }
                for info in self.ideals
            ],
        }


def _generator_shifts(H: NumericalSemigroup, exps: list[int]) -> list[list]:
    """Multiplication by t^g on R / conductor, one map per minimal generator g.

    ``exps`` are the members below the conductor, the monomial basis of
    R / conductor; each map lists the image of every basis monomial.
    Generators at or past the conductor act as zero and are left out.
    """
    d = len(exps)
    index = {e: i for i, e in enumerate(exps)}
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    zero = (0,) * d
    return [[units[index[e + g]] if e + g in index else zero for e in exps]
            for g in H.minimal_generators if g < H.conductor]


def _lift(H: NumericalSemigroup, f, exps: list[int], rows: tuple) -> FractionalIdeal:
    polys = [LaurentPoly.from_dict(f, {exps[i]: c for i, c in enumerate(r)})
             for r in rows]
    return from_window_vectors(f, H, polys, H.conductor)


def enumerate_trace_ideals(H: NumericalSemigroup, p: int) -> TraceEnumeration:
    """All nonzero trace ideals of F_p[[H]], in canonical form.

    Complete because every nonzero trace ideal contains the conductor,
    so it is one of the finitely many submodules of R / conductor.
    """
    if p not in ENUMERATION_PRIMES:
        raise ValueError(f"enumeration supports primes {ENUMERATION_PRIMES}")
    exps = list(H.members(H.conductor))
    _check_quotient_dim(len(exps))
    f = GF(p)
    lattice = _ideal_lattice(p, len(exps), _generator_shifts(H, exps))
    found = []
    for rows in lattice:
        ideal = _lift(H, f, exps, rows)
        if is_trace_ideal(ideal):
            found.append(ideal)
    R = unit_ideal(f, H)
    C = conductor_ideal(f, H)
    M = maximal_ideal(f, H)
    infos = tuple(
        TraceIdealInfo(
            ideal=I,
            is_conductor=equals(I, C),
            is_maximal_ideal=equals(I, M),
            is_unit_ideal=equals(I, R),
            is_monomial=all(r.is_monomial() for r in I.rows),
        )
        for I in found
    )
    enum = TraceEnumeration(f, H, infos, census=len(lattice))
    ok_conductor = any(i.is_conductor for i in enum.ideals)
    ok_unit = any(i.is_unit_ideal for i in enum.ideals)
    ok_contain = all(contains_ideal(i.ideal, C) for i in enum.ideals)
    if not (ok_conductor and ok_unit and ok_contain):
        raise AssertionError(f"trace enumeration invariants failed for {H} over {f!r}")
    return enum


def verify_smallest_regular_trace(H: NumericalSemigroup, p: int) -> bool:
    """Every nonzero trace ideal contains the conductor, which is itself one."""
    enum = enumerate_trace_ideals(H, p)
    C = conductor_ideal(enum.field, H)
    return (any(i.is_conductor for i in enum.ideals)
            and all(contains_ideal(i.ideal, C) for i in enum.ideals))


# ---------------------------------------------------------------------------
# blowup bijection (minimal multiplicity)


@dataclass(frozen=True)
class BijectionReport:
    ok: bool
    left_count: int   # |Tr(R) \ {R}|, zero ideal included
    right_count: int  # |Tr(B)|, zero ideal included
    semigroup: str = ""
    blowup: str = ""
    prime: int = 0


def verify_bijection(H: NumericalSemigroup, p: int) -> BijectionReport:
    """Check that I -> I / t^e maps Tr(R) minus R bijectively onto Tr(B).

    B is the endomorphism ring of the maximal ideal; at the semigroup
    level it is the blowup L(H).  Requires minimal multiplicity and
    excludes the discrete valuation ring.
    """
    if H.genus == 0:
        raise IsDVR("the bijection excludes N0")
    if not H.has_minimal_multiplicity:
        raise NotMinimalMultiplicity(f"{H} has multiplicity {H.multiplicity} "
                                     f"but embedding dimension {H.embedding_dimension}")
    e = H.multiplicity
    L = blowup(H)
    top = enumerate_trace_ideals(H, p)
    bottom = enumerate_trace_ideals(L, p)
    mapped = []
    ok = True
    for info in top.ideals:
        if info.is_unit_ideal:
            continue
        image = shift(info.ideal, -e)
        if not closed_under(image, L):
            ok = False
            continue
        mapped.append(reinterpret(image, L))
    keys = {(I.tail, I.rows) for I in mapped}
    target = {(i.ideal.tail, i.ideal.rows) for i in bottom.ideals}
    ok = ok and len(keys) == len(mapped) and keys == target
    return BijectionReport(ok=ok,
                           left_count=len(mapped) + 1,
                           right_count=len(bottom.ideals) + 1,
                           semigroup=H.text, blowup=L.text, prime=p)


# ---------------------------------------------------------------------------
# colon separation probe over the rationals


@dataclass(frozen=True)
class FamilyProbeReport:
    semigroup: str
    exponent: int
    template: str
    samples: tuple
    distinct_results: int
    verdict: str  # "infinite-family-witness" or "no-separation"


def family_probe(H: NumericalSemigroup, n: int, samples) -> FamilyProbeReport:
    """Separate the trace ideals R : R[t^n + k t^(n+1)] for sample values k.

    Requires 1, n and n+1 all outside K(H).  Each colon is a trace ideal;
    when every pair of samples yields a different one, the probe
    certifies an infinite family over an infinite coefficient field.
    """
    K = canonical_value_set(H)
    bad = [x for x in (1, n, n + 1) if x in K]
    if bad:
        raise PreconditionViolated(
            f"value set of the canonical ideal of {H} contains {bad}")
    samples = tuple(QQ.element(s) for s in samples)
    if len(set(samples)) != len(samples):
        raise ValueError("samples must be pairwise distinct")
    R = unit_ideal(QQ, H)
    results = []
    for k in samples:
        g = LaurentPoly.from_dict(QQ, {n: QQ.one, n + 1: k})
        C = colon(R, adjoin(QQ, H, g))
        if not is_trace_ideal(C):
            raise AssertionError(f"R : R[{g}] is not a trace ideal over {H}")
        results.append((C.tail, C.rows))
    distinct = len(set(results))
    witness = len(samples) >= 2 and distinct == len(samples)
    return FamilyProbeReport(
        semigroup=H.text,
        exponent=n,
        template=f"t^{n} + k*t^{n + 1}",
        samples=samples,
        distinct_results=distinct,
        verdict="infinite-family-witness" if witness else "no-separation",
    )


# ---------------------------------------------------------------------------
# normalization as a union of endomorphism rings


def verify_normalization_union(H: NumericalSemigroup, p: int) -> bool:
    """The module sum of I : I over all nonzero trace ideals is K[[t]]."""
    enum = enumerate_trace_ideals(H, p)
    total = None
    for info in enum.ideals:
        E = endomorphism_ring(info.ideal)
        total = E if total is None else add(total, E)
    return equals(total, integral_closure_ideal(enum.field, H))


# ---------------------------------------------------------------------------
# when Tr(R) is as small as possible


MINIMAL_TRACE_SET = "minimal-trace-set"
LARGER = "larger"


def minimal_trace_classification(H: NumericalSemigroup) -> str:
    """Whether Tr(R) is contained in {0, m, R}.

    That happens exactly when the maximal ideal sits inside the
    conductor, i.e. every nonzero member is at least the conductor
    (including N0 itself, where Tr = {0, R}).
    """
    small = all(h >= H.conductor for h in H.members(H.conductor) if h > 0)
    return MINIMAL_TRACE_SET if small else LARGER
