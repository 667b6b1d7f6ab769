"""Trace ideals of numerical semigroup rings.

The trace of a fractional ideal I is tr(I) = (R : I) * I, and ``trace``
takes it from that definition with the colon and the product of
:mod:`traceforge.ideals`; ``is_trace_ideal`` compares it with I and
``has_free_summand`` with R.  Over any field every nonzero trace
contains the conductor c, and over a finite field Tr(R) is finite: the
enumeration walks the R-submodules T of R/c with the lattice engine of
:mod:`traceforge.artin`, with one coordinate per member of H below c
(:class:`_Quotient`, built once per semigroup and prime), and runs a
fixed-point test on one module per orbit of the torus t -> lam t,
lam in F_p^*, which permutes Tr(R); the rest of each orbit is counted
and, for a trace ideal, listed by rescaling its rows.  R : T is R plus
its part on the gaps of H, so the test takes only that gap part and
stops at the first product with T that falls outside T.  Before any
product it compares value sets: a trace ideal T has
v(R : T) + v(T) inside v(T) u [c, oo), since gamma b lies in T and its
lowest term sits at the sum of those of gamma and b, and most modules
fail that on one shift of a bitmask per basis vector of the gap part
(the same valuation argument as the paper's condition for finite
Tr(R); by Lindo, T is a trace ideal exactly when R : T = T : T).
Each module carries the gap part's RREF basis and its stabilizer in the
torus down from its parent, both cut in one scan of the new row, and
only the trace ideals are lifted back to fractional ideals.  Over F_2
the torus is trivial and the gap part is kept on bits, one int per
basis vector: the new row's equations are the XOR of one int per entry,
and a vector fails an equation when the bits they share are odd in
number.
Whole-theorem checks sit on top: the blowup bijection for minimal
multiplicity, the normalization as a union of endomorphism rings, and
the colon separation probe that certifies infinite families over the
rationals; for a ring S over R the trace of S is R : S, so the probe
takes the colon alone, on the generators of S = R[g] over R (1 and the
powers of a multiple of g - g(0) below c, on integers over QQ), without
building S, and once for all nonzero samples, which t -> kt maps onto
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from math import gcd
from operator import index, mul, xor

from .artin import _check_quotient_dim, _ideal_lattice, _in_span, _monomial_table, _unit_row
from .errors import IsDVR, NotMinimalMultiplicity, PreconditionViolated
from .fields import QQ, GF
from .ideals import (FractionalIdeal, LaurentPoly, _colon, _powers, colon,
                     contains_ideal, dilate, endomorphism_ring, equals, add,
                     integral_closure_ideal, multiply, shift, unit_ideal)
from .semigroups import NumericalSemigroup, blowup, canonical_value_set

__all__ = [
    "trace",
    "is_trace_ideal",
    "has_free_summand",
    "TraceIdealInfo",
    "TraceEnumeration",
    "enumerate_trace_ideals",
    "ENUMERATION_PRIMES",
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


# ---------------------------------------------------------------------------
# the trace


def trace(I: FractionalIdeal) -> FractionalIdeal:
    """tr(I) = (R : I) * I, an ideal of R containing c (and I if integral)."""
    return multiply(colon(unit_ideal(I.field, I.semigroup), I), I)


# ---------------------------------------------------------------------------
# R/c and the fixed-point test on the gap part of R : T


@dataclass(frozen=True)
class _Quotient:
    """R/c for R = F_p[[H]], the one coordinate system of the trace kernel.

    ``exps`` are the members below c, the coordinates of R/c, and ``gaps``
    the gaps of H, numbered in increasing order.  ``shifts`` holds
    multiplication by t^g on R/c for each minimal generator g below c
    (those past it act as zero): the rows of R/c's product table at g,
    column images for the lattice engine.  ``reach[i]`` lists the pairs
    (g, j) of gap numbers with exps[i] + gap j = gap g, and ``spread[j]``
    the pairs (i, k) with exps[i] + gap j = exps[k]; ``eq_bits[i]`` packs
    ``reach[i]`` into one int, bit n g + j for each pair (g, j), with n
    the number of gaps.  ``gap_units`` are the unit vectors of the gaps,
    the gap part of R : c = K[[t]] (see :meth:`step`): tuples, one entry
    per gap, for odd p, and the ints 1 << j over F_2, where the walk keeps
    the gap part on bits.  ``roots[g]`` lists the lam != 1 of
    mu_g = {lam : lam^g = 1} for g < p.
    """

    field: object
    semigroup: NumericalSemigroup
    exps: tuple
    gaps: tuple
    shifts: tuple
    reach: tuple
    spread: tuple
    eq_bits: tuple
    gap_units: tuple
    roots: tuple

    def lift(self, rows) -> FractionalIdeal:
        """The ideal span(rows) + c, for a lattice member's RREF rows, built
        as they are: over the increasing ``exps`` they are already reduced
        echelon rows, and c is a minimal tail, since c - 1 is a gap."""
        f = self.field
        return FractionalIdeal(f, self.semigroup, self.semigroup.conductor, tuple(
            LaurentPoly(f, tuple((e, x) for e, x in zip(self.exps, r) if x)) for r in rows))

    def dilate(self, rows, pivots, lam) -> tuple:
        """The RREF rows of sigma_lam(T), where sigma_lam: t -> lam t for lam
        in F_p^* (:func:`ideals.dilate`): the row with lead e_l, rescaled to
        lead 1, takes x lam^(e_i - e_l) at coordinate i.  Zeros stay zero,
        so the rows keep their pivots and stay reduced."""
        p, e = self.field.p, self.exps
        return tuple(tuple(x * pow(lam, e[i] - e[l], p) % p if x else 0 for i, x in enumerate(r))
                     for r, l in zip(rows, pivots))

    def step(self, state, rows, pivots):
        """The walk step of :func:`enumerate_trace_ideals`: the state is
        (G, g), G the gap part of R : T and mu_g the stabilizer of T in the
        torus, or None to cut the child; v is the child's ``rows[0]``.

        sigma_lam maps R onto itself and each module to one with the same
        pivots (:meth:`dilate`), and it commutes with dropping the first
        row, so it acts on the walk's tree by automorphisms.  The stabilizer
        mu_g of the parent M (g = p - 1 at the root) permutes its children
        M + F_p v, and a child is kept only when v is the least of its
        images under it.  So the walk visits one module per orbit: some
        member of each orbit is a child of a visited module, and two
        visited members of one orbit would have the same visited parent
        and be images under its stabilizer; from g = 1 at the root it
        cuts nothing and visits every module.  The nonzero entries x of v
        off the lead walk down the chain of stabilizers to T's: fixing v
        before i takes x at i to x lam^n, n = e_i - e_lead, so with
        h = gcd(g, n) it moves x to x mu_(g/h) and fixes it exactly on
        mu_h.  The first entry moved decides the order, so the child is
        cut when some x r, r in mu_(g/h), is below x; else g becomes h.

        G is the RREF basis of the gamma, one coordinate per gap, with no
        gap terms in gamma b for any b in T.  Adding v imposes one equation
        per gap k, read off the same scan of v: the coefficient of t^k in
        gamma v is zero.  When some basis vectors fail an equation, the
        last of them clears it from the others and is dropped; it is zero
        before its lead and at their leads, so they keep their leads and
        stay the unique RREF, whatever the order of the equations.  The
        parent's G is shared with its siblings, never changed.

        Over F_2 the torus F_2^* = mu_1 is trivial, so g stays 1 and nothing
        is cut, and G is a tuple of ints, bit j the coordinate at gap j.
        v's entries are 0 or 1, and its equations are one int E, the XOR of
        ``eq_bits[i]`` over the i where v is 1; its n-bit field k is the
        equation at gap k.  exps[i] + gap j = gap k fixes i for each (k, j),
        so no two entries share a bit and the XOR only collects them.  Over
        F_2 gamma's value on an equation is the parity of the bits that
        gamma and the equation share, and the last failing vector is XORed
        into the others that fail: the same elimination on bits.
        """
        G, g = state
        if self.field.p == 2:
            if G:
                n = len(self.gaps)
                mask = (1 << n) - 1
                E = reduce(xor, compress(self.eq_bits, rows[0]), 0)
                while E and G:
                    eq = E & mask
                    E >>= n
                    if eq:
                        for last in reversed(range(len(G))):
                            drop = G[last]
                            if (drop & eq).bit_count() & 1:
                                G = tuple(gamma ^ drop if (gamma & eq).bit_count() & 1 else gamma
                                          for gamma in G[:last]) + G[last + 1:]
                                break
            return G, g
        v, lead = rows[0], pivots[0]
        p, e = self.field.p, self.exps
        n = len(self.spread)
        eqs = {}
        for i, x in enumerate(v):
            if x:
                if g > 1 and i != lead:
                    h = gcd(g, e[i] - e[lead])
                    if any(x * r % p < x for r in self.roots[g // h]):
                        return None
                    g = h
                if G:  # else gamma = 0 already: R : T = R
                    for k, j in self.reach[i]:
                        eqs.setdefault(k, [0] * n)[j] = x
        for eq in eqs.values():
            vals = [sum(map(mul, gamma, eq)) % p for gamma in G]
            fail = [k for k, x in enumerate(vals) if x]
            if fail:
                last = fail[-1]
                drop, inv = G[last], pow(vals[last], -1, p)
                G = tuple(tuple((a - x * inv * b) % p for a, b in zip(gamma, drop)) if x else gamma
                          for gamma, x in zip(G, vals[:last])) + G[last + 1:]
        return G, g


def _quotient(f, H: NumericalSemigroup) -> _Quotient:
    exps = tuple(H.members(H.conductor))
    _check_quotient_dim(len(exps))
    gaps = H.gaps()
    index = {e: i for i, e in enumerate(exps)}
    gap_index = {g: n for n, g in enumerate(gaps)}
    table = _monomial_table(f, exps, H.conductor)
    shifts = tuple(table[index[g]] for g in H.minimal_generators if g < H.conductor)
    reach = tuple(tuple((gap_index[e + j], n) for n, j in enumerate(gaps) if e + j in gap_index)
                  for e in exps)
    spread = tuple(tuple((i, index[e + j]) for i, e in enumerate(exps) if e + j in index)
                   for j in gaps)
    n = len(gaps)
    eq_bits = tuple(sum(1 << n * k + j for k, j in pairs) for pairs in reach)
    gap_units = tuple(1 << j if f.p == 2 else _unit_row(f, n, j) for j in range(n))
    roots = tuple(tuple(lam for lam in range(2, f.p) if pow(lam, g, f.p) == 1) for g in range(f.p))
    return _Quotient(f, H, exps, gaps, shifts, reach, spread, eq_bits, gap_units, roots)


def _gap_fixed_point(q: _Quotient, rows, pivots, G) -> bool:
    """Whether T = span(rows) + c is a trace ideal, for an R-module T
    with c inside T inside R, T/c given by RREF ``rows`` over ``q.exps``
    with the given pivot columns, and ``G`` the RREF basis of the gap part
    of R : T (:meth:`_Quotient.step`).

    R T lies in T, so R lies in R : T, and modulo c, R : T = R/c + G,
    where G holds the elements of R : T supported on the gaps.  Hence
    tr(T) = T + G T, and T is a trace ideal exactly when gamma b lies in
    T for every basis vector gamma of G and every row b
    (:func:`_gap_products_in_span`).

    The value sets reject most modules before any product: a trace ideal
    T has v(R : T) + v(T) inside v(T) u [c, oo).  For gamma in R : T with
    lowest term at a and b in T with lowest term at e, gamma b lies in
    tr(T) = T, and its lowest term, the product of those two, sits at
    a + e; so a + e < c puts a + e in v(T).  For a in H this holds for
    every module T, and the other values of R : T are the leads of G's
    RREF basis, whose first nonzero entries are 1.  v(T) below c is the
    set of exps at T's pivots, one bitmask, so a basis vector with lead
    gap a rules T out when v(T) shifted by a meets a value below c outside
    v(T).  The test is necessary, not sufficient: the products decide the
    modules that pass it.  Over F_2, where G packs each basis vector into
    an int (:meth:`_Quotient.step`), the lead is the lowest set bit, and G
    becomes tuples only for the products, which few modules reach.
    """
    e = q.exps
    vt = 0
    for l in pivots:
        vt |= 1 << e[l]
    outside = ((1 << q.semigroup.conductor) - 1) ^ vt  # the values below c outside v(T)
    bits = q.field.p == 2
    for gamma in G:
        lead = (gamma & -gamma).bit_length() - 1 if bits else gamma.index(1)
        if (vt << q.gaps[lead]) & outside:
            return False
    if bits:
        G = tuple(tuple(gamma >> j & 1 for j in range(len(q.gaps))) for gamma in G)
    return _gap_products_in_span(q, rows, pivots, G)


def _gap_products_in_span(q: _Quotient, rows, pivots, G) -> bool:
    """Whether gamma b lies in T = span(rows) + c for every basis vector
    gamma of ``G`` and every row b, with the arguments of
    :func:`_gap_fixed_point`; it stops at the first product outside T."""
    p = q.field.p
    d = len(q.exps)
    for gamma in G:
        # gamma spread onto R/c
        terms = [(i, k, x) for g, x in enumerate(gamma) if x for i, k in q.spread[g]]
        for b in rows:
            v = [0] * d
            for i, k, x in terms:
                y = b[i]
                if y:
                    v[k] += x * y
            if not _in_span(rows, pivots, v, p):
                return False
    return True


def is_trace_ideal(I: FractionalIdeal) -> bool:
    """Fixed-point test tr(I) = I for a nonzero integral ideal, from the
    definition of the trace."""
    if not contains_ideal(unit_ideal(I.field, I.semigroup), I):
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
    ideal and is only counted.  ``census`` counts every R-submodule of
    R/c, that is every candidate ideal between the conductor and R,
    though only one module per torus orbit is tested.
    """

    field: object
    semigroup: NumericalSemigroup
    ideals: tuple
    census: int

    @property
    def count_with_zero(self) -> int:
        return len(self.ideals) + 1

    def to_report(self) -> dict:
        return {
            "semigroup": self.semigroup.text,
            "field": repr(self.field),
            "census": self.census,
            "zero_ideal_included": True,
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


def enumerate_trace_ideals(H: NumericalSemigroup, p: int) -> TraceEnumeration:
    """All nonzero trace ideals of F_p[[H]], in canonical form.

    Every nonzero trace ideal contains c, so it is T = span(rows) + c
    for a submodule of R/c, and :func:`_gap_fixed_point` decides from
    the gap part of R : T whether tr(T) = T; the tables of R/c are built
    once for all candidates.  With d = dim R/c, the conductor, the
    maximal ideal and R are the submodules of dimension 0, d - 1 and d.

    The walk tests one module per orbit of the torus t -> lam t, lam in
    F_p^*, which permutes Tr(R) (:meth:`_Quotient.step`): a module
    with stabilizer mu_g counts (p - 1)/g in the census, and a trace
    ideal T is listed with its images under every lam outside mu_g; each
    image arrives g times, and the set keeps one.
    """
    if p not in ENUMERATION_PRIMES:
        raise ValueError(f"enumeration supports primes {ENUMERATION_PRIMES}")
    q = _quotient(GF(p), H)
    d = len(q.exps)
    fixed = set()
    census = 0
    walk = _ideal_lattice(p, d, q.shifts, q.step, (q.gap_units, p - 1))
    for rows, pivots, (G, g) in walk:
        census += (p - 1) // g
        if _gap_fixed_point(q, rows, pivots, G):
            fixed.add(rows)
            fixed.update(q.dilate(rows, pivots, lam) for lam in range(2, p)
                         if lam not in q.roots[g])
    infos = []
    for rows in sorted(fixed, key=lambda rows: (len(rows), rows)):
        ideal = q.lift(rows)
        infos.append(TraceIdealInfo(
            ideal=ideal,
            is_conductor=not rows,
            is_maximal_ideal=len(rows) == d - 1,
            is_unit_ideal=len(rows) == d,
            is_monomial=all(r.is_monomial() for r in ideal.rows),
        ))
    return TraceEnumeration(q.field, H, tuple(infos), census=census)


# ---------------------------------------------------------------------------
# blowup bijection (minimal multiplicity)


@dataclass(frozen=True)
class BijectionReport:
    ok: bool
    left_count: int   # |Tr(R) \ {R}|, zero ideal included
    right_count: int  # |Tr(B)|, zero ideal included
    semigroup: str
    blowup: str
    prime: int


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
    return _bijection_report(enumerate_trace_ideals(H, p))


def _bijection_report(top: TraceEnumeration) -> BijectionReport:
    """:func:`verify_bijection` given Tr(H), for an H that passes its guards."""
    H, p = top.semigroup, top.field.p
    e = H.multiplicity
    L = blowup(H)
    bottom = enumerate_trace_ideals(L, p)
    # shifting is injective and keeps canonical form, and every member of
    # Tr(B) is a module over K[[L]], so equal key sets prove the bijection
    images = [shift(i.ideal, -e) for i in top.ideals if not i.is_unit_ideal]
    keys = {(I.tail, I.rows) for I in images}
    target = {(i.ideal.tail, i.ideal.rows) for i in bottom.ideals}
    return BijectionReport(ok=keys == target,
                           left_count=len(images) + 1,
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
    """Separate tr(R[g]) = R : R[g] for g = t^n + k t^(n+1) over the sample values k.

    Requires an integer n >= 0 (taken through ``operator.index``, so a float
    is refused), 1, n and n+1 all outside K(H), and at least one sample,
    all distinct.  R : S is an S-module for a ring S over R, so
    tr(S) = (R : S) S = R : S, and the probe takes the colon alone, with
    no product, from the generators of R[g] over R (:func:`_overring_trace`).
    One colon serves every nonzero k: the automorphism t -> kt of K((t))
    maps R onto itself and t^n + t^(n+1) to k^n (t^n + k t^(n+1)), and k^n
    is a unit, so the colon for k is the image of the colon for k = 1
    (:func:`_probe_colons`).  When every pair of samples yields a
    different ideal, the probe certifies an infinite family over QQ.
    """
    n = index(n)
    if n < 0:
        raise PreconditionViolated(
            f"probe exponent {n} is negative: t^n + k*t^(n+1) is not integral over R")
    K = canonical_value_set(H)
    bad = [x for x in (1, n, n + 1) if x in K]
    if bad:
        raise PreconditionViolated(
            f"value set of the canonical ideal of {H} contains {bad}")
    samples = tuple(QQ.element(s) for s in samples)
    if not samples:
        raise ValueError("the probe needs at least one sample")
    if len(set(samples)) != len(samples):
        raise ValueError("samples must be pairwise distinct")
    distinct = len({(T.tail, T.rows) for T in _probe_colons(H, n, samples)})
    witness = len(samples) >= 2 and distinct == len(samples)
    return FamilyProbeReport(
        semigroup=H.text,
        exponent=n,
        template=f"t^{n} + k*t^{n + 1}",
        samples=samples,
        distinct_results=distinct,
        verdict="infinite-family-witness" if witness else "no-separation",
    )


def _probe_colons(H: NumericalSemigroup, n: int, samples) -> list:
    """R : R[t^n + k t^(n+1)] over QQ for each ``Fraction`` sample k, in order.

    k = 0 takes its own colon, R : R[t^n]; every other k dilates the one
    colon for k = 1, solved at the first nonzero sample, by t -> kt.
    """
    R = unit_ideal(QQ, H)
    base = None
    colons = []
    for k in samples:
        if not k:
            colons.append(_overring_trace(R, LaurentPoly.monomial(QQ, n)))
            continue
        if base is None:
            base = _overring_trace(R, LaurentPoly.from_dict(QQ, {n: QQ.one, n + 1: QQ.one}))
        colons.append(dilate(base, k))
    return colons


def _overring_trace(R: FractionalIdeal, g: LaurentPoly) -> FractionalIdeal:
    """tr(R[g]) = R : R[g], from 1 and the powers of :func:`ideals._powers`:
    lo(R[g]) = 0, and R[g]'s other generators lie in c and impose nothing."""
    return _colon(R, _powers(R.field, R.semigroup, g), 0)


# ---------------------------------------------------------------------------
# normalization as a union of endomorphism rings


def verify_normalization_union(H: NumericalSemigroup, p: int) -> bool:
    """The module sum of I : I over all nonzero trace ideals is K[[t]]."""
    enum = enumerate_trace_ideals(H, p)
    total = reduce(add, (endomorphism_ring(info.ideal) for info in enum.ideals))
    return equals(total, integral_closure_ideal(enum.field, H))


# ---------------------------------------------------------------------------
# when Tr(R) is as small as possible


MINIMAL_TRACE_SET = "minimal-trace-set"
LARGER = "larger"


def minimal_trace_classification(H: NumericalSemigroup) -> str:
    """Whether Tr(R) is contained in {0, m, R}.

    That happens exactly when the maximal ideal sits inside the
    conductor, that is, when no nonzero member lies below c: e >= c (N0
    too, with e = 1 > c = 0 and Tr = {0, R}).
    """
    return MINIMAL_TRACE_SET if H.multiplicity >= H.conductor else LARGER
