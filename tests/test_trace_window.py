"""The trace and the window trace test against the oracles.

``enumerate_trace_ideals`` decides everything in R/c, and
``_oracles.trace_by_window`` computes the whole trace in K[t]/(t^c);
``trace`` and ``_oracles.trace_by_colon`` compute (R : I) * I on
fractional ideals and assume nothing about the conductor, and
``is_trace_ideal`` compares ``trace(I)`` with I.  Canonical forms are
unique, so all of them must agree exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import closed_under, trace_by_colon, trace_by_window
from traceforge.artin import _ideal_lattice
from traceforge.fields import GF, QQ
from traceforge.ideals import (LaurentPoly, _canonical, adjoin, colon, conductor_ideal,
                               contains_ideal, equals, ideal_from_generators, maximal_ideal,
                               shift, unit_ideal)
from traceforge.semigroups import NumericalSemigroup, enumerate_semigroups
from traceforge.trace import _quotient, enumerate_trace_ideals, is_trace_ideal, trace


@st.composite
def ideals(draw):
    """An ideal of a genus <= 6 semigroup ring, generated by one to three
    series supported on H, with or without the conductor, then shifted
    by t^k (k = 0, so integral, about half of the time)."""
    H = draw(st.sampled_from(list(enumerate_semigroups(6))))
    f = draw(st.sampled_from([GF(2), GF(3), GF(5), QQ]))
    if f.finite:
        unit = st.integers(1, f.p - 1)
    else:
        unit = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    exps = list(H.members(H.conductor + 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.sampled_from(exps))
        near = [e for e in exps if lo < e <= lo + 6]
        support = [lo] + (draw(st.lists(st.sampled_from(near), max_size=3)) if near else [])
        gens.append(LaurentPoly.from_dict(f, {e: f.element(draw(unit)) for e in support}))
    I = ideal_from_generators(f, H, gens, with_conductor=draw(st.booleans()))
    return shift(I, draw(st.one_of(st.just(0), st.integers(-5, 5))))


@settings(max_examples=300, deadline=None)
@given(ideals())
def test_window_trace_matches_colon_oracle(I):
    T, W = trace_by_colon(I), trace(I)
    assert equals(W, T)
    assert equals(W, trace_by_window(I))
    assert closed_under(W, I.semigroup)  # trace() does not check it
    if contains_ideal(unit_ideal(I.field, I.semigroup), I):
        assert is_trace_ideal(I) == equals(T, I)
    else:
        with pytest.raises(ValueError):
            is_trace_ideal(I)


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_matches_oracle_fixed_points(p):
    # lift every lattice member by elimination, check that it is a module,
    # and keep the oracle's fixed points; the direct lift of every member
    # must match, and the flags read off the dimension the named ideals
    f = GF(p)
    for H in enumerate_semigroups(5):
        q = _quotient(f, H)
        exps = q.exps
        lattice = sorted((rows for rows, *_ in _ideal_lattice(p, len(exps), q.shifts)),
                         key=lambda rows: (len(rows), rows))
        lifted = [_canonical(f, H, [LaurentPoly.from_dict(f, dict(zip(exps, r)))
                                    for r in rows], H.conductor)
                  for rows in lattice]
        assert all(closed_under(I, H) for I in lifted), H
        assert [q.lift(rows) for rows in lattice] == lifted, H
        expected = [I for I in lifted if equals(trace_by_colon(I), I)]
        enum = enumerate_trace_ideals(H, p)
        assert enum.census == len(lattice), H
        assert [i.ideal for i in enum.ideals] == expected, H
        named = (conductor_ideal(f, H), maximal_ideal(f, H), unit_ideal(f, H))
        for info in enum.ideals:
            flags = (info.is_conductor, info.is_maximal_ideal, info.is_unit_ideal)
            assert flags == tuple(equals(info.ideal, N) for N in named), (H, info)


def test_lifted_members_read_back():
    # R/c -> ideals -> R/c is the identity on lattice members: the lift
    # keeps each member's RREF rows, read at the members below c, and its
    # pivots, read at the rows' valuations
    for H in enumerate_semigroups(5):
        for p in (2, 3):
            q = _quotient(GF(p), H)
            index = {e: i for i, e in enumerate(q.exps)}
            for rows, pivots, *_ in _ideal_lattice(p, len(q.exps), q.shifts):
                I = q.lift(rows)
                assert I.tail == H.conductor  # nothing of R/c is left in the tail
                read = tuple(tuple(dict(r.terms).get(e, 0) for e in q.exps) for r in I.rows)
                assert read == rows, (H, p, rows)
                assert tuple(index[e] for e in I.pivots) == pivots, (H, p, rows)


GENUS_AT_MOST_7 = list(enumerate_semigroups(7))


@st.composite
def ring_extensions(draw):
    """A field, a genus <= 7 semigroup and a series g of valuation >= 0
    (zero about a tenth of the time) for the ring R[g]."""
    H = draw(st.sampled_from(GENUS_AT_MOST_7))
    f = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    if f.finite:
        unit = st.integers(1, f.p - 1)
    else:
        unit = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    if draw(st.integers(0, 9)) == 0:
        return f, H, LaurentPoly.zero(f)
    lo = draw(st.integers(0, H.conductor + 1))
    support = [lo] + draw(st.lists(st.integers(lo + 1, lo + 4), max_size=3))
    return f, H, LaurentPoly.from_dict(f, {e: f.element(draw(unit)) for e in support})


@settings(max_examples=200, deadline=None)
@given(ring_extensions())
@example((QQ, NumericalSemigroup.from_generators([4, 5, 6]),
          LaurentPoly.from_dict(QQ, {2: QQ.one, 3: Fraction(1, 3)})))  # a probe template
def test_trace_of_overring_is_its_colon(case):
    # R : S is an S-module for a ring S = R[g], so tr(S) = (R : S) S = R : S
    # is a trace ideal; family_probe relies on this and checks neither
    f, H, g = case
    S = adjoin(f, H, g)
    T = trace(S)
    assert equals(T, colon(unit_ideal(f, H), S)), case
    assert is_trace_ideal(T), case
