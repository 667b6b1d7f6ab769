"""The gap-part fixed-point test against the rank of the whole trace.

``trace._gap_fixed_point`` solves only for the part of R : T on the
gaps of H and stops at the first product outside T;
``_oracles.is_trace_by_rank`` computes all of tr(T)/c in the window and
compares dimensions.  The two must give the same verdict on every
candidate, over F_p and over QQ.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import _window_basis, _window_vector, is_trace_by_rank
from traceforge.artin import _ideal_lattice
from traceforge.errors import NotCofinite
from traceforge.fields import GF, QQ
from traceforge.ideals import LaurentPoly, ideal_from_generators, unit_ideal
from traceforge.semigroups import NumericalSemigroup, enumerate_semigroups, natural_semigroup
from traceforge.trace import (_gap_fixed_point, _quotient, enumerate_trace_ideals,
                              is_trace_ideal, trace)

S = NumericalSemigroup.from_generators


def agree(f, H, rows) -> bool:
    """The kernel's verdict on span(rows) + c, checked against the oracle;
    ``rows`` are RREF rows of R/c over the members below c."""
    exps = list(H.members(H.conductor))
    basis = [_window_vector(f, H.conductor, dict(zip(exps, r))) for r in rows]
    pivots = [next(k for k, x in enumerate(r) if x) for r in rows]
    verdict = _gap_fixed_point(_quotient(f, H), rows, pivots)
    assert verdict == is_trace_by_rank(f, H, basis), (H, f, rows)
    return verdict


def lattice(H, p):
    q = _quotient(GF(p), H)
    return [rows for rows, _ in _ideal_lattice(p, len(q.exps), q.shifts)]


def test_every_lattice_member_small_genus():
    for p in (2, 3, 5, 7):
        for H in enumerate_semigroups(5 if p < 5 else 4):
            hits = sum(agree(GF(p), H, rows) for rows in lattice(H, p))
            assert hits == enumerate_trace_ideals(H, p).count_with_zero - 1, (H, p)


# multiplicity m plus up to four generators close above it keeps dim R/c small
small_generator_sets = st.integers(2, 7).flatmap(
    lambda m: st.lists(st.integers(m + 1, 2 * m + 3), min_size=1, max_size=4)
    .map(lambda rest: [m] + rest))


@settings(max_examples=60, deadline=None)
@given(small_generator_sets, st.sampled_from((2, 3, 5, 7)))
def test_every_lattice_member_random_semigroups(gens, p):
    try:
        H = S(gens)
    except NotCofinite:
        assume(False)
    d = len(list(H.members(H.conductor)))
    assume(d <= 5 and p ** d <= 7 ** 4)  # the cap of the lattice oracle tests
    for rows in lattice(H, p):
        agree(GF(p), H, rows)


def test_named_candidates():
    for f in (GF(2), GF(3), GF(7), QQ):
        for H in enumerate_semigroups(5):
            d = len(list(H.members(H.conductor)))
            units = [tuple(f.one if i == k else f.zero for i in range(d)) for k in range(d)]
            # T = c: there are no rows, hence no equations, and every gap
            # spans the gap part of R : c = K[[t]]; c * K[[t]] = c
            assert agree(f, H, [])
            assert agree(f, H, units)  # T = R
            if H.genus:
                assert agree(f, H, units[1:])  # T = m


def test_natural_semigroup_has_no_gaps():
    # c = 0: R/c and the gap part are both zero, and R is the only candidate
    N0 = natural_semigroup()
    for f in (GF(2), GF(5), QQ):
        q = _quotient(f, N0)
        assert q.exps == q.shifts == q.reach == q.spread == ()
        assert _gap_fixed_point(q, [], []) and is_trace_by_rank(f, N0, [])
        assert is_trace_ideal(unit_ideal(f, N0))
    for p in (2, 3):
        assert [i.label() for i in enumerate_trace_ideals(N0, p).ideals] == ["R"]


GENUS_AT_MOST_6 = list(enumerate_semigroups(6))


@st.composite
def integral_ideals(draw):
    """An ideal of a genus <= 6 semigroup ring over QQ, generated by one to
    three series supported on H, with or without the conductor."""
    H = draw(st.sampled_from(GENUS_AT_MOST_6))
    unit = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    exps = list(H.members(H.conductor + 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.sampled_from(exps))
        near = [e for e in exps if lo < e <= lo + 6]
        support = [lo] + (draw(st.lists(st.sampled_from(near), max_size=3)) if near else [])
        gens.append(LaurentPoly.from_dict(QQ, {e: QQ.element(draw(unit)) for e in support}))
    return ideal_from_generators(QQ, H, gens, with_conductor=draw(st.booleans()))


def rank_verdict(I) -> bool:
    """The former body of ``is_trace_ideal`` past its integrality check."""
    H = I.semigroup
    return I.tail <= H.conductor and is_trace_by_rank(I.field, H, _window_basis(I))


@settings(max_examples=200, deadline=None)
@given(integral_ideals())
def test_random_integral_ideals_over_QQ(I):
    assert is_trace_ideal(I) == rank_verdict(I)
    T = trace(I)  # a trace ideal, so a positive case for both
    assert is_trace_ideal(T) and rank_verdict(T)


def test_family_over_QQ():
    # c + (t^5 + a t^7, t^6 + b t^7) is a trace ideal of 5,6,7 for these (a, b)
    H = S([5, 6, 7])
    for a, b in ((1, 2), (Fraction(1, 3), -5), (7, Fraction(2, 9))):
        I = ideal_from_generators(QQ, H, [LaurentPoly.from_dict(QQ, {5: QQ.one, 7: QQ.element(a)}),
                                          LaurentPoly.from_dict(QQ, {6: QQ.one, 7: QQ.element(b)})],
                                  with_conductor=True)
        assert is_trace_ideal(I) and rank_verdict(I), (a, b)
