"""The gap-part fixed-point test against the rank of the whole trace.

``trace._gap_fixed_point`` solves only for the part of R : T on the
gaps of H and stops at the first product outside T;
``_oracles.is_trace_by_rank`` computes all of tr(T)/c in the window and
compares dimensions.  The two must give the same verdict on every
candidate over F_p, the one field the kernel serves; over QQ,
``is_trace_ideal`` (tr(I) = I from the definition) must agree with the
rank test.  The RREF basis of the gap part comes from ``_Quotient.step``
from the trivial stabilizer, one row suffix at a time and along the
lattice walk with the action images reduced one row at a time; both must
equal their from-scratch oracles at every module: the same basis, not
only the same span, so a step that drops the wrong vector or changes its
parent's basis fails.  So must each module's children, which the walk
finds by carrying the socle elimination down from the parent.  Before
any product the kernel rules modules out by their value sets;
``_oracles.gap_fixed_point_by_products``, the kernel without that test,
must give the same verdict at every module of the walk.
"""

from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (_window_basis, _window_vector, gap_fixed_point_by_products,
                      gap_part_by_rref, images_by_reduction, images_reduced_in_full,
                      is_trace_by_rank, socle_lines_by_fresh_elimination,
                      socle_lines_by_reduction)
from _strategies import capped_semigroups
from traceforge.artin import (_ideal_lattice, _packing, _reduce_images, enumerate_ideals,
                              gorenstein_two_generators, semigroup_quotient,
                              square_zero_two_vars, truncated_dvr)
from traceforge.fields import GF, QQ
from traceforge.ideals import (LaurentPoly, conductor_ideal, ideal_from_generators,
                               maximal_ideal, unit_ideal)
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
    q = _quotient(f, H)
    # walk step by step from c, each suffix of the rows the parent of the next
    G, _ = reduce(lambda state, k: q.step(state, rows[k:], pivots[k:]),
                  reversed(range(len(rows))), (q.gap_units, 1))
    assert G == gap_part_by_rref(q, rows), (H, f, rows)
    verdict = _gap_fixed_point(q, rows, pivots, G)
    assert verdict == is_trace_by_rank(f, H, basis), (H, f, rows)
    return verdict


def lattice(H, p):
    q = _quotient(GF(p), H)
    return [rows for rows, *_ in _ideal_lattice(p, len(q.exps), q.shifts)]


def test_every_lattice_member_small_genus():
    for p in (2, 3, 5, 7):
        for H in enumerate_semigroups(5 if p < 5 else 4):
            hits = sum(agree(GF(p), H, rows) for rows in lattice(H, p))
            assert hits == enumerate_trace_ideals(H, p).count_with_zero - 1, (H, p)


@settings(max_examples=60, deadline=None)
@given(capped_semigroups)
def test_every_lattice_member_random_semigroups(case):
    H, p = case
    for rows in lattice(H, p):
        agree(GF(p), H, rows)


def products_agree(H, p):
    """The kernel against the products alone at every module of the walk
    from the trivial stabilizer mu_1, which visits every R-submodule of R/c."""
    q = _quotient(GF(p), H)
    for rows, pivots, (G, _) in _ideal_lattice(p, len(q.exps), q.shifts, q.step,
                                               (q.gap_units, 1)):
        assert (_gap_fixed_point(q, rows, pivots, G)
                == gap_fixed_point_by_products(q, rows, pivots, G)), (H, p, rows)


def test_value_sets_reject_only_non_trace_modules():
    for p, genus in ((2, 6), (3, 6), (5, 5), (7, 4)):
        for H in enumerate_semigroups(genus):
            products_agree(H, p)


@settings(max_examples=60, deadline=None)
@given(capped_semigroups)
def test_value_sets_reject_only_non_trace_modules_random_semigroups(case):
    products_agree(*case)


def frozen(images):
    return [None if ws is None else [tuple(w) for w in ws] for ws in images]


def unpacked(pk, images):
    """The packed images of the library's walk as lists of tuples, one
    tuple of d entries per action."""
    d, n = pk.d, pk.n
    return [[ws[i:i + d] for i in range(0, n, d)] for ws in (pk.unpack(w, n) for w in images)]


def walk_agrees(p, d, actions, step=None, state=None):
    """The walk with the action images carried beside the caller's state,
    updated along each edge both by ``_reduce_images`` on packed ints, as
    the walk updates its own, and by the former engine's
    ``images_reduced_in_full`` on tuples;
    at every module both are checked against the from-scratch oracle, and
    so are the former engine's socle lines.  The children the walk makes
    of each module, in the reverse of the order it yields them, must be
    those lines too, so the step must cut nothing.  Yields the walk's
    (rows, pivots, state)."""
    pk = _packing(p, d, len(actions))

    def both(triple, rows, pivots):
        images, full, inner = triple
        v, lead = rows[0], pivots[0]
        return (_reduce_images(pk, images, pk.pack(v), lead),
                images_reduced_in_full(p, full, v, lead),
                step(inner, rows, pivots) if step else inner)

    start = [[a[j] for a in actions] for j in range(d)]
    packed = [pk.pack([x for a in actions for x in a[j]]) for j in range(d)]
    lines, made = {}, {}
    for rows, pivots, (images, full, carried) in _ideal_lattice(p, d, actions, both,
                                                                (packed, start, state)):
        expected = images_by_reduction(p, d, actions, rows, pivots)
        assert frozen(full) == expected, rows
        # the columns before the first pivot, all of them free
        assert unpacked(pk, images) == expected[:pivots[0] if pivots else d], rows
        lines[rows] = list(socle_lines_by_reduction(p, d, actions, rows, pivots))
        assert list(socle_lines_by_fresh_elimination(p, full, pivots)) == lines[rows], rows
        if rows:
            made.setdefault(rows[1:], []).append((pivots[0], rows[0]))
        yield rows, pivots, carried
    assert all(made.get(rows, [])[::-1] == found for rows, found in lines.items())


@settings(max_examples=40, deadline=None)
@given(capped_semigroups)
def test_walk_carries_images_and_gap_system(case):
    H, p = case
    f = GF(p)
    q = _quotient(f, H)
    d = len(q.exps)
    exps = q.exps
    for rows, pivots, (G, _) in walk_agrees(p, d, q.shifts, q.step, (q.gap_units, 1)):
        assert G == gap_part_by_rref(q, rows), rows
        basis = [_window_vector(f, H.conductor, dict(zip(exps, r))) for r in rows]
        assert _gap_fixed_point(q, rows, pivots, G) == is_trace_by_rank(f, H, basis), rows


def test_walk_carries_images_on_artin_presets():
    # the table's non-unit rows act, and no step function rides along
    for p in (2, 3, 5):
        f = GF(p)
        for A in (truncated_dvr(f, 4), square_zero_two_vars(f), gorenstein_two_generators(f),
                  semigroup_quotient(S([4, 6, 9]), p)):
            states = [state for _, _, state in walk_agrees(p, A.dim, A.table[1:])]
            assert states == [None] * len(enumerate_ideals(A)), A
    # byte fields up to p = 13, wider ones from p = 17 on
    for p in (11, 13, 17, 101, 257):
        for A in (truncated_dvr(GF(p), 3), gorenstein_two_generators(GF(p))):
            assert all(state is None for _, _, state in walk_agrees(p, A.dim, A.table[1:])), A


def test_named_candidates():
    for f in (GF(2), GF(3), GF(7)):
        for H in enumerate_semigroups(5):
            d = len(list(H.members(H.conductor)))
            units = [tuple(f.one if i == k else f.zero for i in range(d)) for k in range(d)]
            # T = c: there are no rows, hence no equations, and the unit
            # vectors of the gaps span the gap part of R : c = K[[t]]; c * K[[t]] = c
            assert agree(f, H, [])
            assert agree(f, H, units)  # T = R
            if H.genus:
                assert agree(f, H, units[1:])  # T = m
    for H in enumerate_semigroups(5):
        named = [conductor_ideal(QQ, H), unit_ideal(QQ, H)]
        if H.genus:
            named.append(maximal_ideal(QQ, H))
        for T in named:
            assert is_trace_ideal(T) and rank_verdict(T), (H, T)


def test_natural_semigroup_has_no_gaps():
    # c = 0: R/c and the gap part are both zero, and R is the only candidate
    N0 = natural_semigroup()
    for f in (GF(2), GF(5)):
        q = _quotient(f, N0)
        assert q.exps == q.shifts == q.reach == q.spread == q.gap_units == ()
        assert q.gap_units == gap_part_by_rref(q, [])
        assert _gap_fixed_point(q, [], [], q.gap_units) and is_trace_by_rank(f, N0, [])
    for f in (GF(2), GF(5), QQ):
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
