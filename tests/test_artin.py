from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (coordinates_by_elimination, generators_by_greedy_span,
                      hom_basis_by_generation, hom_trace_by_generation, lattice_by_covers,
                      mult_by_field_ops, socle_by_generation, trace_ideals_by_hom_trace)
from _strategies import capped_semigroups
from traceforge.artin import (IDEAL_ENUMERATION_GUARD, ArtinAlgebra, SubIdeal, _hom_walk,
                              enumerate_ideals,
                              enumerate_trace_ideals_artinian,
                              gorenstein_family_separation,
                              gorenstein_two_generators, hom_trace,
                              ideal_generated_by, semigroup_quotient, socle,
                              square_zero_two_vars, truncated_dvr)
from traceforge.errors import (DependentGenerators, InfiniteField, NotGorenstein,
                               WorkloadExceeded, ZeroQuotient)
from traceforge.fields import GF, QQ, Matrix, rank
from traceforge.semigroups import (NumericalSemigroup, enumerate_semigroups,
                                   natural_semigroup)
from traceforge.trace import _quotient, enumerate_trace_ideals

S = NumericalSemigroup.from_generators


def test_truncated_dvr_shapes():
    A = truncated_dvr(GF(2), 3)
    assert A.dim == 3
    x, x2 = A.basis_vector(1), A.basis_vector(2)
    assert A.act(1, x) == x2
    assert A.act(1, x2) == A.zero_vector()
    assert truncated_dvr(QQ, 1).dim == 1
    dual = truncated_dvr(QQ, 2)
    eps = dual.basis_vector(1)
    assert dual.act(1, eps) == dual.zero_vector()


def test_square_zero_two_vars():
    for field in (GF(2), GF(3), QQ):
        A = square_zero_two_vars(field)
        assert A.dim == 3
        x, y = A.basis_vector(1), A.basis_vector(2)
        assert A.act(1, x) == A.act(1, y) == A.act(2, y) == A.zero_vector()


def test_algebra_validation():
    with pytest.raises(ValueError, match="dim x dim x dim"):
        # the cell of x * x has one entry, not two
        ArtinAlgebra.create(GF(2), ("1", "x"), [[[1, 0], [0, 1]], [[0, 1], [0]]])
    with pytest.raises(ValueError, match="nilpotent"):
        # x*x = 1 is a unit product, so the non-unit span is not nilpotent
        ArtinAlgebra.create(GF(2), ("1", "x"), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    with pytest.raises(ValueError, match="commutative"):
        ArtinAlgebra.create(
            GF(2), ("1", "x", "y"),
            [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
             [[0, 0, 1], [0, 1, 0], [0, 0, 0]]])
    with pytest.raises(ValueError, match="identity"):
        # b_0 * b_1 = 0, so b_0 is not the identity
        ArtinAlgebra.create(GF(2), ("1", "x"), [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(ValueError, match="identity"):
        # an empty basis has no identity, so it is no algebra
        ArtinAlgebra.create(GF(2), [], [])
    # x^2 = y, xy = z, y^2 = z: commutative, but (xx)y = z while x(xy) = xz = 0
    u = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    zero = [0, 0, 0, 0]
    table = [u, [u[1], u[2], u[3], zero], [u[2], u[3], u[3], zero],
             [u[3], zero, zero, zero]]
    for field in (GF(2), QQ):
        with pytest.raises(ValueError, match="associative"):
            ArtinAlgebra.create(field, ("1", "x", "y", "z"), table)


def diagonal_gorenstein(field):
    # K[x, y]/(x^2 - y^2, xy) on the basis 1, x + y, x - y, x^2: both squares
    # are 2x^2, so products combine table entries other than 0 and 1
    u = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    zero, s = [0, 0, 0, 0], [0, 0, 0, 2]
    table = [u, [u[1], s, zero, zero], [u[2], zero, s, zero], [u[3], zero, zero, zero]]
    return ArtinAlgebra.create(field, ("1", "x+y", "x-y", "x^2"), table)


ACT_ALGEBRAS = [make(field) for field in (GF(2), GF(3), GF(7), QQ)
                for make in (lambda K: truncated_dvr(K, 4), square_zero_two_vars,
                             gorenstein_two_generators)]
ACT_ALGEBRAS += [diagonal_gorenstein(field) for field in (GF(3), GF(7), QQ)]
ACT_ALGEBRAS += [semigroup_quotient(S(gens), 2) for gens in ([4, 5, 11], [5, 7, 8, 9])]
ACT_ALGEBRAS += [semigroup_quotient(S([4, 6, 9]), 3)]


def test_socle_matches_generation():
    # the annihilator is already an ideal, so its span needs no products
    fields = (GF(2), GF(3), GF(7), QQ)
    algebras = [square_zero_two_vars(f) for f in fields]
    algebras += [truncated_dvr(f, L) for f in fields for L in range(2, 8)]
    algebras += [gorenstein_two_generators(f) for f in fields]
    algebras += [diagonal_gorenstein(f) for f in (GF(3), GF(7), QQ)]
    algebras += [semigroup_quotient(S([4, 5, 11]), 2), semigroup_quotient(S([5, 7, 8, 9]), 3)]
    for A in algebras:
        assert socle(A) == socle_by_generation(A), A


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_act_matches_field_op_product(data):
    A = data.draw(st.sampled_from(ACT_ALGEBRAS))
    f = A.field
    if f.finite:
        entry = st.integers(0, f.p - 1)
    else:
        entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    v = tuple(data.draw(st.lists(entry, min_size=A.dim, max_size=A.dim)))
    for i in range(A.dim):
        assert A.act(i, v) == mult_by_field_ops(A, A.basis_vector(i), v), (A, i, v)


def test_semigroup_quotient_examples():
    A = semigroup_quotient(S([4, 5, 11]), 2)
    assert A.dim == 3 and A.labels == ("1", "t^4", "t^5")
    assert A.act(1, A.basis_vector(1)) == A.zero_vector()
    assert semigroup_quotient(S([2, 3]), 3).dim == 1
    with pytest.raises(ZeroQuotient):
        semigroup_quotient(natural_semigroup(), 2)


def test_socle_examples():
    A = truncated_dvr(GF(2), 3)
    assert socle(A).rows == ((0, 0, 1),)
    B = square_zero_two_vars(GF(3))
    assert socle(B).dim == 2  # the whole maximal ideal
    F = truncated_dvr(GF(5), 1)
    assert socle(F).dim == 1  # the field itself


def test_hom_trace_examples():
    B = square_zero_two_vars(QQ)
    line = ideal_generated_by(B, [B.basis_vector(1)])
    tr = hom_trace(line)
    assert tr.dim == 2 and not tr.contains(B.basis_vector(0))
    full = ideal_generated_by(B, [B.basis_vector(0)])
    assert hom_trace(full) == full
    A = truncated_dvr(GF(2), 3)
    xi = ideal_generated_by(A, [A.basis_vector(1)])
    assert hom_trace(xi) == xi  # Gorenstein: every ideal is a trace ideal
    zero = ideal_generated_by(A, [])
    assert hom_trace(zero) == zero


def test_hom_trace_matches_generation_oracle():
    # Hom(I, A) is an A-module, so the span of the images is already an
    # ideal: generating by every basis multiple adds nothing
    algebras = [truncated_dvr(GF(2), n) for n in range(1, 7)]
    algebras += [square_zero_two_vars(GF(p)) for p in (2, 3)]
    algebras += [gorenstein_two_generators(GF(p)) for p in (2, 3, 7)]
    algebras += [semigroup_quotient(S(gens), 2)
                 for gens in ([4, 5, 11], [3, 7, 8], [5, 7, 8, 9])]
    algebras += [semigroup_quotient(S(gens), 3) for gens in ([4, 5], [4, 6, 9])]
    ideals = [I for A in algebras for I in enumerate_ideals(A)]
    Q = gorenstein_two_generators(QQ)
    cyclic = [(0, 1, a, b) for a in (0, 1, -2, Fraction(1, 3)) for b in (0, 5)]
    cyclic += [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)]
    ideals += [ideal_generated_by(Q, [tuple(map(QQ.element, v))]) for v in cyclic]
    # K[x]/(x^3) on the basis (1, x + x^2, x): (x + x^2)^2 = x^2 has a
    # coordinate on the row x + x^2 of m, so the Hom system of m has terms
    # on its diagonal blocks, which no index-raising basis gives
    for f in (GF(3), QQ):
        C = ArtinAlgebra.create(f, ("1", "x+x^2", "x"),
                                [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                 [[0, 1, 0], [0, 1, -1], [0, 1, -1]],
                                 [[0, 0, 1], [0, 1, -1], [0, 1, -1]]])
        ideals += [ideal_generated_by(C, [tuple(map(f.element, v))])
                   for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 0, 0))]
    for I in ideals:
        assert hom_trace(I) == hom_trace_by_generation(I), I


def unadapted_quartic(field):
    # K[x]/(x^4) on the basis 1, x, x + x^2, x^3: x^2 = b_2 - b_1, so every
    # b_g of m shows up in some product, yet m/m^2 is spanned by x alone
    u = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    zero = [0, 0, 0, 0]
    table = [u, [u[1], [0, -1, 1, 0], [0, -1, 1, 1], zero],
             [u[2], [0, -1, 1, 1], [0, -1, 1, 2], zero], [u[3], zero, zero, zero]]
    return ArtinAlgebra.create(field, ("1", "x", "x+x^2", "x^3"), table)


def test_generators_span_m_modulo_m_squared():
    def check(A, size):
        assert len(A.generators) == size, A
        # Nakayama: the generators alone generate m
        gens = [A.basis_vector(g) for g in A.generators]
        assert ideal_generated_by(A, gens).dim == A.dim - 1, A

    for f in (GF(2), GF(3), QQ):
        Q = unadapted_quartic(f)
        assert Q.generators == (1,)
        check(Q, 1)
        for length in range(2, 8):
            check(truncated_dvr(f, length), 1)
        check(square_zero_two_vars(f), 2)
        check(gorenstein_two_generators(f), 2)
    assert truncated_dvr(GF(2), 1).generators == ()
    for H in enumerate_semigroups(6):
        if H.genus == 0:
            continue
        below_c = [g for g in H.minimal_generators if g < H.conductor]
        for p in (2, 3):
            check(semigroup_quotient(H, p), len(below_c))
    # on R/c they are the minimal generators of H below c: the Artinian
    # walks and the Tr(R) walk act by the same maps
    pairs = 0
    for H in enumerate_semigroups(7):
        if H.genus:
            for p in (2, 3, 5, 7):
                A = semigroup_quotient(H, p)
                assert tuple(A.table[g] for g in A.generators) == _quotient(GF(p), H).shifts, (H, p)
                pairs += 1
    assert pairs == 352


def test_generators_match_greedy_span_oracle():
    algebras = [semigroup_quotient(H, p) for H in enumerate_semigroups(7) if H.genus
                for p in (2, 3)]
    for f in (GF(2), GF(3), GF(7), QQ):
        algebras += [truncated_dvr(f, length) for length in range(1, 9)]
        algebras += [square_zero_two_vars(f), gorenstein_two_generators(f)]
    algebras += [unadapted_quartic(f) for f in (GF(2), GF(3), QQ)]
    algebras += [diagonal_gorenstein(f) for f in (GF(3), GF(7), QQ)]
    assert len(algebras) == 222
    for A in algebras:
        assert A.generators == generators_by_greedy_span(A), A


HOM_ALGEBRAS = [make(f) for f in (GF(2), GF(3), QQ)
                for make in (unadapted_quartic, gorenstein_two_generators,
                             square_zero_two_vars, lambda K: truncated_dvr(K, 4))]
HOM_ALGEBRAS += [diagonal_gorenstein(f) for f in (GF(3), QQ)]
HOM_ALGEBRAS += [semigroup_quotient(S(gens), p)
                 for gens, p in (([5, 7], 2), ([4, 6, 9], 3), ([3, 7], 2))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hom_trace_on_generators_matches_oracle(data):
    # the oracle imposes every basis element of m, hom_trace only the
    # generators of m/m^2, with its zero equations left out
    A = data.draw(st.sampled_from(HOM_ALGEBRAS))
    f = A.field
    if f.finite:
        entry = st.integers(0, f.p - 1)
    else:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    vector = st.lists(entry, min_size=A.dim, max_size=A.dim).map(
        lambda v: tuple(map(f.element, v)))
    I = ideal_generated_by(A, data.draw(st.lists(vector, min_size=1, max_size=2)))
    assert hom_trace(I) == hom_trace_by_generation(I), (A, I.rows)


def test_enumerate_ideals_examples():
    A = truncated_dvr(GF(2), 3)
    assert [I.dim for I in enumerate_ideals(A)] == [0, 1, 2, 3]
    B = square_zero_two_vars(GF(2))
    assert len(enumerate_ideals(B)) == 6  # 0, three lines, m, A
    F = truncated_dvr(GF(3), 1)
    assert [I.dim for I in enumerate_ideals(F)] == [0, 1]
    with pytest.raises(InfiniteField):
        enumerate_ideals(truncated_dvr(QQ, 2))


def test_lattice_on_generators_matches_covers_on_all_of_m():
    # a subspace stable under the generators of m is stable under all of m,
    # so the walk on A.generators meets the cover oracle on every b_i, i >= 1
    algebras = [semigroup_quotient(H, p) for H in enumerate_semigroups(5) if H.genus
                for p in (2, 3)]
    algebras += [truncated_dvr(GF(p), length) for p in (2, 3) for length in range(2, 8)]
    algebras += [make(GF(p)) for p in (3, 7)
                 for make in (gorenstein_two_generators, diagonal_gorenstein)]
    algebras += [square_zero_two_vars(GF(2))]
    fewer = 0
    for A in algebras:
        fewer += len(A.generators) < A.dim - 1
        covers = lattice_by_covers(A.field.p, A.dim, A.table[1:])
        assert [I.rows for I in enumerate_ideals(A)] == [rows for rows, _ in covers], A
    assert (fewer, len(algebras)) == (28, 69)  # the rest have m^2 = 0


def test_semigroup_quotient_tables_pass_the_checks_of_create():
    # the constructors build their tables without re-checking them, with
    # entries of the field's own type, as create would make them
    built = [semigroup_quotient(H, p) for H in enumerate_semigroups(7) if H.genus
             for p in (2, 3)]
    for f in (GF(2), GF(3), GF(7), QQ):
        built += [truncated_dvr(f, length) for length in range(1, 10)]
        built += [square_zero_two_vars(f), gorenstein_two_generators(f)]
    assert len(built) == 176 + 44
    for A in built:
        assert ArtinAlgebra.create(A.field, A.labels, A.table) == A, A
        kind = type(A.field.zero)
        assert all(type(x) is kind for row in A.table for cell in row for x in cell), A


def test_vectors_of_the_wrong_length_are_refused():
    A = gorenstein_two_generators(GF(3))
    x = ideal_generated_by(A, [(0, 1, 0, 0)])
    for v in ((0, 1), (0, 1, 0), (0, 1, 0, 0, 7)):
        with pytest.raises(ValueError, match="4 entries"):
            A.act(1, v)
        with pytest.raises(ValueError, match="4 entries"):
            x.contains(v)
        with pytest.raises(ValueError, match="4 entries"):
            x.coordinates(v)
        with pytest.raises(ValueError, match="4 entries"):
            ideal_generated_by(A, [v])
    # u and v of the separation are checked before u[0] or the span reads them
    G = gorenstein_two_generators(GF(7))
    for bad in ((), (0, 1), (0, 1, 0, 0, 0)):
        for u, v in ((bad, (0, 0, 1, 0)), ((0, 1, 0, 0), bad)):
            with pytest.raises(ValueError, match=f"4 entries, not {len(bad)}"):
                gorenstein_family_separation(G, u, v, [0, 1])
    assert x.coordinates((0, 2, 0, 1)) == [2, 1]


def test_caller_vectors_enter_through_the_field():
    # over F_3, 1/2 is 2: every function that takes a caller's vector reads it so
    A = gorenstein_two_generators(GF(3))
    half, two = (0, Fraction(1, 2), 0, 0), (0, 2, 0, 0)
    for i in range(A.dim):
        assert A.act(i, half) == A.act(i, two), i
    x = ideal_generated_by(A, [half])
    assert x == ideal_generated_by(A, [two]) and x.dim == 2
    coords = x.coordinates((0, Fraction(1, 2), 0, Fraction(5, 2)))
    assert coords == [2, 1] and all(type(c) is int for c in coords)
    assert x.contains(half) and not x.contains((0, 0, Fraction(1, 2), 0))
    y = (0, 0, 1, 0)
    assert gorenstein_family_separation(A, half, y, [0, 1, 2]) == \
        gorenstein_family_separation(A, two, y, [0, 1, 2]) == 3
    # the samples 1/2 and 2 are one element of F_3
    assert gorenstein_family_separation(A, two, y, [Fraction(1, 2), 2]) == 1


def test_trace_ideals_square_zero():
    for p in (2, 3):
        A = square_zero_two_vars(GF(p))
        traces = enumerate_trace_ideals_artinian(A)
        assert [I.dim for I in traces] == [0, 2, 3]


def test_trace_ideals_chain_rings():
    for ell in range(1, 6):
        A = truncated_dvr(GF(2), ell)
        traces = enumerate_trace_ideals_artinian(A)
        assert len(traces) == ell + 1
        assert traces == enumerate_ideals(A)


def test_socle_lemma_both_halves():
    algebras = [truncated_dvr(GF(2), n) for n in (1, 2, 3, 4)]
    algebras += [square_zero_two_vars(GF(2)), square_zero_two_vars(GF(3)),
                 gorenstein_two_generators(GF(2)), gorenstein_two_generators(GF(3)),
                 semigroup_quotient(S([4, 5, 11]), 2),
                 semigroup_quotient(S([3, 7, 8]), 2)]
    for A in algebras:
        soc = socle(A)
        assert hom_trace(soc) == soc
        for I in enumerate_trace_ideals_artinian(A):
            if I.dim == 0:
                continue
            assert all(I.contains(v) for v in soc.rows), A


def test_gorenstein_all_ideals_are_trace():
    candidates = [truncated_dvr(GF(2), n) for n in (2, 3, 4, 5, 6)]
    candidates += [truncated_dvr(GF(3), 4), gorenstein_two_generators(GF(2)),
                   gorenstein_two_generators(GF(3)),
                   semigroup_quotient(S([3, 5, 7]), 2),
                   semigroup_quotient(S([2, 9]), 2)]
    for A in candidates:
        if socle(A).dim != 1 or A.dim > 6:
            continue
        ideals = enumerate_ideals(A)
        assert enumerate_trace_ideals_artinian(A) == ideals, A


def preset_algebras():
    """The named algebras over F_2, F_3, F_5 and F_7, each paired with
    whether the p^d guard admits its ideal enumeration."""
    out = []
    for p in (2, 3, 5, 7):
        f = GF(p)
        out += [truncated_dvr(f, length) for length in range(1, 10)]
        out += [square_zero_two_vars(f), gorenstein_two_generators(f), diagonal_gorenstein(f)]
    return [(A, A.field.p ** A.dim <= IDEAL_ENUMERATION_GUARD) for A in out]


PRESETS = preset_algebras()


def semigroup_quotients(max_genus):
    return [semigroup_quotient(H, p) for H in enumerate_semigroups(max_genus) if H.genus
            for p in (2, 3)]


def test_trace_walk_matches_hom_trace_on_quotients():
    for A in semigroup_quotients(6):
        assert enumerate_trace_ideals_artinian(A) == trace_ideals_by_hom_trace(A), A


def test_trace_walk_matches_hom_trace_on_presets():
    for A, admitted in PRESETS:
        if admitted:
            assert enumerate_trace_ideals_artinian(A) == trace_ideals_by_hom_trace(A), A
        else:
            for walk in (enumerate_trace_ideals_artinian, trace_ideals_by_hom_trace):
                with pytest.raises(WorkloadExceeded):
                    walk(A)
    assert sum(not admitted for _, admitted in PRESETS) == 1  # the chain of length 9 over F_7


@settings(max_examples=40, deadline=None)
@given(capped_semigroups)
def test_trace_walk_matches_hom_trace_random_semigroups(case):
    H, p = case
    A = semigroup_quotient(H, p)
    assert enumerate_trace_ideals_artinian(A) == trace_ideals_by_hom_trace(A), (H, p)


def check_carried_homs(A) -> int:
    """Check the basis of Hom(I, A) that the walk carries to each ideal I
    against the per-ideal solve; return the number of ideals walked."""
    f, d = A.field, A.dim
    p = f.p
    walked = 0
    for rows, pivots, homs in _hom_walk(A):
        I = SubIdeal(A, rows)
        assert I.pivots == pivots
        # independent, and as many as the dimension of Hom(I, A)
        assert rank(Matrix(f, homs, len(rows) * d)) == len(homs), (A, rows)
        assert len(homs) == len(hom_basis_by_generation(I)), (A, rows)
        for phi in homs:
            images = [phi[i * d:(i + 1) * d] for i in range(len(rows))]
            for g in range(1, d):
                for row, image in zip(rows, images):
                    # phi(b_g row) = b_g phi(row)
                    lam = coordinates_by_elimination(I, mult_by_field_ops(A, A.basis_vector(g), row))
                    mapped = tuple(sum(x * w[r] for x, w in zip(lam, images)) % p
                                   for r in range(d))
                    assert mapped == mult_by_field_ops(A, A.basis_vector(g), image), (A, rows, g)
        walked += 1
    return walked


def test_walk_carries_hom_modules():
    # a one-element zero basis at the root still gives the right verdicts,
    # but only the dimension check sees the zero homomorphism it carries
    walked = sum(check_carried_homs(A) for A in semigroup_quotients(5))
    assert walked == 651
    for A, admitted in PRESETS:
        if admitted:
            check_carried_homs(A)


@pytest.mark.parametrize("walk", [enumerate_ideals, enumerate_trace_ideals_artinian, _hom_walk])
def test_walks_share_one_guard(walk):
    # ArtinAlgebra._walk refuses on the call, before the walk's first module
    with pytest.raises(InfiniteField):
        walk(truncated_dvr(QQ, 2))
    with pytest.raises(WorkloadExceeded):
        walk(truncated_dvr(GF(7), 9))
    for f in (GF(2), GF(3)):
        with pytest.raises(ValueError, match="nonzero at an index up to j"):
            walk(unadapted_quartic(f))


def test_census_bridge_with_trace_engine():
    # the ideals of R/c are exactly the R-submodules of R/c, for every H,
    # so both enumerations see the same candidate lattice
    for H in enumerate_semigroups(5):
        if H.genus == 0:
            continue
        for p in (2, 3):
            assert len(enumerate_ideals(semigroup_quotient(H, p))) == \
                enumerate_trace_ideals(H, p).census, (H, p)


def test_square_zero_three_vars_trace_set():
    # any algebra with m^2 = 0 and dim >= 2 has trace ideals exactly {0, m, A}
    def unit(i):
        row = [0] * 4
        row[i] = 1
        return row

    zero = [0, 0, 0, 0]
    table = [[unit(0), unit(1), unit(2), unit(3)],
             [unit(1), zero, zero, zero],
             [unit(2), zero, zero, zero],
             [unit(3), zero, zero, zero]]
    A = ArtinAlgebra.create(GF(2), ("1", "x", "y", "z"), table)
    assert [I.dim for I in enumerate_trace_ideals_artinian(A)] == [0, 3, 4]


def test_gorenstein_family_separation():
    A = gorenstein_two_generators(QQ)
    u, v = A.basis_vector(1), A.basis_vector(2)
    assert gorenstein_family_separation(A, u, v, [0, 1, 2]) == 3
    assert gorenstein_family_separation(A, u, v, [0]) == 1
    assert gorenstein_family_separation(A, u, v, [0, 1, 2, 3, 4]) == 5
    # the separation counts these as trace ideals without re-testing them
    for a in (0, 1, 2, 3, 4, Fraction(-1, 2)):
        I = ideal_generated_by(A, [tuple(x + a * y for x, y in zip(u, v))])
        assert hom_trace(I) == I, a
    with pytest.raises(DependentGenerators):
        gorenstein_family_separation(truncated_dvr(QQ, 3), (0, 1, 0), (0, 0, 1), [0, 1])
    # a unit is outside m, as u or as v
    for outside in ((A.basis_vector(0), v), (u, A.basis_vector(0))):
        with pytest.raises(DependentGenerators, match="maximal ideal"):
            gorenstein_family_separation(A, *outside, [0, 1])
    with pytest.raises(NotGorenstein):
        gorenstein_family_separation(square_zero_two_vars(QQ),
                                     (0, 1, 0), (0, 0, 1), [0, 1])


def test_workload_guard():
    # <2, 27> has 13 members below its conductor 26, tripping the guard
    with pytest.raises(WorkloadExceeded):
        semigroup_quotient(S([2, 27]), 2)
    assert semigroup_quotient(S([2, 25]), 2).dim == 12


def test_algebra_json():
    A = square_zero_two_vars(GF(2))
    payload = A.to_json()
    assert payload["dim"] == 3 and payload["labels"] == ["1", "x", "y"]
    assert payload["table"][1][1] == [["0", "0", "0"][i] for i in range(3)]


COORDINATE_IDEALS = [
    I for A in (truncated_dvr(GF(2), 4), truncated_dvr(GF(3), 3),
                square_zero_two_vars(GF(3)), gorenstein_two_generators(GF(2)),
                gorenstein_two_generators(GF(3)),
                semigroup_quotient(S([3, 5, 7]), 2), semigroup_quotient(S([4, 5, 11]), 3),
                semigroup_quotient(S([4, 6, 9, 11]), 2))
    for I in enumerate_ideals(A)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coordinates_read_at_pivots_match_elimination(data):
    I = data.draw(st.sampled_from(COORDINATE_IDEALS))
    p, d = I.algebra.field.p, I.algebra.dim
    vector = st.lists(st.integers(0, p - 1), min_size=d, max_size=d).map(tuple)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=I.dim, max_size=I.dim))
    inside = tuple(sum(c * r[i] for c, r in zip(coeffs, I.rows)) % p for i in range(d))
    assert I.coordinates(inside) == coordinates_by_elimination(I, inside) == coeffs
    # off the pivots a unit vector is outside, and so is any vector plus it
    free = [j for j in range(d) if j not in I.pivots]
    if free:
        j = data.draw(st.sampled_from(free))
        outside = tuple((x + (i == j)) % p for i, x in enumerate(inside))
        assert I.coordinates(outside) is None
        assert coordinates_by_elimination(I, outside) is None
    v = data.draw(vector)
    assert I.coordinates(v) == coordinates_by_elimination(I, v)
