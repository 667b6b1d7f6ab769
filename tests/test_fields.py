from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import nullspace_by_free_columns, rref_by_field_ops
from traceforge import fields
from traceforge.artin import truncated_dvr
from traceforge.errors import DivisionByZero
from traceforge.fields import GF, QQ, Matrix, rank, rref, solve_homogeneous


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.element(4, 6) == Fraction(2, 3)
    assert QQ.element(4, 6).denominator == 3


def test_prime_field_inverse():
    F5 = GF(5)
    assert F5.inv(3) == 2
    assert F5.mul(3, F5.inv(3)) == 1


def test_inversion_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        GF(5).inv(0)
    with pytest.raises(DivisionByZero):
        GF(7).div(3, 0)
    with pytest.raises(DivisionByZero):
        QQ.div(Fraction(3), Fraction(0))


def test_gf_rejects_composites():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    # 2^31 + 11 is prime, but too wide for a field element
    with pytest.raises(ValueError, match="must fit in 31 bits"):
        GF(2147483659)


def test_fields_take_only_integers():
    for build in (lambda: GF(2.0), lambda: GF(5).element(2.5),
                  lambda: truncated_dvr(GF(5), 3).act(1, (0.5, 1, 0)), lambda: QQ.element(0.5)):
        with pytest.raises(TypeError):
            build()


def test_gf_parses_fractions():
    F5 = GF(5)
    assert F5.parse("1/2") == F5.div(1, 2) == 3


def test_rref_dependent_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    red, piv = rref(m)
    assert piv == (0,)
    assert rank(m) == 1
    assert red.rows[0] == (Fraction(1), Fraction(2))
    assert red.rows[1] == (Fraction(0), Fraction(0))


def test_rref_identity():
    m = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, piv = rref(m)
    assert red == m and piv == (0, 1, 2)


def test_rref_row_swap_mod_2():
    m = Matrix.from_rows(GF(2), [[0, 1], [1, 0]])
    red, piv = rref(m)
    assert red.rows == ((1, 0), (0, 1)) and piv == (0, 1)


def test_nullspace_examples():
    assert solve_homogeneous(Matrix.from_rows(GF(2), [[1, 1]])) == [(1, 1)]
    identity = Matrix.from_rows(QQ, [[1, 0], [0, 1]])
    assert solve_homogeneous(identity) == []
    zero = Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 0]])
    assert len(solve_homogeneous(zero)) == 3
    # the free-column basis (-1, 1, 0), (-1, 0, 1) is not in RREF
    ones = Matrix.from_rows(QQ, [[1, 1, 1]])
    assert nullspace_by_free_columns(ones) == [(-1, 1, 0), (-1, 0, 1)]
    assert solve_homogeneous(ones) == [(1, 0, -1), (0, 1, -1)]


def test_nullspace_without_rows_is_every_unit_vector():
    # a system with no equations keeps its unknowns
    for field in (QQ, GF(2), GF(5)):
        for n in range(5):
            units = [tuple(field.one if i == j else field.zero for i in range(n))
                     for j in range(n)]
            assert solve_homogeneous(Matrix(field, (), n)) == units
            assert solve_homogeneous(Matrix.from_rows(field, [], n)) == units
            red, piv = rref(Matrix(field, (), n))
            assert red == Matrix(field, (), n) and piv == ()


def test_ragged_rows_raise():
    for field in (QQ, GF(3)):
        for m in (Matrix(field, ((1, 2), (1,)), 2),      # a short row
                  Matrix(field, ((1, 0, 1),), 2),         # wider than ncols
                  Matrix.from_rows(field, [[1], [0, 1]])):
            with pytest.raises(ValueError):
                rref(m)
            with pytest.raises(ValueError):
                solve_homogeneous(m)
    with pytest.raises(ValueError):
        Matrix.from_rows(QQ, [])  # no rows and no width


small_fraction = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(small_fraction, small_fraction, small_fraction)
def test_rational_field_axioms(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 48), st.integers(0, 48),
       st.integers(0, 48))
def test_prime_field_axioms(p, a, b, c):
    f = GF(p)
    a, b, c = a % p, b % p, c % p
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


matrix_entries = st.integers(-4, 4)


def _random_matrix(draw, field):
    nr = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 4))
    rows = [[field.element(draw(matrix_entries)) for _ in range(nc)]
            for _ in range(nr)]
    return Matrix.from_rows(field, rows)


@st.composite
def matrices(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    return _random_matrix(draw, field)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_idempotent_and_rank_stable(m):
    red, piv = rref(m)
    again, piv2 = rref(red)
    assert again == red and piv2 == piv
    assert rank(m) == rank(red) == len(piv)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_nullspace_vectors_annihilate(m):
    # the basis is a fixed point of rref, annihilates m, has ncols - rank
    # vectors and spans what the free-column basis spans
    f = m.field
    basis = solve_homogeneous(m)
    as_matrix = Matrix(f, tuple(basis), m.ncols)
    assert rref(as_matrix)[0] == as_matrix
    assert len(basis) == m.ncols - rank(m)
    for v in basis:
        for row in m.rows:
            acc = f.zero
            for x, y in zip(row, v):
                acc = f.add(acc, f.mul(x, y))
            assert f.is_zero(acc)
    assert rref(Matrix(f, tuple(nullspace_by_free_columns(m)), m.ncols))[0] == as_matrix


# ---------------------------------------------------------------------------
# the elimination kernel against the generic loop


KERNEL_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def _kernel_values(field):
    """Entries as callers may pass them: over F_p any int, reduced or not."""
    if field.finite:
        return st.integers(-3 * field.p, 3 * field.p)
    return st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                     st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))


@st.composite
def kernel_matrices(draw):
    """Up to 10 x 12, sparse or dense, with zero rows and zero columns, as
    (field, rows, ncols); a matrix with no rows keeps its width."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    nr = draw(st.integers(0, 10))
    nc = draw(st.integers(0, 12))
    cell = _kernel_values(field)
    if draw(st.booleans()):
        # sparse: a few nonzero cells in an all-zero matrix
        rows = [[0] * nc for _ in range(nr)]
        if nr and nc:
            for i, j, x in draw(st.lists(st.tuples(st.integers(0, nr - 1),
                                                   st.integers(0, nc - 1), cell),
                                         max_size=nr * nc // 4 + 1)):
                rows[i][j] = x
    else:
        rows = [[draw(cell) for _ in range(nc)] for _ in range(nr)]
    zero_rows = draw(st.sets(st.integers(0, nr - 1))) if nr else set()
    zero_cols = draw(st.sets(st.integers(0, nc - 1))) if nc else set()
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    return field, rows, nc


@settings(max_examples=400, deadline=None)
@given(kernel_matrices())
@example((GF(5), [[5, 1], [1, 1]], 2))        # a multiple of p is zero
@example((GF(3), [[-1, 2, 0], [2, 2, 1]], 3))  # negative residues
@example((QQ, [], 3))                         # no rows
@example((GF(7), [[], []], 0))                # no columns
@example((QQ, [[Fraction(-3), Fraction(1, 2), Fraction(0)],   # negative pivots
               [Fraction(2), Fraction(0), Fraction(-5, 3)],
               [Fraction(0), Fraction(-7, 4), Fraction(1)]], 3))
@example((QQ, [[Fraction(12345678901), Fraction(-98765432109, 7), Fraction(1)],  # 10+ digits
               [Fraction(-23456789012, 13), Fraction(0), Fraction(31415926535)],
               [Fraction(27182818284), Fraction(11111111111, 3), Fraction(-1, 99999999977)],
               [Fraction(1), Fraction(1), Fraction(1)]], 3))
@example((QQ, [[Fraction(0), Fraction(-4), Fraction(6)],
               [Fraction(-2), Fraction(3), Fraction(0)],
               [Fraction(-4), Fraction(-2), Fraction(6)]], 3))  # dependent, negative pivots
def test_rref_matches_field_op_loop(case):
    field, entries, nc = case
    raw = Matrix(field, tuple(tuple(row) for row in entries), nc)
    canonical = Matrix.from_rows(field, entries, nc)
    red, piv = rref(raw)
    want, want_piv = rref_by_field_ops(canonical)
    assert piv == want_piv
    assert red.rows == want.rows
    if field.finite:
        assert all(0 <= x < field.p for row in red.rows for x in row)
    else:  # eliminated on integers, and canonical Fractions again on exit
        assert all(type(x) is Fraction for row in red.rows for x in row)
    with mock.patch.object(fields, "rref", rref_by_field_ops):
        want_basis = solve_homogeneous(canonical)
    assert solve_homogeneous(raw) == want_basis
