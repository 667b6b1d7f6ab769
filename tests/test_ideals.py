import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (adjoin_by_iteration, closed_under, colon_by_fraction_rows,
                      colon_by_reduction, colon_by_search, maximal_ideal_by_generation,
                      multiply_by_module_generation, powers_by_poly_ops, reduce_by_poly_ops,
                      reduction_exponent_by_products)
from traceforge.errors import FieldMismatch, NotIntegral, ZeroIdeal
from traceforge.fields import GF, QQ
from traceforge.ideals import (FractionalIdeal, LaurentPoly, _canonical, _colon, _generators,
                               _module_from, _pivot_rows, _powers, _remainder, add, adjoin,
                               canonical_fractional_ideal, colon,
                               conductor_ideal, contains, contains_ideal, dilate,
                               endomorphism_ring, equals,
                               ideal_from_generators, integral_closure_ideal,
                               maximal_ideal, minimal_generator_count, multiply,
                               shift, unit_ideal, value_set)
from traceforge.semigroups import (NumericalSemigroup, SemigroupIdeal, canonical_value_set,
                                   enumerate_semigroups, natural_semigroup,
                                   value_set_condition)
from traceforge.trace import _overring_trace

S = NumericalSemigroup.from_generators
N0 = natural_semigroup()
H = S([4, 5, 11])


def P(field, text):
    return LaurentPoly.parse(field, text)


def test_laurent_poly_roundtrip():
    for text in ["t^4 + 3*t^5", "1", "t - t^2 + t^3", "2/3 + t^-2", "5*t"]:
        p = P(QQ, text)
        assert P(QQ, p.format()).terms == p.terms
    assert P(QQ, "t - t^2").format() == "t - t^2"
    assert P(GF(5), "3*t^2 + 4").coeff(2) == 3
    with pytest.raises(ValueError):
        P(QQ, "t^")


def test_laurent_poly_arithmetic():
    a, b = P(QQ, "1 + t"), P(QQ, "1 - t")
    assert a.mul(b).format() == "1 - t^2"
    assert a.add(b).format() == "2"
    assert a.sub(a).is_zero()
    assert a.shift(3).valuation == 3
    with pytest.raises(FieldMismatch):
        a.add(P(GF(2), "1"))


def test_laurent_poly_coefficients_enter_through_the_field():
    F = GF(5)
    half = LaurentPoly.from_dict(F, {0: Fraction(1, 2)})
    assert half == P(F, "1/2") and half.format() == "3"
    assert LaurentPoly.from_dict(F, {0: 7}) == LaurentPoly.from_dict(F, {0: 2})
    assert LaurentPoly.from_dict(F, {0: 5, 1: 1}).terms == ((1, 1),)
    assert LaurentPoly.monomial(F, 3, Fraction(1, 2)) == LaurentPoly.monomial(F, 3, 3)
    assert LaurentPoly.monomial(F, 3, 10).is_zero()
    assert LaurentPoly.monomial(QQ, 2, 3).terms == ((2, Fraction(3)),)
    H35 = S([3, 5])
    I = ideal_from_generators(F, H35, [LaurentPoly.monomial(F, 3, Fraction(1, 2))])
    assert equals(I, ideal_from_generators(F, H35, [LaurentPoly.monomial(F, 3)]))


def test_unit_ideal_shapes():
    R = unit_ideal(QQ, H)
    assert R.pivots == (0, 4, 5) and R.tail == 8
    assert unit_ideal(QQ, N0).rows == () and unit_ideal(QQ, N0).tail == 0
    R23 = unit_ideal(QQ, S([2, 3]))
    assert R23.pivots == (0,) and R23.tail == 2


def test_conductor_ideal_shapes():
    assert conductor_ideal(QQ, H).tail == 8
    assert conductor_ideal(QQ, N0).tail == 0
    assert conductor_ideal(QQ, S([2, 3])).tail == 2
    R = unit_ideal(QQ, H)
    assert equals(conductor_ideal(QQ, H), colon(R, integral_closure_ideal(QQ, H)))


def test_named_ideals_are_built_canonical():
    # each named ideal is built as distinct monomials below a minimal tail,
    # with no canonicalization: it must equal the canonical form of that
    # span, and m must equal the module its minimal generators generate
    for f in (QQ, GF(2), GF(5)):
        for H_ in enumerate_semigroups(9):
            def span(exps, tail):
                return _canonical(f, H_, [LaurentPoly.monomial(f, e) for e in exps], tail)
            c = H_.conductor
            assert unit_ideal(f, H_) == span(H_.members(c), c), (f, H_)
            assert conductor_ideal(f, H_) == span((), c), (f, H_)
            assert integral_closure_ideal(f, H_) == span((), 0), (f, H_)
            m = maximal_ideal(f, H_)
            assert m == span([h for h in H_.members(c + 1) if h], c + 1), (f, H_)
            assert m == maximal_ideal_by_generation(f, H_), (f, H_)
            K = canonical_value_set(H_)
            W, _ = canonical_fractional_ideal(f, H_)
            assert W == span(K.elements(K.stable), K.stable), (f, H_)


def test_ideal_from_generators_examples():
    I = ideal_from_generators(QQ, H, [P(QQ, "t^4 + t^5")], with_conductor=True)
    assert I.pivots == (4,) and I.tail == 8
    assert I.rows[0].format() == "t^4 + t^5"
    assert equals(ideal_from_generators(QQ, H, [P(QQ, "1")]), unit_ideal(QQ, H))
    m = ideal_from_generators(QQ, H, [P(QQ, "t^4"), P(QQ, "t^5")], with_conductor=True)
    assert equals(m, maximal_ideal(QQ, H))
    assert m.pivots == (4, 5) and m.tail == 8
    with pytest.raises(ZeroIdeal):
        ideal_from_generators(QQ, H, [])


def test_add_multiply_shift_examples():
    R, C, m = unit_ideal(QQ, H), conductor_ideal(QQ, H), maximal_ideal(QQ, H)
    assert equals(add(C, m), m)
    I = ideal_from_generators(QQ, H, [P(QQ, "t^4 + t^5")], with_conductor=True)
    assert equals(multiply(R, I), I)
    H378 = S([3, 7, 8])
    B = shift(maximal_ideal(QQ, H378), -3)
    assert equals(FractionalIdeal(QQ, S([3, 4, 5]), B.tail, B.rows), unit_ideal(QQ, S([3, 4, 5])))
    assert equals(add(I, m), add(m, I))


def test_colon_golden_quartic():
    # over QQ with b = 1: R : (c + (t^4 + b t^5)) is generated by
    # 1, t - b t^2 + b^2 t^3 and the monomials t^4 .. t^7, with tail 8
    R = unit_ideal(QQ, H)
    I = ideal_from_generators(QQ, H, [P(QQ, "t^4 + t^5")], with_conductor=True)
    got = colon(R, I)
    stated = ideal_from_generators(
        QQ, H, [P(QQ, s) for s in ("1", "t - t^2 + t^3", "t^4", "t^5", "t^6", "t^7")])
    assert equals(got, stated)
    assert got.rows[1].format() == "t - t^2 + t^3"
    # and for a different parameter the displayed row follows b
    I2 = ideal_from_generators(QQ, H, [P(QQ, "t^4 + 2*t^5")], with_conductor=True)
    got2 = colon(unit_ideal(QQ, H), I2)
    assert got2.rows[1].format() == "t - 2*t^2 + 4*t^3"


def test_colon_trivial_and_closure():
    R = unit_ideal(QQ, H)
    assert equals(colon(R, R), R)
    C = conductor_ideal(QQ, H)
    E = colon(C, C)
    assert equals(E, integral_closure_ideal(QQ, H))
    vs = value_set(E)
    assert vs.stable == 0 or list(vs.elements(3)) == [0, 1, 2]


def test_equals_and_contains():
    m = maximal_ideal(QQ, H)
    assert contains(m, P(QQ, "t^4 + 7*t^9"))
    assert not contains(conductor_ideal(QQ, H), P(QQ, "t^5"))
    assert not contains(m, P(QQ, "1"))
    with pytest.raises(FieldMismatch):
        equals(m, maximal_ideal(GF(2), H))
    with pytest.raises(FieldMismatch):
        contains(m, P(GF(2), "t^4"))
    with pytest.raises(FieldMismatch, match="ideals over"):
        add(m, maximal_ideal(QQ, S([3, 5])))


def test_value_set():
    assert list(value_set(unit_ideal(QQ, H)).elements(9)) == [0, 4, 5, 8]
    I = ideal_from_generators(QQ, H, [P(QQ, "t^4 + t^5")], with_conductor=True)
    assert list(value_set(I).elements(10)) == [4, 8, 9]


def test_canonical_fractional_ideal():
    W, n = canonical_fractional_ideal(QQ, H)
    assert W.pivots == (0, 1, 4, 5, 6) and W.tail == 8
    assert value_set(W).generators == (0, 1)
    assert n == 3
    # symmetric case: the ideal is R itself and the exponent is 0
    W23, n23 = canonical_fractional_ideal(QQ, S([2, 3]))
    assert equals(W23, unit_ideal(QQ, S([2, 3]))) and n23 == 0
    W457, _ = canonical_fractional_ideal(QQ, S([4, 5, 7]))
    assert value_set(W457).generators == (0, 3)


def test_reduction_exponent_matches_products():
    # the sumsets H, H + K, H + 2K, ... against the powers of W itself
    semigroups = list(enumerate_semigroups(9))
    assert len(semigroups) == 274
    for f in (QQ, GF(2)):
        exponents = [canonical_fractional_ideal(f, H_)[1] for H_ in semigroups]
        assert exponents == [reduction_exponent_by_products(f, H_) for H_ in semigroups], f
        assert max(exponents) == 7


def test_canonical_value_set_matches_ideal():
    for H_ in enumerate_semigroups(6):
        W, _ = canonical_fractional_ideal(GF(2), H_)
        K = canonical_value_set(H_)
        hi = max(W.tail, K.stable) + 3
        assert all((x in K) == (x in value_set(W)) for x in range(hi))


def test_adjoin():
    assert equals(adjoin(QQ, H, P(QQ, "t")), integral_closure_ideal(QQ, H))
    assert equals(adjoin(QQ, H, P(QQ, "1")), unit_ideal(QQ, H))
    H456 = S([4, 5, 6])
    g = P(QQ, "t^2 + 3*t^3")
    RRg = ideal_from_generators(QQ, H456, [P(QQ, "1"), g])
    assert equals(adjoin(QQ, H456, g), RRg)  # g^2 already lies in R
    with pytest.raises(NotIntegral):
        adjoin(QQ, H, P(QQ, "t^-1"))


GENUS_AT_MOST_6 = list(enumerate_semigroups(6))


def _coefficients(f):
    if f.finite:
        return st.integers(1, f.p - 1).map(f.element)
    return st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def _polys(draw, f, max_lo=5):
    """A polynomial as in _random_ideals: a lowest term t^lo, lo <= max_lo,
    and a few higher terms, with random nonzero coefficients."""
    lo = draw(st.integers(0, max_lo))
    support = [lo] + draw(st.lists(st.integers(lo + 1, lo + 3), max_size=3))
    return LaurentPoly.from_dict(f, {e: draw(_coefficients(f)) for e in support})


@st.composite
def _ideal_pairs(draw, fields=(GF(2), GF(3), QQ)):
    """Two ideals of one genus <= 6 semigroup ring, built as in _random_ideals,
    and one integral series g to adjoin."""
    H_ = draw(st.sampled_from([X for X in GENUS_AT_MOST_6 if X.conductor <= 9]))
    f = draw(st.sampled_from(fields))
    I, J = (ideal_from_generators(f, H_, draw(st.lists(_polys(f), min_size=1, max_size=2)),
                                  with_conductor=draw(st.booleans()))
            for _ in range(2))
    return I, J, draw(_polys(f))


@settings(max_examples=150, deadline=None)
@given(_ideal_pairs())
def test_constructions_are_modules(case):
    # these constructions do not check closure themselves
    I, J, g = case
    f, H_ = I.field, I.semigroup
    built = [I, J, add(I, J), multiply(I, J), colon(I, J), colon(J, I),
             adjoin(f, H_, g), maximal_ideal(f, H_), unit_ideal(f, H_),
             canonical_fractional_ideal(f, H_)[0]]
    for X in built:
        assert closed_under(X, H_), X


@st.composite
def _adjoin_cases(draw):
    H_ = draw(st.sampled_from(GENUS_AT_MOST_6))
    f = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    return f, H_, draw(_polys(f, max_lo=H_.conductor + 1))


@settings(max_examples=200, deadline=None)
@given(_adjoin_cases())
@example((QQ, H, P(QQ, "2 + t^5 + 3*t^6")))   # valuation 0, nonzero constant term
@example((GF(3), H, P(GF(3), "2")))            # constant: R
@example((GF(2), S([3, 7, 8]), P(GF(2), "t"))) # t: K[[t]]
@example((QQ, N0, P(QQ, "1 + t^2")))           # N0
@example((GF(5), S([4, 5, 6]), LaurentPoly.zero(GF(5))))  # zero: R
def test_adjoin_matches_iteration(case):
    f, H_, g = case
    assert equals(adjoin(f, H_, g), adjoin_by_iteration(f, H_, g)), case


@settings(max_examples=150, deadline=None)
@given(_ideal_pairs(), st.integers(-4, 4), st.integers(-4, 4))
def test_multiply_matches_module_generation(case, a, b):
    # the row products span I*J modulo the tail, fractional ideals included
    I, J, _ = case
    I, J = shift(I, a), shift(J, b)
    assert equals(multiply(I, J), multiply_by_module_generation(I, J)), (I, J)


@st.composite
def _reduce_cases(draw):
    """An ideal built as in _random_ideals and series inside and outside it."""
    I, J, g = draw(_ideal_pairs())
    f, H_ = I.field, I.semigroup
    coeff = _coefficients(f)
    inside = [r.scale(draw(coeff)).shift(h)
              for r in I.rows for h in draw(st.lists(st.sampled_from(list(H_.members(6))),
                                                     max_size=2))]
    inside += [LaurentPoly.monomial(f, I.tail + k, draw(coeff))
               for k in draw(st.lists(st.integers(0, 4), max_size=2))]
    member = LaurentPoly.zero(f)
    for x in inside:
        member = member.add(x)
    k = draw(st.integers(-6, 6))
    others = [g, g.shift(k), member.add(g), member.shift(k)] + [r.shift(k) for r in J.rows]
    return I, [member] + inside, others


def _remainder_poly(I, x):
    return LaurentPoly.from_dict(I.field, _remainder(I.field, _pivot_rows(I), I.tail, x.terms))


@settings(max_examples=200, deadline=None)
@given(_reduce_cases())
def test_reduce_matches_polynomial_subtraction(case):
    I, inside, others = case
    for x in inside:
        assert _remainder_poly(I, x) == reduce_by_poly_ops(I, x) == LaurentPoly.zero(I.field)
    for x in others:
        assert _remainder_poly(I, x) == reduce_by_poly_ops(I, x), (I, x)


@settings(max_examples=200, deadline=None)
@given(_ideal_pairs(fields=(QQ, GF(2), GF(3), GF(5), GF(7))),
       st.integers(-4, 4), st.integers(-4, 4))
# an empty window: I = t^3 K[[t]] has no rows
@example((shift(integral_closure_ideal(QQ, H), 3), unit_ideal(QQ, H), None), 0, 0)
# J = K[[t]]: only tail monomials span J, and they reach below tail(I)
@example((maximal_ideal(GF(5), H), integral_closure_ideal(GF(5), H), None), 1, -2)
# I = c
@example((conductor_ideal(GF(3), H), maximal_ideal(GF(3), H), None), 0, 0)
# I = R
@example((unit_ideal(QQ, H),
          ideal_from_generators(QQ, H, [P(QQ, "t^4 + t^5")], with_conductor=True), None), 0, 0)
# N0
@example((unit_ideal(GF(7), N0), ideal_from_generators(GF(7), N0, [P(GF(7), "t^2")]), None),
         -1, 3)
def test_colon_matches_reduction_oracle(case, a, b):
    I, J, _ = case
    I, J = shift(I, a), shift(J, b)
    assert equals(colon(I, J), colon_by_reduction(I, J)), (I, J)


@settings(max_examples=200, deadline=None)
@given(_ideal_pairs(fields=(QQ, GF(2), GF(3), GF(5), GF(7))), st.integers(-4, 4))
def test_colon_by_generators_matches_reduction_oracle(case, b):
    # colon imposes alpha * g in I only for J's generators over R, the
    # elements at the minimal generators of v(J); they must generate J,
    # and the colon must agree with the oracle that reduces every row
    # and every tail monomial of J
    I, J, _ = case
    J = shift(J, b)
    f, H_ = J.field, J.semigroup
    gens = _generators(J)
    assert [g.valuation for g in gens] == list(value_set(J).generators)
    assert equals(_module_from(f, H_, gens, J.tail + H_.multiplicity), J), J
    for X in (I, J, shift(I, -b)):
        assert equals(colon(X, J), colon_by_reduction(X, J)), (X, J)


def _fraction_coefficients(X):
    """Over QQ every coefficient is a ``Fraction``; an int equals its
    ``Fraction``, so == alone would not see one."""
    return X.field.finite or all(type(c) is Fraction for r in X.rows for _, c in r.terms)


@settings(max_examples=200, deadline=None)
@given(_ideal_pairs(fields=(QQ, GF(2), GF(3), GF(5), GF(7))),
       st.integers(-4, 4), st.integers(-4, 4))
# I's rows have denominators 3 and 2, so D = 6; J's and g's have 3 and 6
@example((ideal_from_generators(QQ, H, [P(QQ, "t^4 + 1/3*t^6"), P(QQ, "t^5 + 1/2*t^7")],
                                with_conductor=True),
          ideal_from_generators(QQ, H, [P(QQ, "t + 2/3*t^2")]),
          P(QQ, "5 + 1/2*t^2 + 1/3*t^3")), 0, 0)
def test_integer_colon_matches_fraction_rows(case, a, b):
    # the powers of s x on native ints (residues over F_p) against the
    # powers of x = g - g(0) times s^k; the colon's system on integer rows
    # against the former system in field elements, on J's generators and
    # on the powers, and adjoin on the scaled powers against the powers
    # themselves; over QQ the results hold Fractions only
    I, J, g = case
    I, J = shift(I, a), shift(J, b)
    f, H_ = I.field, I.semigroup
    R = unit_ideal(f, H_)
    pairs = ((I, J), (J, I), (I, I))
    powers = powers_by_poly_ops(f, H_, g)
    s = 1 if f.finite else lcm(*(c.denominator for e, c in g.terms if e))
    scaled = _powers(f, H_, g)
    assert [LaurentPoly.from_dict(f, dict(t)) for t in scaled] == [
        x.scale(f.element(s ** k)) for k, x in enumerate(powers)], case
    assert all(type(c) is int and (not f.finite or 0 < c < f.p)
               for t in scaled for _, c in t), case
    got = [_colon(X, [r.terms for r in _generators(Y)], Y.lo) for X, Y in pairs]
    got += [_overring_trace(R, g), adjoin(f, H_, g)]
    want = [colon_by_fraction_rows(X, _generators(Y), Y.lo) for X, Y in pairs]
    want += [colon_by_fraction_rows(R, powers, 0),
             ideal_from_generators(f, H_, powers, with_conductor=True)]
    assert got == want, case
    assert all(map(_fraction_coefficients, got)), case


def test_powers_check_the_field():
    # a series over another field is refused, not reduced into this one:
    # t^2 + 4t^3 over F_5 read mod 3 would give a wrong ideal over F_3
    H456 = S([4, 5, 6])
    for f, g in ((QQ, P(GF(2), "t^2 + t^3")), (GF(3), P(QQ, "t^2 + 1/2*t^3")),
                 (GF(3), P(GF(5), "t^2 + 4*t^3"))):
        with pytest.raises(FieldMismatch):
            adjoin(f, H456, g)
        with pytest.raises(FieldMismatch):
            _overring_trace(unit_ideal(f, H456), g)


@st.composite
def _monomial_pairs(draw):
    """Two monomial ideals of one genus <= 6 semigroup ring over QQ, F_2 or
    F_3, each shifted: generated by monomials of valuation -3 to 6 (so
    non-integral ones occur), with or without the conductor, or with no
    rows at all (a tail t^N K[[t]] only)."""
    H_ = draw(st.sampled_from([X for X in GENUS_AT_MOST_6 if X.conductor <= 9]))
    f = draw(st.sampled_from((QQ, GF(2), GF(3))))

    def ideal():
        if draw(st.booleans()) and draw(st.booleans()):
            I = integral_closure_ideal(f, H_)
        else:
            exps = draw(st.lists(st.integers(-3, 6), min_size=1, max_size=3))
            I = ideal_from_generators(f, H_, [LaurentPoly.monomial(f, e) for e in exps],
                                      with_conductor=draw(st.booleans()))
        return shift(I, draw(st.integers(-4, 4)))

    return ideal(), ideal()


@settings(max_examples=200, deadline=None)
@given(_monomial_pairs())
@example((maximal_ideal(QQ, H), maximal_ideal(QQ, H)))              # m : m
@example((unit_ideal(GF(2), H), shift(integral_closure_ideal(GF(2), H), 2)))  # R : t^2 K[[t]]
@example((shift(conductor_ideal(GF(3), N0), -1), unit_ideal(GF(3), N0)))      # N0, tails only
def test_monomial_colon_matches_linear_solve(pair):
    # the closed form v(I) - v(J) against the linear solve on J's generators
    # and against the oracle that reduces every spanning element of J
    I, J = pair
    assert all(r.is_monomial() for r in I.rows + J.rows)
    for X, Y in ((I, J), (J, I), (I, I)):
        got = colon(X, Y)
        assert got == _colon(X, [g.terms for g in _generators(Y)], Y.lo), (X, Y)
        assert equals(got, colon_by_reduction(X, Y)), (X, Y)


def test_endomorphism_ring_of_m_matches_linear_solve():
    # m : m in closed form on every semigroup of genus <= 10, against the
    # linear solve it replaced; it is K[[H u PF(H)]], H with its
    # pseudo-Frobenius numbers
    count = 0
    for H_ in enumerate_semigroups(10):
        m = maximal_ideal(QQ, H_)
        E = endomorphism_ring(m)
        assert E == _colon(m, [g.terms for g in _generators(m)], m.lo), H_
        c = H_.conductor
        if c:  # PF(N0) = (-1,) by convention
            members = set(H_.members(c)) | set(H_.pseudo_frobenius())
            assert set(E.pivots) | set(range(E.tail, c)) == members, H_
        count += 1
    assert count == 478


def _is_canonical(C):
    return _canonical(C.field, C.semigroup, C.rows, C.tail) == C


@settings(max_examples=200, deadline=None)
@given(_ideal_pairs(), st.integers(-4, 4), st.integers(-4, 4))
def test_colons_come_out_canonical(case, a, b):
    # a colon is its null space's RREF below tail(I) - lo(J), with no second
    # echelonization and no tail trimming: the rows are echelon and the tail
    # is minimal, as t^(tail - 1) * J is not inside I
    I, J, _ = case
    I, J = shift(I, a), shift(J, b)
    for X, Y in ((I, J), (J, I), (I, I)):
        C = colon(X, Y)
        assert _is_canonical(C) and not contains_ideal(X, shift(Y, C.tail - 1)), (X, Y)


def test_probe_colons_come_out_canonical():
    # R : R[t^n + k t^(n+1)] on every genus <= 8 semigroup with a probe exponent;
    # 1 lies in R[g], and t^(tail - 1) does not lie in R
    samples = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(7, 5))
    count = 0
    for H_ in enumerate_semigroups(8):
        n = value_set_condition(canonical_value_set(H_)).witness
        if n is None:
            continue
        R = unit_ideal(QQ, H_)
        for k in samples:
            g = LaurentPoly.from_dict(QQ, {n: QQ.one, n + 1: k})
            T = _overring_trace(R, g)
            assert _is_canonical(T) and not contains(R, LaurentPoly.monomial(QQ, T.tail - 1))
            count += 1
    assert count == 66 * len(samples)


@st.composite
def _dilation_cases(draw):
    """Two ideals as in _ideal_pairs, shifted, and two nonzero scalars."""
    I, J, _ = draw(_ideal_pairs(fields=(QQ, GF(3), GF(5))))
    coeff = _coefficients(I.field)
    return (shift(I, draw(st.integers(-4, 4))), shift(J, draw(st.integers(-4, 4))),
            draw(coeff), draw(coeff))


def _image(f, r, lam):
    """The series r(lam t), term by term."""
    return LaurentPoly(f, tuple((e, f.mul(c, pow(lam, e, f.p) if f.finite else lam ** e))
                                for e, c in r.terms))


@settings(max_examples=150, deadline=None)
@given(_dilation_cases())
@example((maximal_ideal(QQ, H), unit_ideal(QQ, H), QQ.element(-2), QQ.element(1, 3)))
@example((shift(integral_closure_ideal(GF(5), H), -3), conductor_ideal(GF(5), H), 2, 4))
def test_dilate_is_the_automorphism_image(case):
    # t -> lam t maps R and every t^N K[[t]] onto themselves, so dilate keeps
    # the tail and rescales each row to pivot coefficient 1 on its own
    I, J, a, b = case
    f, H_ = I.field, I.semigroup
    image = dilate(I, a)
    assert image == _canonical(f, H_, [_image(f, r, a) for r in I.rows], I.tail)
    assert dilate(I, f.one) == I
    assert dilate(image, b) == dilate(I, f.mul(a, b))
    for op in (colon, multiply, add):
        assert equals(dilate(op(I, J), a), op(image, dilate(J, a))), (op, I, J, a)
    with pytest.raises(ValueError):
        dilate(I, f.zero)


def test_dilate_takes_the_scalar_into_the_field():
    # over F_5, 1/2 is 3 and 5/2 is zero; over QQ the scalar 2 is 2/1
    f, H_ = GF(5), S([6, 7, 8, 9, 10])
    I = ideal_from_generators(f, H_, [P(f, "t^6 + t^7")], with_conductor=True)
    assert dilate(I, Fraction(1, 2)) == dilate(I, 3)
    assert dilate(I, 3).rows[0].terms == ((6, 1), (7, 3))
    with pytest.raises(ValueError):
        dilate(I, Fraction(5, 2))
    J = ideal_from_generators(QQ, H_, [P(QQ, "t^6 + t^7")], with_conductor=True)
    assert dilate(J, 2) == dilate(J, Fraction(2)) != J
    assert dilate(J, 2).rows[0].terms == ((6, 1), (7, 2))


@settings(max_examples=150, deadline=None)
@given(_ideal_pairs(), st.integers(-4, 4))
@example((integral_closure_ideal(QQ, H), conductor_ideal(QQ, H), None), -2)
@example((unit_ideal(GF(2), N0), maximal_ideal(GF(2), N0), None), 3)
def test_value_set_matches_create(case, k):
    # value_set reads the pivots and the tail of a canonical module as they
    # are: create's stable trimming and closure sweep find nothing to change
    I, J, _ = case
    for X in (I, J, shift(I, k), shift(J, k), colon(I, J)):
        assert value_set(X) == SemigroupIdeal.create(X.semigroup, set(X.pivots), X.tail), X


def test_endomorphism_ring():
    R = unit_ideal(QQ, H)
    assert equals(endomorphism_ring(R), R)
    assert equals(endomorphism_ring(conductor_ideal(QQ, H)),
                  integral_closure_ideal(QQ, H))
    E = endomorphism_ring(maximal_ideal(QQ, S([3, 7, 8])))
    assert list(value_set(E).elements(7)) == [0, 3, 4, 5, 6]


def test_minimal_generator_count():
    assert minimal_generator_count(unit_ideal(QQ, H)) == 1
    assert minimal_generator_count(maximal_ideal(QQ, H)) == 3
    assert minimal_generator_count(
        ideal_from_generators(QQ, H, [P(QQ, "t^4")])) == 1


def test_dvr_edge_cases():
    R = unit_ideal(GF(2), N0)
    tR = ideal_from_generators(GF(2), N0, [P(GF(2), "t")])
    assert tR.tail == 1 and tR.rows == ()
    assert equals(multiply(tR, tR), shift(R, 2))
    assert equals(colon(R, tR), shift(R, -1))
    assert equals(add(tR, R), R)


# ---------------------------------------------------------------------------
# randomized sweeps over F_2


def _random_ideals(rng, count, max_genus=6):
    pool = [S_ for S_ in enumerate_semigroups(max_genus) if S_.conductor <= 9]
    f = GF(2)
    out = []
    while len(out) < count:
        H_ = rng.choice(pool)
        gens = []
        for _ in range(rng.randint(1, 2)):
            lo = rng.randint(0, 5)
            terms = {lo: 1}
            for e in range(lo + 1, lo + rng.randint(1, 4)):
                if rng.random() < 0.5:
                    terms[e] = 1
            gens.append(LaurentPoly.from_dict(f, terms))
        out.append(ideal_from_generators(f, H_, gens,
                                         with_conductor=rng.random() < 0.5))
    return out


def test_colon_matches_exhaustive_search():
    rng = random.Random(20240801)
    ideals = _random_ideals(rng, 120)
    pairs = 0
    while pairs < 200:
        I = rng.choice(ideals)
        J = rng.choice([X for X in ideals if X.semigroup == I.semigroup] or [I])
        if I.tail - J.lo - (I.lo - J.lo) > 14:
            continue
        got = colon(I, J)
        want = colon_by_search(I, J)
        assert equals(got, want), (I, J)
        pairs += 1


def test_colon_algebraic_properties():
    rng = random.Random(99)
    ideals = _random_ideals(rng, 60)
    R_cache = {}
    for _ in range(120):
        I = rng.choice(ideals)
        J = rng.choice([X for X in ideals if X.semigroup == I.semigroup] or [I])
        Q = colon(I, J)
        # (I : J) * J lies inside I
        assert contains_ideal(I, multiply(Q, J))
        # triple duals stabilize
        d1 = colon(I, J)
        d3 = colon(I, colon(I, colon(I, J)))
        assert equals(d1, d3)
        H_ = I.semigroup
        R = R_cache.setdefault(H_.text, unit_ideal(I.field, H_))
        assert contains_ideal(colon(I, R), I)


def test_equality_is_membership_agreement():
    rng = random.Random(7)
    ideals = _random_ideals(rng, 60)
    f = GF(2)
    for _ in range(200):
        I = rng.choice(ideals)
        J = rng.choice([X for X in ideals if X.semigroup == I.semigroup] or [I])
        hi = max(I.tail, J.tail) + 5
        lo = min(I.lo, J.lo)
        probes = [LaurentPoly.monomial(f, e) for e in range(lo, hi)]
        probes += list(I.rows) + list(J.rows)
        agree = all(contains(I, p) == contains(J, p) for p in probes)
        assert agree == equals(I, J)


def test_product_value_sets():
    rng = random.Random(13)
    ideals = _random_ideals(rng, 50)
    for _ in range(80):
        I = rng.choice(ideals)
        J = rng.choice([X for X in ideals if X.semigroup == I.semigroup] or [I])
        IJ = multiply(I, J)
        vi, vj, vij = value_set(I), value_set(J), value_set(IJ)
        hi = IJ.tail + 3
        sums = {a + b for a in vi.elements(hi) for b in vj.elements(hi)}
        assert all(s in vij for s in sums if s < hi)
        if all(r.is_monomial() for r in list(I.rows) + list(J.rows)):
            assert all(x in sums for x in vij.elements(hi))


def test_adjoin_is_multiplicatively_closed():
    rng = random.Random(5)
    f = GF(2)
    for H_ in [S([4, 5, 6]), S([3, 7, 8]), S([4, 5, 11]), S([5, 6, 7, 8, 9])]:
        for _ in range(6):
            lo = rng.randint(1, 4)
            terms = {lo: 1}
            for e in range(lo + 1, lo + 4):
                if rng.random() < 0.5:
                    terms[e] = 1
            A = adjoin(f, H_, LaurentPoly.from_dict(f, terms))
            assert equals(multiply(A, A), A)
            assert contains_ideal(A, unit_ideal(f, H_))


def test_endomorphism_rings_live_in_closure():
    rng = random.Random(3)
    for I in _random_ideals(rng, 60):
        E = endomorphism_ring(I)
        assert E.lo >= 0
        assert contains_ideal(E, unit_ideal(I.field, I.semigroup))
        assert contains_ideal(integral_closure_ideal(I.field, I.semigroup), E)


def test_ideal_json_shape():
    I = ideal_from_generators(QQ, H, [P(QQ, "t^4 + t^5")], with_conductor=True)
    payload = I.to_json()
    assert payload == {"lo": 4, "tail": 8, "basis": [[[4, "1"], [5, "1"]]]}
