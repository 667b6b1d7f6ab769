import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge.errors import IsDVR, NotMinimalMultiplicity, PreconditionViolated
from traceforge.fields import GF, QQ
from traceforge.ideals import (LaurentPoly, adjoin, colon, conductor_ideal, contains_ideal,
                               equals, ideal_from_generators, maximal_ideal,
                               minimal_generator_count, shift, unit_ideal)
from traceforge.semigroups import (NumericalSemigroup, canonical_value_set, enumerate_semigroups,
                                   is_arf, natural_semigroup, value_set_condition)
from traceforge.trace import (LARGER, MINIMAL_TRACE_SET, _overring_trace, _probe_colons,
                              enumerate_trace_ideals, family_probe, has_free_summand,
                              is_trace_ideal, minimal_trace_classification, trace,
                              verify_bijection, verify_normalization_union)

from _oracles import family_probe_by_colons, trace_by_colon
from goldens import DATA, PROBE_SAMPLES, probe_lines

S = NumericalSemigroup.from_generators
N0 = natural_semigroup()
H = S([4, 5, 11])


def P(field, text):
    return LaurentPoly.parse(field, text)


def conducted(field, H_, *texts):
    return ideal_from_generators(field, H_, [P(field, t) for t in texts],
                                 with_conductor=True)


def test_trace_of_binomial_ideal_is_maximal():
    I = conducted(QQ, H, "t^4 + t^5")
    assert equals(trace(I), maximal_ideal(QQ, H))
    assert not is_trace_ideal(I)


def test_trace_fixed_points():
    R = unit_ideal(QQ, H)
    assert equals(trace(R), R)
    assert is_trace_ideal(conductor_ideal(QQ, H))
    assert is_trace_ideal(conducted(QQ, H, "t^5"))
    assert is_trace_ideal(maximal_ideal(QQ, H))
    assert not is_trace_ideal(conducted(QQ, H, "t^4"))


def test_dvr_maximal_ideal_is_not_trace():
    for field in (QQ, GF(2), GF(3)):
        m = ideal_from_generators(field, N0, [P(field, "t")])
        assert equals(trace(m), unit_ideal(field, N0))
        assert not is_trace_ideal(m)


def test_has_free_summand():
    assert has_free_summand(ideal_from_generators(QQ, H, [P(QQ, "t^4")]))
    assert not has_free_summand(maximal_ideal(QQ, H))
    assert has_free_summand(unit_ideal(QQ, H))
    with pytest.raises(ValueError, match="integral"):
        has_free_summand(shift(unit_ideal(QQ, H), -1))


def _random_integral_poly(rng, f, H_, width=5):
    # supported on members of H, so the generated module lies inside R
    exps = list(H_.members(H_.conductor + 4))
    lo = rng.choice(exps[: max(len(exps) - 2, 1)])
    terms = {lo: 1}
    for e in exps:
        if lo < e <= lo + width and rng.random() < 0.5:
            terms[e] = 1
    return LaurentPoly.from_dict(f, terms)


def test_free_summand_matches_cyclicity():
    rng = random.Random(11)
    f = GF(2)
    for H_ in [H, S([4, 5, 6]), S([3, 7, 8]), S([2, 7])]:
        for _ in range(12):
            I = ideal_from_generators(f, H_, [_random_integral_poly(rng, f, H_)],
                                      with_conductor=rng.random() < 0.4)
            assert has_free_summand(I) == (minimal_generator_count(I) == 1)


def test_trace_is_invariant_under_shifts():
    I = conducted(QQ, H, "t^4 + t^5")
    for k in (-4, -1, 2, 6):
        assert equals(trace(shift(I, k)), trace(I))


def test_trace_monotone_and_idempotent_on_candidates():
    f = GF(2)
    rng = random.Random(23)
    for H_ in [H, S([4, 6, 9, 11]), S([4, 5, 7]), S([2, 9])]:
        R = unit_ideal(f, H_)
        for _ in range(10):
            I = ideal_from_generators(f, H_, [_random_integral_poly(rng, f, H_)],
                                      with_conductor=True)
            T = trace(I)
            assert contains_ideal(T, I) and contains_ideal(R, T)
            assert equals(trace(T), T)


def test_nonzero_trace_ideals_contain_conductor():
    # the window kernel takes c inside tr(I) as given, so check it on the
    # colon-and-product trace of random ideals, integral and shifted
    rng = random.Random(31)
    for field in (GF(2), GF(3), QQ):
        top = field.p - 1 if field.finite else 9
        for H_ in [H, S([4, 5, 6]), S([3, 7, 8]), S([2, 9])]:
            C = conductor_ideal(field, H_)
            exps = list(H_.members(H_.conductor + 4))
            for _ in range(10):
                gens = []
                for _ in range(rng.randint(1, 2)):
                    lo = rng.choice(exps[:-2])
                    support = [e for e in exps if lo <= e <= lo + 5
                               and (e == lo or rng.random() < 0.5)]
                    gens.append(LaurentPoly.from_dict(
                        field, {e: field.element(rng.randint(1, top)) for e in support}))
                I = ideal_from_generators(field, H_, gens)
                for k in (0, rng.randint(-6, 6)):
                    assert contains_ideal(trace_by_colon(shift(I, k)), C), (H_, I, k)


def values_below_conductor(I):
    """v(I) below c for an I that contains c, read off its canonical rows,
    which lie below its tail, and the tail."""
    return {r.valuation for r in I.rows} | set(range(I.tail, I.semigroup.conductor))


def test_trace_ideals_satisfy_the_value_set_lemma():
    # gamma b lies in tr(T) = T for gamma in R : T and b in T, and its lowest
    # term sits at v(gamma) + v(b): v(R : T) + v(T) lies in v(T) u [c, oo)
    for p, genus in ((2, 7), (3, 5)):
        for H_ in enumerate_semigroups(genus):
            c = H_.conductor
            R = unit_ideal(GF(p), H_)
            for info in enumerate_trace_ideals(H_, p).ideals:
                T = info.ideal
                vt = values_below_conductor(T)
                for a in values_below_conductor(colon(R, T)):
                    assert all(a + e >= c or a + e in vt for e in vt), (H_, p, T, a)


GOLDEN = {
    # semigroup -> (distinguished extra pivot, maximal ideal pivots)
    (4, 5, 11): (5, (4, 5)),
    (4, 6, 9, 11): (6, (4, 6)),
    (4, 5, 7): (5, (4, 5)),
}


@pytest.mark.parametrize("gens", sorted(GOLDEN))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_trace_enumeration_golden_families(gens, p):
    H_ = S(gens)
    enum = enumerate_trace_ideals(H_, p)
    extra, m_pivots = GOLDEN[gens]
    labels = [i.label() for i in enum.ideals]
    assert labels == ["c", f"c+(t^{extra})",
                      f"m = c+({', '.join('t^%d' % q for q in m_pivots)})", "R"]
    assert enum.count_with_zero == 5
    got_pivots = [i.ideal.pivots for i in enum.ideals]
    assert got_pivots == [(), (extra,), m_pivots, (0,) + m_pivots]
    assert all(i.ideal.tail == H_.conductor for i in enum.ideals)
    assert all(i.is_monomial for i in enum.ideals)


def test_trace_enumeration_census():
    assert enumerate_trace_ideals(H, 2).census == 6   # 0, three lines, m/c, R
    assert enumerate_trace_ideals(H, 3).census == 7


@pytest.mark.parametrize("gens, p, count, census", [
    ((7, 8, 9, 10, 11, 12), 2, 37, 2826),
    ((6, 7, 8, 9, 10), 3, 44, 2665),
])
def test_trace_enumeration_hard_cases(gens, p, count, census):
    enum = enumerate_trace_ideals(S(gens), p)
    assert (enum.count_with_zero, enum.census) == (count, census)


def test_trace_enumeration_dvr():
    enum = enumerate_trace_ideals(N0, 2)
    assert [i.label() for i in enum.ideals] == ["R"]
    assert enum.count_with_zero == 2


def test_trace_enumeration_small_trace_semigroups():
    for gens in [(3, 4, 5), (4, 5, 6, 7), (5, 6, 7, 8, 9)]:
        enum = enumerate_trace_ideals(S(gens), 2)
        assert [i.label() for i in enum.ideals] == ["m = c", "R"]


def test_maximal_ideal_trace_iff_not_dvr():
    for H_ in enumerate_semigroups(6):
        m = maximal_ideal(GF(2), H_)
        assert is_trace_ideal(m) == (H_.genus != 0), H_


def test_bijection_examples():
    rep = verify_bijection(S([3, 7, 8]), 2)
    assert rep.ok and rep.left_count == rep.right_count == 3
    assert rep.blowup == "3,4,5"
    rep = verify_bijection(S([2, 3]), 2)
    assert rep.ok and rep.left_count == rep.right_count == 2
    with pytest.raises(IsDVR):
        verify_bijection(N0, 2)
    with pytest.raises(NotMinimalMultiplicity):
        verify_bijection(H, 2)


def test_family_probe_witness():
    rep = family_probe(S([4, 5, 6]), 2, [0, 1, 2, 3, 5])
    assert rep.distinct_results == 5
    assert rep.verdict == "infinite-family-witness"
    assert rep.template == "t^2 + k*t^3"


def test_family_probe_rational_samples():
    rep = family_probe(S([4, 5, 6]), 2,
                       [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
    assert rep.distinct_results == 3


def test_family_probe_guards():
    with pytest.raises(PreconditionViolated):
        family_probe(H, 2, [0, 1])  # 1 lies in K(H)
    assert family_probe(S([4, 5, 6]), 2, [1]).verdict == "no-separation"
    with pytest.raises(ValueError):
        family_probe(S([4, 5, 6]), 2, [1, 1])
    with pytest.raises(ValueError):
        family_probe(S([4, 5, 6]), 2, [])


def test_family_probe_rejects_negative_exponent_before_any_colon():
    # 1, -2 and -1 all lie outside K(4,5,6), but t^-2 + k t^-1 is not integral
    errors = []
    for samples in ([3], [0, 1, 5], []):
        with pytest.raises(PreconditionViolated) as exc:
            family_probe(S([4, 5, 6]), -2, samples)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == errors[2] and "negative" in errors[0]


def test_family_probe_takes_the_exponent_through_index():
    # an exponent is an int, as a generator is: a float would name the
    # template t^2.5 + k*t^3.5 or report the exponent 2.0
    for n in (2.5, 2.0):
        with pytest.raises(TypeError):
            family_probe(S([4, 5, 6]), n, [1, 2])


GENUS_AT_MOST_7 = list(enumerate_semigroups(7))


def _elements(f):
    """Field elements, zero included."""
    if f.finite:
        return st.integers(0, f.p - 1).map(f.element)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _overring_cases(draw):
    """g = a + t^n + k t^(n+1) + a few higher terms, with a and k possibly 0."""
    H_ = draw(st.sampled_from(GENUS_AT_MOST_7))
    f = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = draw(st.integers(0, H_.conductor + 1))
    terms = {0: draw(_elements(f)), n: f.one, n + 1: draw(_elements(f))}
    for e in draw(st.lists(st.integers(n + 2, n + 5), max_size=2)):
        terms[e] = draw(_elements(f))
    return f, H_, LaurentPoly.from_dict(f, terms)


@settings(max_examples=200, deadline=None)
@given(_overring_cases())
@example((QQ, S([4, 5, 6]), P(QQ, "t^2")))              # the probe template with k = 0
@example((QQ, S([4, 5, 6]), P(QQ, "t^2 + 1/3*t^3")))
@example((GF(3), H, P(GF(3), "2 + t^5 + t^6")))         # a constant term
@example((GF(2), H, P(GF(2), "t^9 + t^10")))            # n = c + 1: R[g] = R
@example((GF(5), S([3, 7, 8]), P(GF(5), "t")))          # K[[t]]
@example((QQ, N0, P(QQ, "1 + t")))
@example((GF(2), S([4, 5, 6]), LaurentPoly.zero(GF(2))))
def test_overring_trace_is_colon_of_adjoin(case):
    # the probe's colon on the powers of x against the colon by R[g] itself
    f, H_, g = case
    R = unit_ideal(f, H_)
    assert equals(_overring_trace(R, g), colon(R, adjoin(f, H_, g))), case


def test_probe_colons_match_golden_digest():
    # the registry's genus-8 probe lines; the digest was taken from
    # colon(R, adjoin(QQ, H, g)) for g = t^n + k t^(n+1)
    lines = probe_lines(8)
    assert len(lines) == 66 * len(PROBE_SAMPLES)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (DATA / "probe-colons-g8.sha256").read_text().strip()


def _probe_exponents(H_):
    """Every n >= 0 with 1, n and n+1 outside K(H)."""
    K = canonical_value_set(H_)
    return [n for n in range(H_.conductor + 1) if not any(x in K for x in (1, n, n + 1))]


def test_probe_dilation_matches_per_sample_colons():
    # every admissible exponent, not only the least; samples with 0, negative
    # and non-integer values, and a list whose first nonzero sample is not 1
    sample_lists = (PROBE_SAMPLES[:4] + (Fraction(-7, 5),),
                    (Fraction(5, 2), Fraction(0), Fraction(-1, 3)))
    pairs = [(H_, n) for H_ in enumerate_semigroups(8) for n in _probe_exponents(H_)]
    assert len(pairs) == 198  # 122 with n >= 2
    for H_, n in pairs:
        for samples in sample_lists:
            report, colons = family_probe_by_colons(H_, n, samples)
            assert family_probe(H_, n, samples) == report, (H_, n, samples)
            assert _probe_colons(H_, n, samples) == colons, (H_, n, samples)


def test_normalization_union():
    assert verify_normalization_union(H, 2)
    assert verify_normalization_union(N0, 2)
    assert verify_normalization_union(S([2, 3]), 2)


def test_minimal_trace_classification():
    assert minimal_trace_classification(S([3, 4, 5])) == MINIMAL_TRACE_SET
    assert minimal_trace_classification(H) == LARGER
    assert minimal_trace_classification(N0) == MINIMAL_TRACE_SET
    # cross-check against the enumeration over F_2
    for H_ in enumerate_semigroups(5):
        enum = enumerate_trace_ideals(H_, 2)
        small = all(i.is_maximal_ideal or i.is_unit_ideal for i in enum.ideals)
        assert small == (minimal_trace_classification(H_) == MINIMAL_TRACE_SET), H_


def test_arf_semigroups_satisfy_value_set_condition():
    for H_ in enumerate_semigroups(8):
        if is_arf(H_):
            assert value_set_condition(canonical_value_set(H_)).holds(), H_


def test_enumeration_guards():
    from traceforge.errors import WorkloadExceeded
    with pytest.raises(ValueError):
        enumerate_trace_ideals(H, 11)  # only small primes are supported
    with pytest.raises(WorkloadExceeded):
        enumerate_trace_ideals(S([2, 27]), 2)  # dim R/c = 13


def test_enumeration_report_shape():
    report = enumerate_trace_ideals(H, 2).to_report()
    assert report["semigroup"] == "4,5,11"
    assert report["census"] == 6
    labels = [row["label"] for row in report["trace_ideals"]]
    assert labels == ["c", "c+(t^5)", "m = c+(t^4, t^5)", "R"]
    assert report["trace_ideals"][0]["is_conductor"]
    assert report["trace_ideals"][-1]["is_unit_ideal"]
