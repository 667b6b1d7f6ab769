"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value is frozen from an independent oracle or a verified
worked example; every criterion carries its stated wall-clock budget.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from _oracles import colon_by_search, closure_members, is_arf_by_rule
from traceforge.artin import (enumerate_ideals, enumerate_trace_ideals_artinian,
                              gorenstein_family_separation,
                              gorenstein_two_generators, semigroup_quotient, socle,
                              square_zero_two_vars, truncated_dvr)
from traceforge.cli import main
from traceforge.fields import GF, QQ
from traceforge.ideals import (LaurentPoly, add, conductor_ideal, contains_ideal,
                               endomorphism_ring, equals, ideal_from_generators,
                               integral_closure_ideal, maximal_ideal, unit_ideal,
                               colon)
from traceforge.semigroups import (INTERIOR, NumericalSemigroup, blowup, canonical_value_set,
                                   enumerate_semigroups, is_arf, kunz_cone_classify,
                                   natural_semigroup, value_set_condition)
from traceforge.trace import (enumerate_trace_ideals, family_probe, is_trace_ideal,
                              trace, verify_bijection)

S = NumericalSemigroup.from_generators
N0 = natural_semigroup()


@contextmanager
def budget(number, description, limit_s):
    t0 = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        dt = time.monotonic() - t0
        status = "FAIL" if failed else ("PASS" if dt < limit_s else "FAIL (over budget)")
        print(f"criterion {number:>2}: {status}  {description}  "
              f"({dt:.2f}s of {limit_s:.0f}s)")
    assert dt < limit_s, f"criterion {number} exceeded {limit_s}s ({dt:.2f}s)"


GOLDEN_ENUMS = {
    (4, 5, 11): ["c", "c+(t^5)", "m = c+(t^4, t^5)", "R"],
    (4, 6, 9, 11): ["c", "c+(t^6)", "m = c+(t^4, t^6)", "R"],
    (4, 5, 7): ["c", "c+(t^5)", "m = c+(t^4, t^5)", "R"],
}


def test_criterion_01_worked_trace_enumerations(tmp_path, capsys):
    with budget(1, "worked examples: Tr(R) over F_2 and F_3, CLI exact match", 10):
        for gens, labels in GOLDEN_ENUMS.items():
            H = S(gens)
            for p in (2, 3):
                enum = enumerate_trace_ideals(H, p)
                assert [i.label() for i in enum.ideals] == labels, (gens, p)
                assert enum.count_with_zero == 5
                assert all(i.ideal.tail == H.conductor for i in enum.ideals)
        # the quartic case, through the CLI surface, both primes
        for p in (2, 3):
            out_file = tmp_path / f"enum{p}.json"
            assert main(["trace", "enum", "4,5,11", "--p", str(p),
                         "--json", str(out_file)]) == 0
            payload = json.loads(out_file.read_text())
            assert [r["label"] for r in payload["trace_ideals"]] == \
                GOLDEN_ENUMS[(4, 5, 11)]
            assert payload["trace_ideals"][0]["tail"] == 8
            assert payload["zero_ideal_included"] is True
        capsys.readouterr()


def test_criterion_02_colon_display():
    with budget(2, "colon R : (c + (t^4 + t^5)) over QQ and its trace", 1):
        H = S([4, 5, 11])
        I = ideal_from_generators(QQ, H, [LaurentPoly.parse(QQ, "t^4 + t^5")],
                                  with_conductor=True)
        got = colon(unit_ideal(QQ, H), I)
        stated = ideal_from_generators(QQ, H, [
            LaurentPoly.parse(QQ, s)
            for s in ("1", "t - t^2 + t^3", "t^4", "t^5", "t^6", "t^7")])
        assert equals(got, stated)
        assert equals(trace(I), maximal_ideal(QQ, H))


def test_criterion_03_dvr_and_maximal_ideals():
    with budget(3, "m is a trace ideal iff the ring is not a DVR (genus <= 5)", 10):
        m0 = ideal_from_generators(GF(2), N0, [LaurentPoly.monomial(GF(2), 1)])
        assert not is_trace_ideal(m0)
        enum = enumerate_trace_ideals(N0, 2)
        assert [i.label() for i in enum.ideals] == ["R"]
        assert enum.count_with_zero == 2
        corpus = list(enumerate_semigroups(5))
        assert len(corpus) == 27  # 1 + 1 + 2 + 4 + 7 + 12
        for H in corpus:
            if H.genus == 0:
                continue
            assert is_trace_ideal(maximal_ideal(GF(2), H)), H


def test_criterion_04_smallest_trace_sets():
    with budget(4, "Tr(R) = {0, m, R} for m inside the conductor; square-zero", 30):
        for gens in [(3, 4, 5), (4, 5, 6, 7), (5, 6, 7, 8, 9)]:
            enum = enumerate_trace_ideals(S(gens), 2)
            assert [i.label() for i in enum.ideals] == ["m = c", "R"], gens
        for p in (2, 3):
            A = square_zero_two_vars(GF(p))
            assert [I.dim for I in enumerate_trace_ideals_artinian(A)] == [0, 2, 3]


def test_criterion_05_blowup_bijection():
    with budget(5, "Tr(R)\\{R} <-> Tr(m:m) for minimal multiplicity, genus <= 7", 300):
        checked = 0
        for H in enumerate_semigroups(7):
            if H.genus == 0 or not H.has_minimal_multiplicity:
                continue
            for p in (2, 3):
                rep = verify_bijection(H, p)
                assert rep.ok and rep.left_count == rep.right_count, (H, p)
                checked += 1
        assert checked == 80  # 40 minimal-multiplicity semigroups, two primes


def test_criterion_06_colon_separation_probe():
    with budget(6, "five rational parameters give five distinct trace colons", 5):
        rep = family_probe(S([4, 5, 6]), 2, [0, 1, 2, 3, 5])
        assert rep.distinct_results == 5
        assert rep.verdict == "infinite-family-witness"


def test_criterion_07_arf_value_set_condition():
    with budget(7, "every Arf semigroup of genus <= 8 passes the value-set test", 60):
        arf_count = 0
        for H in enumerate_semigroups(8):
            if is_arf(H):
                arf_count += 1
                assert value_set_condition(canonical_value_set(H)).holds(), H
        assert arf_count == 48  # Arf counts by genus: 1,1,2,3,4,6,8,10,13


def test_criterion_08_smallest_trace_and_normalization():
    with budget(8, "conductor/socle lie in every nonzero trace ideal; union is Rbar", 300):
        for H in enumerate_semigroups(6):
            enum = enumerate_trace_ideals(H, 2)
            C = conductor_ideal(GF(2), H)
            assert any(i.is_conductor for i in enum.ideals), H
            assert all(contains_ideal(i.ideal, C) for i in enum.ideals), H
            total = None
            for info in enum.ideals:
                E = endomorphism_ring(info.ideal)
                total = E if total is None else add(total, E)
            assert equals(total, integral_closure_ideal(GF(2), H)), H
        algebras = [truncated_dvr(GF(2), n) for n in (1, 2, 3, 4, 5)]
        algebras += [square_zero_two_vars(GF(2)), square_zero_two_vars(GF(3)),
                     gorenstein_two_generators(GF(2))]
        algebras += [semigroup_quotient(H, 2) for H in enumerate_semigroups(5)
                     if 2 <= len(list(H.members(H.conductor))) <= 5]
        for A in algebras:
            if A.dim > 5:
                continue
            soc = socle(A)
            for I in enumerate_trace_ideals_artinian(A):
                if I.dim == 0:
                    continue
                assert all(I.contains(v) for v in soc.rows), A


def test_criterion_09_zero_dimensional_gorenstein():
    with budget(9, "chain rings have all ideals as trace ideals; QQ separation", 10):
        for ell in range(1, 6):
            A = truncated_dvr(GF(2), ell)
            traces = enumerate_trace_ideals_artinian(A)
            assert len(traces) == ell + 1
            assert traces == enumerate_ideals(A)
        G = gorenstein_two_generators(QQ)
        u, v = G.basis_vector(1), G.basis_vector(2)
        for n in range(1, 6):
            samples = [Fraction(k) for k in range(n)]
            assert gorenstein_family_separation(G, u, v, samples) == n


def test_criterion_10_kunz_layer():
    with budget(10, "Kunz classification across genus <= 8", 60):
        for H in enumerate_semigroups(8):
            e = H.multiplicity
            if e < 2:
                continue
            kv = H.kunz_coordinates(e)
            region = kunz_cone_classify(kv)
            assert region != "exterior", H
            assert (region == INTERIOR) == H.has_minimal_multiplicity, H
            if region == INTERIOR:
                down = blowup(H).kunz_coordinates(e)
                assert down.coords == tuple(x - 1 for x in kv.coords), H


def test_criterion_11_oracle_suites():
    with budget(11, "colon vs exhaustive search; membership; Arf equivalence", 300):
        import random
        rng = random.Random(424242)
        f = GF(2)
        pool = [H for H in enumerate_semigroups(6) if H.conductor <= 9]
        pairs = 0
        while pairs < 200:
            H = rng.choice(pool)
            gens = []
            for _ in range(rng.randint(1, 2)):
                lo = rng.randint(0, 5)
                terms = {lo: 1}
                for e in range(lo + 1, lo + rng.randint(1, 4)):
                    if rng.random() < 0.5:
                        terms[e] = 1
                gens.append(LaurentPoly.from_dict(f, terms))
            I = ideal_from_generators(f, H, gens, with_conductor=rng.random() < 0.5)
            gens2 = [LaurentPoly.from_dict(
                f, {rng.randint(0, 4): 1, rng.randint(5, 8): 1})]
            J = ideal_from_generators(f, H, gens2, with_conductor=rng.random() < 0.5)
            if I.tail - I.lo > 14:
                continue
            assert equals(colon(I, J), colon_by_search(I, J)), (I, J)
            pairs += 1
        for H in enumerate_semigroups(8):
            bound = 3 * max(H.conductor, 1)
            oracle = closure_members(H.minimal_generators, bound)
            assert all((n in H) == (n in oracle) for n in range(bound + 1)), H
            assert is_arf(H) == is_arf_by_rule(H), H
