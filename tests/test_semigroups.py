import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (apery_by_scan, arf_closure_by_rule, children_by_member_sets,
                      closure_members, cm_type_list_check_by_rule, gap_sets_for_genus,
                      is_arf_by_rule, is_symmetric_by_reflection,
                      semigroup_with_value_set_by_window)
from traceforge import semigroups
from traceforge.errors import (BoundTooLarge, EmptyGenerators, FieldMismatch, NotAMember,
                               NotCofinite)
from traceforge.semigroups import (BOUNDARY, EXTERIOR, INTERIOR, KunzVector,
                                   NumericalSemigroup, SemigroupIdeal, arf_closure,
                                   blowup, canonical_value_set, cm_type_list_check,
                                   enumerate_semigroups, is_arf, kunz_cone_classify,
                                   lipman_sequence, natural_semigroup,
                                   parse_generators, value_set_condition,
                                   _children, _semigroup_with_value_set)

S = NumericalSemigroup.from_generators
N0 = natural_semigroup()
GENUS_COUNTS = (1, 1, 2, 4, 7, 12, 23, 39, 67)  # frozen from the gap-set oracle


def test_from_generators_quartic():
    H = S([4, 5, 11])
    assert H.minimal_generators == (4, 5, 11)
    assert H.frobenius == 7 and H.conductor == 8
    oracle = closure_members([4, 5, 11], 16)
    assert H.gaps() == tuple(n for n in range(8) if n not in oracle)
    assert H.gaps() == (1, 2, 3, 6, 7)


def test_from_generators_redundant_generator_dropped():
    assert S([4, 5, 9, 11]).minimal_generators == (4, 5, 11)


def test_n0():
    assert N0.frobenius == -1 and N0.conductor == 0
    assert N0.minimal_generators == (1,)
    assert N0.genus == 0 and 0 in N0 and 1 in N0 and -1 not in N0


def test_from_generators_errors():
    with pytest.raises(NotCofinite):
        S([4, 6])
    with pytest.raises(EmptyGenerators):
        S([])
    with pytest.raises(ValueError):
        S([0, 3])
    # generators are integers: int() would truncate 2.5 to 2 and 3.9 to 3
    for gens in ([2.5, 3], [3.9, 5], [Fraction(5, 2), 3], ["3", "5"]):
        with pytest.raises(TypeError):
            S(gens)


def test_from_generators_conductor_limit(monkeypatch):
    with pytest.raises(BoundTooLarge):
        S([2, 2000003])  # conductor 2000002
    # the sieve stops at the conductor, whatever the largest generator
    assert S([2, 3, 10**7]) == S([2, 3])
    # the limit is the largest conductor allowed
    monkeypatch.setattr(semigroups, "CONDUCTOR_LIMIT", 10)
    assert S([2, 11]).conductor == 10
    monkeypatch.setattr(semigroups, "CONDUCTOR_LIMIT", 9)
    with pytest.raises(BoundTooLarge):
        S([2, 11])


def _random_generator_sets():
    rng = random.Random(7)
    return [sorted(rng.sample(range(2, 30), rng.randint(2, 4))) for _ in range(25)]


def test_membership_against_closure_oracle():
    for H in enumerate_semigroups(6):
        bound = 3 * max(H.conductor, 1)
        oracle = closure_members(H.minimal_generators, bound)
        assert all((n in H) == (n in oracle) for n in range(bound + 1)), H
    for gens in _random_generator_sets():
        try:
            H = S(gens)
        except NotCofinite:
            continue
        bound = 3 * H.conductor
        oracle = closure_members(gens, bound)
        assert all((n in H) == (n in oracle) for n in range(bound + 1)), gens


def _assert_table_of(H, gens):
    """H's table is <gens> below c, and H's invariants are those of <gens>."""
    c, table = H.conductor, H._table
    assert len(table) == c and (c == 0 or not table[c - 1]), H
    bits = sum(1 << n for n in range(c) if table[n])
    assert all((bits << a) & ~bits & ((1 << c) - 1) == 0
               for a in range(1, c) if table[a]), f"{H} not closed under addition"
    m = min(gens)
    oracle = closure_members(gens, c + m)  # [c, c + m) in <gens> puts [c, oo) there
    assert all((n in oracle) == bool(table[n]) for n in range(c)), H
    assert all(n in oracle for n in range(c, c + m)), H
    members = sorted(oracle)
    assert H.conductor == 1 + max((n for n in range(c + m) if n not in oracle), default=-1)
    assert H.genus == sum(1 for n in range(c) if n not in oracle), H
    assert H.multiplicity == members[1], H
    # every minimal generator is at most F + m < c + m
    assert H.minimal_generators == tuple(
        n for n in members[1:] if not any(n - a in oracle for a in members[1:] if a <= n // 2)), H


def test_constructor_tables_are_semigroups():
    for gens in _random_generator_sets() + [[97, 98], [2, 3, 10**7]]:
        try:
            H = S(gens)
        except NotCofinite:
            continue
        _assert_table_of(H, gens)
    for H in enumerate_semigroups(7):
        spares = [g for g in H.minimal_generators if g > H.frobenius]
        for g, child in zip(spares, _children(H), strict=True):
            _assert_table_of(child, [n for n in H.members(2 * g + 2) if n not in (0, g)])
    for H in enumerate_semigroups(6):
        closed = arf_closure(H)
        _assert_table_of(closed, closed.minimal_generators)
        if H.conductor:
            K = canonical_value_set(H)
            _assert_table_of(_semigroup_with_value_set(K),
                             [x for x in K.elements(2 * H.conductor) if x > 0])
    for H in enumerate_semigroups(8):
        e = H.multiplicity
        _assert_table_of(blowup(H), [e] + [g - e for g in H.minimal_generators if g != e])


def test_apery_examples():
    assert S([4, 5, 11]).apery_set(4) == (0, 5, 10, 11)
    assert N0.apery_set(1) == (0,)
    assert S([2, 3]).apery_set(2) == (0, 3)
    with pytest.raises(NotAMember):
        S([4, 5, 11]).apery_set(3)


def test_apery_partitions_residues():
    for H in enumerate_semigroups(6):
        for e in list(H.members(12))[1:4]:
            ap = H.apery_set(e)
            assert len(ap) == e
            assert sorted(w % e for w in ap) == list(range(e))
            assert all(w in H and (w - e) not in H for w in ap)
            assert ap == apery_by_scan(list(H.members(H.conductor + e)), e)


def test_kunz_examples():
    assert S([4, 5, 11]).kunz_coordinates(4).coords == (1, 2, 2)
    assert S([3, 7, 8]).kunz_coordinates(3).coords == (2, 2)
    assert S([2, 3]).kunz_coordinates(2).coords == (1,)
    # e need not be the multiplicity; zero coordinates are then possible
    assert S([2, 3]).kunz_coordinates(4).coords == (1, 0, 0)
    with pytest.raises(NotAMember):
        S([2, 3]).kunz_coordinates(1)


def test_kunz_cone_examples():
    assert kunz_cone_classify(KunzVector(3, (2, 2))) == INTERIOR
    assert kunz_cone_classify(KunzVector(3, (0, 5))) == EXTERIOR
    assert kunz_cone_classify(KunzVector(3, (0, 0))) == BOUNDARY
    # minimal multiplicity <=> interior, so <3,4,5>'s coordinates are interior
    assert kunz_cone_classify(KunzVector(3, (1, 1))) == INTERIOR
    assert kunz_cone_classify(S([4, 5, 11]).kunz_coordinates(4)) == BOUNDARY
    # e < 2, a wrong number of coordinates, a negative coordinate
    for e, coords in ((1, ()), (3, (1,)), (3, (1, 2, 3)), (3, (1, -1))):
        with pytest.raises(ValueError):
            KunzVector(e, coords)


def test_kunz_layer_sweep():
    # semigroup points never fall outside the cone; interior = minimal
    # multiplicity; blowups of interior points drop coordinates by one
    for H in enumerate_semigroups(8):
        e = H.multiplicity
        if e < 2:
            continue
        kv = H.kunz_coordinates(e)
        region = kunz_cone_classify(kv)
        assert region != EXTERIOR, H
        assert (region == INTERIOR) == H.has_minimal_multiplicity, H
        if region == INTERIOR:
            down = blowup(H).kunz_coordinates(e)
            assert down.coords == tuple(x - 1 for x in kv.coords), H


def test_multiplicity_edim_flags():
    H = S([3, 7, 8])
    assert (H.multiplicity, H.embedding_dimension, H.has_minimal_multiplicity) == (3, 3, True)
    H = S([4, 5, 11])
    assert (H.multiplicity, H.embedding_dimension, H.has_minimal_multiplicity) == (4, 3, False)
    assert (N0.multiplicity, N0.embedding_dimension, N0.has_minimal_multiplicity) == (1, 1, True)


def test_canonical_value_set_golden():
    assert canonical_value_set(S([4, 5, 11])).generators == (0, 1)
    assert canonical_value_set(S([4, 6, 9, 11])).generators == (0, 2, 5)
    assert canonical_value_set(S([4, 5, 7])).generators == (0, 3)
    K = canonical_value_set(S([4, 5, 11]))
    assert sorted(K.elements(9)) == [0, 1, 4, 5, 6, 8]


def test_canonical_value_set_properties():
    for H in enumerate_semigroups(7):
        K = canonical_value_set(H)
        F = H.frobenius
        assert 0 in K
        for x in range(-2, 2 * H.conductor + 2):
            assert (x in K) == ((F - x) not in H)
        for x in K.elements(K.stable):
            for g in H.minimal_generators:
                assert (x + g) in K
        gorenstein = H.is_symmetric
        same_as_h = all((x in K) == (x in H) for x in range(2 * H.conductor + 2))
        assert gorenstein == same_as_h, H


def test_is_symmetric_matches_reflection_scan():
    # 2g = c against the gap reflection x -> F - x, on all 2414 semigroups of
    # genus <= 13, 165 of them symmetric
    verdicts = [H.is_symmetric for H in enumerate_semigroups(13)]
    assert verdicts == [is_symmetric_by_reflection(H) for H in enumerate_semigroups(13)]
    assert (len(verdicts), sum(verdicts)) == (2414, 165)


def test_value_set_condition_examples():
    assert value_set_condition(canonical_value_set(S([4, 5, 11]))).kind == "I"
    assert value_set_condition(canonical_value_set(S([4, 5, 7]))).kind == "II"
    verdict = value_set_condition(canonical_value_set(S([4, 5, 6])))
    assert verdict.kind == "fails" and verdict.witness == 2
    assert value_set_condition(canonical_value_set(N0)).kind == "I"


def test_cm_type_list_examples():
    assert cm_type_list_check(canonical_value_set(S([4, 5, 7]))) == "<3,4,5>"
    assert cm_type_list_check(canonical_value_set(N0)) == "<1>"
    assert cm_type_list_check(canonical_value_set(S([2, 7]))) == "<2,2s-1>"
    # the tag describes the ring generated by K(H), not H itself:
    # K(<3,5,7>) = {0,2,3,5,...} generates <2,3>
    assert cm_type_list_check(canonical_value_set(S([3, 5, 7]))) == "<2,2s-1>"
    assert cm_type_list_check(canonical_value_set(S([3, 4]))) == "<3,4>"
    assert cm_type_list_check(canonical_value_set(S([3, 5]))) == "<3,5>"
    assert cm_type_list_check(canonical_value_set(S([5, 7, 8, 11]))) == "<3,5,7>"
    assert cm_type_list_check(canonical_value_set(S([4, 5, 6]))) is None


def test_cm_type_list_check_matches_rule_oracle():
    # FINITE_TYPE_TAGS against the literal generator tuples of the rule
    tags = set()
    for H in enumerate_semigroups(12):
        K = canonical_value_set(H)
        tag = cm_type_list_check(K)
        assert tag == cm_type_list_check_by_rule(K), H
        tags.add(tag)
    assert tags == {None, "<1>", "<2,2s-1>", "<3,4>", "<3,5>", "<3,5,7>", "<3,4,5>"}


def test_value_set_semigroup_matches_window_oracle():
    for H in enumerate_semigroups(8):
        if H.conductor:
            expected = semigroup_with_value_set_by_window(H).minimal_generators
            K = canonical_value_set(H)
            assert _semigroup_with_value_set(K).minimal_generators == expected, H


def test_pseudo_frobenius():
    assert S([4, 5, 11]).pseudo_frobenius() == (6, 7)
    assert S([4, 5, 11]).cm_type == 2
    assert N0.pseudo_frobenius() == (-1,)
    assert S([2, 3]).pseudo_frobenius() == (1,)


def test_blowup_examples():
    assert blowup(S([2, 3])) == N0
    assert blowup(S([3, 7, 8])) == S([3, 4, 5])
    assert blowup(N0) == N0


def test_blowup_matches_stabilized_quotients():
    # L(H) = union over n of (nM - nM), computed directly on member sets
    for H in list(enumerate_semigroups(5)):
        if H.genus == 0:
            continue
        c = H.conductor
        bound = 8 * c + 8
        members = set(H.members(bound + 1))
        M = sorted(m for m in members if m > 0)
        L = blowup(H)
        union = {0}
        ideal = list(M)
        for _ in range(6):
            probe_hi = max(ideal) if ideal else 0
            small = [m for m in ideal if m <= probe_hi - 2 * c]
            quot = {x for x in range(2 * c + 1)
                    if all((x + m) in ideal_set for m in small)
                    } if (ideal_set := set(ideal)) and small else set()
            union |= quot
            ideal = sorted({a + m for a in ideal for m in M if a + m <= bound})
        assert all((x in L) == (x in union) for x in range(2 * c + 1)), H


def test_blowup_of_minimal_multiplicity_is_shifted_members():
    # with minimal multiplicity e, the blowup is {0} and the h - e for h >= e in H
    for H in enumerate_semigroups(8):
        if not H.has_minimal_multiplicity:
            continue
        e, L = H.multiplicity, blowup(H)
        shifted = {0} | {h - e for h in H.members(L.conductor + e + 1) if h >= e}
        assert all((x in L) == (x in shifted) for x in range(L.conductor + 1)), H


def test_blowup_genus_decreases():
    for H in enumerate_semigroups(6):
        if H.genus == 0:
            continue
        L = blowup(H)
        assert L.genus < H.genus
        assert all(h in L for h in H.members(H.conductor + 1))


def test_lipman_sequence_examples():
    assert lipman_sequence(S([2, 3])) == [S([2, 3]), N0]
    assert lipman_sequence(N0) == [N0]
    assert lipman_sequence(S([3, 7, 8])) == [S([3, 7, 8]), S([3, 4, 5]), N0]


def test_is_arf_examples():
    assert is_arf(S([2, 3]))
    assert not is_arf(S([4, 5, 6]))
    assert is_arf(N0)
    assert is_arf(S([2, 7]))


def test_arf_chain_equals_triple_rule():
    for H in enumerate_semigroups(8):
        assert is_arf(H) == is_arf_by_rule(H), H


def test_arf_closure_examples():
    assert arf_closure(S([4, 5, 6])) == S([4, 5, 6, 7])
    assert arf_closure(S([2, 7])) == S([2, 7])
    for H in enumerate_semigroups(5):
        closed = arf_closure(H)
        assert is_arf(closed)
        assert all(h in closed for h in H.members(H.conductor + 1))
        assert arf_closure(closed) == closed
        if is_arf(H):
            assert closed == H


def test_arf_closure_matches_triple_rule():
    # the closure read off the Lipman chain against the triple rule x + y - z
    # repeated to a fixed point
    for H in enumerate_semigroups(10):
        assert arf_closure(H)._table == arf_closure_by_rule(H)._table, H


def test_children_match_member_sets():
    # each child's table written from the parent's against one rebuilt from
    # the child's member set
    for H in enumerate_semigroups(12):
        assert ([child._table for child in _children(H)]
                == [child._table for child in children_by_member_sets(H)]), H


def test_enumeration_counts_and_oracle():
    for g, expect in enumerate(GENUS_COUNTS[:7]):
        level = [H for H in enumerate_semigroups(g) if H.genus == g]
        assert len(level) == expect
    for g in range(6):
        got = {frozenset(H.gaps()) for H in enumerate_semigroups(g) if H.genus == g}
        assert got == set(gap_sets_for_genus(g)), g


def test_enumeration_examples_and_errors():
    assert [H.text for H in enumerate_semigroups(0)] == ["1"]
    assert [H.text for H in enumerate_semigroups(1)] == ["1", "2,3"]
    assert sum(1 for _ in enumerate_semigroups(3)) == 8
    with pytest.raises(BoundTooLarge):
        enumerate_semigroups(21)


def test_enumeration_deterministic():
    a = [H.text for H in enumerate_semigroups(6)]
    b = [H.text for H in enumerate_semigroups(6)]
    assert a == b
    assert len(set(a)) == len(a)


def test_parse_generators():
    assert parse_generators("4,5,11") == (4, 5, 11)
    assert parse_generators(" 2 , 3 ") == (2, 3)
    with pytest.raises(ValueError):
        parse_generators("4,x")
    with pytest.raises(EmptyGenerators):
        parse_generators(" ")


def test_semigroup_ideal_normalization():
    H = S([4, 5, 11])
    E = SemigroupIdeal.create(H, {4, 5, 6, 7}, 8)
    assert E.stable == 4 and not E.window  # 4..7 absorbed into the tail
    assert 4 in E and 3 not in E


def test_semigroup_ideal_operations_need_the_same_base():
    K, L = canonical_value_set(S([3, 5])), canonical_value_set(S([4, 5, 6]))
    for op in (lambda E, F: E + F, lambda E, F: E - F):
        with pytest.raises(FieldMismatch, match="ideals over <3,5> vs <4,5,6>"):
            op(K, L)


GENUS_AT_MOST_7 = list(enumerate_semigroups(7))


@st.composite
def _semigroup_ideals(draw, H):
    """The H-ideal generated by one to three integers in [-4, c + 4], each
    t + H, so shifted, non-integral and tail-only ideals all occur."""
    c = H.conductor
    gens = draw(st.lists(st.integers(-4, c + 4), min_size=1, max_size=3))
    stable = min(gens) + c
    return SemigroupIdeal.create(H, {g + h for g in gens for h in H.members(stable - g)}, stable)


@st.composite
def _ideal_pairs(draw):
    H = draw(st.sampled_from(GENUS_AT_MOST_7))
    return draw(_semigroup_ideals(H)), draw(_semigroup_ideals(H))


@settings(max_examples=300, deadline=None)
@given(_ideal_pairs())
@example((SemigroupIdeal.create(S([4, 5, 11]), {4, 5}, 8),
          SemigroupIdeal.create(S([4, 5, 11]), {4, 5}, 8)))  # m - m, stable 8 - 4
@example((SemigroupIdeal.create(N0, (), 3), SemigroupIdeal.create(N0, (), -2)))  # tails only
def test_semigroup_ideal_colon_matches_set_definition(pair):
    # E - F against {x : x + f in E for every f in F}, by brute force over
    # a window wider than the one the colon scans; past E.stable - x every
    # x + f lies in E's tail, so f needs checking only up to there
    E, F = pair
    H = E.base
    lo, hi = E.start - F.stable - 6, E.stable - F.start + 6
    members = {x for x in range(lo, hi)
               if all(x + f in E for f in F.elements(E.stable - x + 1))}
    assert min(members) > lo  # the window reaches below the colon
    assert E - F == SemigroupIdeal.create(H, members, hi), (E, F)


@settings(max_examples=300, deadline=None)
@given(_ideal_pairs())
def test_semigroup_ideal_sums_and_colons_are_ideals(pair):
    # __add__ and __sub__ build their results with no closure sweep; create
    # re-checks closure under H and the minimal stable bound and start
    E, F = pair
    H = E.base
    for X in (E + F, F + E, E - F, F - E, E - E, (E - F) + F):
        assert X == SemigroupIdeal.create(H, X.window, X.stable), (E, F, X)
    assert all(x in E for x in ((E - F) + F).elements(E.stable + 1))  # (E - F) + F inside E
