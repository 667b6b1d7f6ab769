"""The reverse-search submodule-lattice engine against its oracles.

The engine is fed the shifts by the minimal generators below the
conductor (trace) or the table rows of the generators of m (artin),
and streams each module once, in the order of its walk.  The
brute-force oracle gets every monomial shift or every table row, the
identity included, and sweeps all cyclic modules; the cover oracle is
the engine before the reverse search, which climbs by covers and drops
copies per layer.  RREF bases are unique, so the sorted stream must
agree with both row for row.  The walk before the socle elimination was
carried down the tree, which eliminates every free column at every
module, must give the same stream: rows, pivots, order and step states,
and so must the walk on tuple rows, before vectors were packed into ints.
"""

import pytest
from hypothesis import given, settings

from _oracles import (lattice_by_closure, lattice_by_covers, lattice_by_fresh_elimination,
                      lattice_by_tuple_rows)
from _strategies import capped_semigroups
from traceforge import artin
from traceforge.artin import (ArtinAlgebra, _check_ideal_sweep, _hom_walk, _ideal_lattice,
                              enumerate_ideals, enumerate_trace_ideals_artinian,
                              gorenstein_two_generators, semigroup_quotient,
                              socle, square_zero_two_vars, truncated_dvr)
from traceforge.errors import WorkloadExceeded
from traceforge.fields import GF
from traceforge.semigroups import (NumericalSemigroup, enumerate_semigroups,
                                   natural_semigroup)
from traceforge.trace import _quotient, enumerate_trace_ideals

S = NumericalSemigroup.from_generators


def by_dimension(rows):
    return len(rows), rows


def engine_rows(H, p):
    q = _quotient(GF(p), H)
    return sorted((rows for rows, *_ in _ideal_lattice(p, len(q.exps), q.shifts)),
                  key=by_dimension)


def oracle_rows(H, p):
    """The oracle on R/c, acted on by t^h for every member h < c."""
    exps = list(H.members(H.conductor))
    d = len(exps)
    index = {e: i for i, e in enumerate(exps)}

    def image(k):
        return tuple(int(i == k) for i in range(d))

    shifts = [[image(index.get(e + h)) for e in exps] for h in exps]
    return lattice_by_closure(p, d, shifts)


def test_engine_matches_oracle_genus_at_most_5():
    for H in enumerate_semigroups(5):
        for p in (2, 3):
            assert engine_rows(H, p) == oracle_rows(H, p), (H, p)


def test_members_carry_their_pivots():
    for H in enumerate_semigroups(5):
        for p in (2, 3):
            q = _quotient(GF(p), H)
            for rows, pivots, *_ in _ideal_lattice(p, len(q.exps), q.shifts):
                assert pivots == tuple(next(k for k, x in enumerate(r) if x) for r in rows)


def artin_presets():
    algebras = []
    for p in (2, 3, 5):
        algebras += [truncated_dvr(GF(p), n) for n in (1, 2, 4)]
        algebras += [square_zero_two_vars(GF(p)), gorenstein_two_generators(GF(p)),
                     semigroup_quotient(S([3, 7]), p)]
    return algebras + [truncated_dvr(GF(2), 7), truncated_dvr(GF(7), 3),
                       semigroup_quotient(S([4, 5, 11]), 2),
                       semigroup_quotient(S([4, 6, 9]), 3),
                       semigroup_quotient(S([5, 7, 8, 9]), 2)]


def test_artin_presets_match_oracle():
    for A in artin_presets():
        rows = [I.rows for I in enumerate_ideals(A)]
        assert rows == lattice_by_closure(A.field.p, A.dim, A.table), A


def recorded_walk(p, d, actions) -> int:
    """Walk with a step that records its calls and threads a depth
    counter; each call must hand over the module yielded next, whose
    parent was yielded before.  Returns the number of modules."""
    calls = []

    def step(depth, rows, pivots):
        calls.append((rows, pivots))
        return depth + 1

    seen = set()
    for rows, pivots, depth in _ideal_lattice(p, d, actions, step, 0):
        assert depth == len(rows), rows
        if rows:
            assert calls.pop() == (rows, pivots)
            assert (rows[1:], pivots[1:]) in seen, rows
        assert not calls, rows  # one call per edge, none for the root
        seen.add((rows, pivots))
    return len(seen)


def test_step_receives_the_child_it_precedes():
    for H in enumerate_semigroups(5):
        for p in (2, 3):
            q = _quotient(GF(p), H)
            assert recorded_walk(p, len(q.exps), q.shifts) == len(engine_rows(H, p)), (H, p)
    for A in artin_presets():
        actions = [A.table[g] for g in A.generators]
        assert recorded_walk(A.field.p, A.dim, actions) == len(enumerate_ideals(A)), A


def test_step_returning_none_cuts_the_subtree():
    # a module lies below a cut child exactly when its pivots hold the cut
    # lead, so the stream is the full walk, in order, without those; the
    # step is called once per yielded edge and once per cut child, never below
    for H in enumerate_semigroups(5):
        for p in (2, 3):
            q = _quotient(GF(p), H)
            d = len(q.exps)
            full = [(rows, pivots) for rows, pivots, _ in _ideal_lattice(p, d, q.shifts)]
            for lead in range(d):
                calls = []

                def step(depth, rows, pivots):
                    calls.append(rows)
                    return None if pivots[0] == lead else depth + 1

                stream = list(_ideal_lattice(p, d, q.shifts, step, 0))
                kept = [m for m in full if lead not in m[1]]
                assert [(rows, pivots) for rows, pivots, _ in stream] == kept, (H, p, lead)
                assert all(depth == len(rows) for rows, _, depth in stream)
                cut = sum(1 for _, pivots in full if pivots[:1] == (lead,))
                assert len(calls) == len(kept) - 1 + cut, (H, p, lead)


def same_streams(H, p):
    """The engine's stream on R/c over F_p against both former engines',
    with no step, with the trace step from mu_1, which carries the gap
    part of R : T and cuts nothing, and with it from mu_(p-1), which cuts
    children over odd p, so the streams must agree on cut walks too."""
    q = _quotient(GF(p), H)
    d = len(q.exps)
    for step, state in ((None, None), (q.step, (q.gap_units, 1)),
                        (q.step, (q.gap_units, p - 1))):
        stream = list(_ideal_lattice(p, d, q.shifts, step, state))
        for former in (lattice_by_fresh_elimination, lattice_by_tuple_rows):
            assert stream == list(former(p, d, q.shifts, step, state)), (H, p, step, former)


def test_stream_matches_fresh_elimination():
    for p, genus in ((2, 6), (3, 6), (5, 5), (7, 4)):
        for H in enumerate_semigroups(genus):
            same_streams(H, p)


def test_stream_matches_fresh_elimination_on_artin_presets(monkeypatch):
    presets = artin_presets()
    for A in presets:
        p, d = A.field.p, A.dim
        actions = [A.table[g] for g in A.generators]
        stream = list(_ideal_lattice(p, d, actions))
        assert stream == list(lattice_by_fresh_elimination(p, d, actions)), A
        assert stream == list(lattice_by_tuple_rows(p, d, actions)), A
    carried = [list(_hom_walk(A)) for A in presets]
    for former in (lattice_by_fresh_elimination, lattice_by_tuple_rows):
        monkeypatch.setattr(artin, "_ideal_lattice", former)
        assert [list(_hom_walk(A)) for A in presets] == carried, former


@settings(max_examples=40, deadline=None)
@given(capped_semigroups)
def test_stream_matches_fresh_elimination_random_semigroups(case):
    same_streams(*case)


def rescaled(A, scales):
    """A on the basis scales[i] b_i, whose table has entries other than 0
    and 1: b_i b_j = sum_k x_k b_k gives the coefficient
    scales[i] scales[j] x_k / scales[k] at the new b_k."""
    p = A.field.p
    inv = [pow(c, -1, p) for c in scales]
    table = [[[scales[i] * scales[j] * x * inv[k] % p for k, x in enumerate(cell)]
              for j, cell in enumerate(row)] for i, row in enumerate(A.table)]
    return ArtinAlgebra.create(A.field, A.labels, table)


def test_byte_and_wide_fields(monkeypatch):
    # p <= 13 packs a byte per coordinate and p >= 17 wider fields; an
    # entry of GF(257) does not fit a byte.  Each chain length L is inside
    # the p^L guard.  The chain has L + 1 ideals; gor4 has 0, its socle,
    # the p + 1 lines of m over it, m and A; sq0 (m^2 = 0) has 0, the
    # p + 1 lines of m, m and A.
    cases = []
    for p, L in ((11, 4), (13, 4), (17, 3), (101, 3), (257, 2)):
        _check_ideal_sweep(p, L)
        f = GF(p)
        cases += [(truncated_dvr(f, L), L + 1), (gorenstein_two_generators(f), p + 5),
                  (rescaled(square_zero_two_vars(f), (1, p - 3, p - 4)), p + 4)]
    walkable = []
    for A, count in cases:
        p, d = A.field.p, A.dim
        actions = [A.table[g] for g in A.generators]
        stream = list(_ideal_lattice(p, d, actions))
        assert len(stream) == count, A
        assert stream == list(lattice_by_fresh_elimination(p, d, actions)), A
        assert stream == list(lattice_by_tuple_rows(p, d, actions)), A
        if p ** d <= artin.IDEAL_ENUMERATION_GUARD:
            walkable.append(A)
        else:  # gor4 over GF(101) and GF(257), sq0 over GF(257)
            with pytest.raises(WorkloadExceeded):
                enumerate_ideals(A)
    assert len(walkable) == 12
    ideals = [[I.rows for I in enumerate_ideals(A)] for A in walkable]
    traces = [[I.rows for I in enumerate_trace_ideals_artinian(A)] for A in walkable]
    monkeypatch.setattr(artin, "_ideal_lattice", lattice_by_tuple_rows)
    assert ideals == [[I.rows for I in enumerate_ideals(A)] for A in walkable]
    assert traces == [[I.rows for I in enumerate_trace_ideals_artinian(A)] for A in walkable]


def test_natural_semigroup_has_zero_quotient():
    # c = 0: R/c is zero and its only submodule gives the candidate R
    N0 = natural_semigroup()
    for p in (2, 3, 5, 7):
        assert engine_rows(N0, p) == oracle_rows(N0, p) == [()]
        assert enumerate_trace_ideals(N0, p).census == 1


def test_generator_past_the_conductor():
    H = S([4, 5, 11])
    assert H.conductor <= 11 and 11 in H.minimal_generators
    assert len(_quotient(GF(2), H).shifts) == 2
    for p in (2, 3, 5, 7):
        assert engine_rows(H, p) == oracle_rows(H, p)
    assert len(engine_rows(H, 2)) == 6  # 0, three lines, m/c, R/c


@settings(max_examples=40, deadline=None)
@given(capped_semigroups)
def test_engine_matches_oracle_random_semigroups(case):
    H, p = case
    assert engine_rows(H, p) == oracle_rows(H, p)


@settings(max_examples=40, deadline=None)
@given(capped_semigroups)
def test_stream_makes_each_module_once_from_its_parent(case):
    H, p = case
    q = _quotient(GF(p), H)
    d = len(q.exps)
    stream = [(rows, pivots) for rows, pivots, *_ in _ideal_lattice(p, d, q.shifts)]
    modules = {rows for rows, _ in stream}
    assert len(modules) == len(stream)  # nothing yielded twice
    assert all(rows[1:] in modules for rows in modules if rows)
    assert sorted(stream, key=lambda m: by_dimension(m[0])) == lattice_by_covers(p, d, q.shifts)
    assert sorted(modules, key=by_dimension) == oracle_rows(H, p)


def test_enumerate_ideals_refuses_a_basis_that_lowers_the_index():
    # K[x]/(x^3) on the basis (1, x^2, x): x * x = x^2 lands before x
    zero = [0, 0, 0]
    table = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             [[0, 1, 0], zero, zero],
             [[0, 0, 1], zero, [0, 1, 0]]]
    A = ArtinAlgebra.create(GF(2), ("1", "x^2", "x"), table)
    assert socle(A).rows == ((0, 1, 0),)
    with pytest.raises(ValueError, match="b_i \\* b_j"):
        enumerate_ideals(A)
    assert len(enumerate_ideals(truncated_dvr(GF(2), 3))) == 4


def test_dimension_five_over_larger_fields():
    H = S([4, 6, 7])
    assert len(list(H.members(H.conductor))) == 5
    for p in (5, 7):
        assert engine_rows(H, p) == oracle_rows(H, p)


def test_former_hard_cases_lattice_size():
    # each took minutes with the sweep-and-closure engine
    assert len(engine_rows(S([7, 8, 9, 10, 11, 12]), 2)) == 2826
    assert len(engine_rows(S([6, 7, 8, 9, 10]), 3)) == 2665


def test_dimension_guards_unchanged():
    # one dimension limit for both paths; only artin adds the p^d guard
    H = S([2, 19])  # R/c = F_7[x]/(x^9): 7^9 vectors
    assert enumerate_trace_ideals(H, 7).census == 10
    with pytest.raises(WorkloadExceeded):
        enumerate_ideals(semigroup_quotient(H, 7))
    for call in (lambda: enumerate_trace_ideals(S([2, 27]), 2),
                 lambda: semigroup_quotient(S([2, 27]), 2)):
        with pytest.raises(WorkloadExceeded, match="dim R/c = 13 exceeds the enumeration limit 12"):
            call()
