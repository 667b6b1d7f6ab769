"""The Tr(R) walk over one module per torus orbit against the full walk.

``enumerate_trace_ideals`` visits one R-submodule of R/c per orbit of
the torus t -> lam t, lam in F_p^*, counts each orbit's size in the
census and lists every image of each trace ideal it finds;
``_oracles.trace_ideals_by_full_walk`` takes the same step from the
trivial stabilizer, so it visits and tests every module.  Both must give
the same census and the same sorted ideals.  The torus has two
representations, ``_Quotient.dilate`` on the rows of R/c and
``ideals.dilate`` on fractional ideals, and they must agree.  The walk's
step reads the cut, the child's stabilizer and the gap equations off one
scan of the new row; ``_oracles.orbit_step_by_images`` compares the row
with each of its images, and the two must agree at every child edge.
The ``trace-walk`` entry of ``scripts/bench.py`` times both walks, and
``tests/test_bench.py`` keeps its counts those of ``BENCH_28.json``.
"""

from collections import Counter

from hypothesis import given, settings

from _oracles import orbit_step_by_images, trace_ideals_by_full_walk
from _strategies import capped_semigroups
from traceforge.artin import _ideal_lattice
from traceforge.fields import GF
from traceforge.ideals import dilate
from traceforge.semigroups import NumericalSemigroup, enumerate_semigroups
from traceforge.trace import _gap_fixed_point, _quotient, enumerate_trace_ideals


def agrees_with_full_walk(H, p):
    census, rows = trace_ideals_by_full_walk(H, p)
    found = enumerate_trace_ideals(H, p)
    q = _quotient(GF(p), H)
    assert found.census == census, (H, p)
    assert [info.ideal for info in found.ideals] == [q.lift(r) for r in rows], (H, p)


def test_orbit_walk_matches_full_walk():
    for p, genus in ((2, 6), (3, 6), (5, 5), (7, 4)):
        for H in enumerate_semigroups(genus):
            agrees_with_full_walk(H, p)
    # over F_7 the trace ideals above have stabilizer 1 or mu_6; <4,6,7>, the
    # only semigroup of genus <= 5 with others, has three with g = 3 and two
    # with g = 2, so the census term and the listing outside mu_g meet them
    H, p = NumericalSemigroup.from_generators((4, 6, 7)), 7
    agrees_with_full_walk(H, p)
    q = _quotient(GF(p), H)
    walk = _ideal_lattice(p, len(q.exps), q.shifts, q.step, (q.gap_units, p - 1))
    stabilizers = Counter(g for rows, pivots, (G, g) in walk
                          if _gap_fixed_point(q, rows, pivots, G))
    assert (stabilizers[3], stabilizers[2]) == (3, 2)


def test_one_pass_cut_matches_images():
    edges = 0
    for p, genus in ((3, 6), (5, 5), (7, 4)):
        for H in enumerate_semigroups(genus):
            q = _quotient(GF(p), H)

            def step(state, rows, pivots):
                nonlocal edges
                edges += 1
                found = q.step(state, rows, pivots)
                assert found == orbit_step_by_images(q, state, rows, pivots), (H, p, rows)
                return found

            for _ in _ideal_lattice(p, len(q.exps), q.shifts, step, (q.gap_units, p - 1)):
                pass
    assert edges == 3699


@settings(max_examples=40, deadline=None)
@given(capped_semigroups.filter(lambda case: case[1] > 2))
def test_orbit_walk_matches_full_walk_random_semigroups(case):
    agrees_with_full_walk(*case)


def test_visited_modules_are_one_per_orbit():
    # the orbits of the visited modules have the sizes (p - 1)/g and
    # partition the whole lattice
    for p in (3, 5, 7):
        for H in enumerate_semigroups(4):
            q = _quotient(GF(p), H)
            d = len(q.exps)
            every = {rows for rows, *_ in _ideal_lattice(p, d, q.shifts)}
            covered = set()
            for rows, pivots, (_, g) in _ideal_lattice(p, d, q.shifts, q.step,
                                                       (q.gap_units, p - 1)):
                orbit = {q.dilate(rows, pivots, lam) for lam in range(1, p)}
                assert len(orbit) == (p - 1) // g, (H, p, rows)
                assert not orbit & covered, (H, p, rows)
                covered |= orbit
            assert covered == every, (H, p)


def test_row_dilation_is_ideal_dilation():
    for p in (3, 5, 7):
        for H in enumerate_semigroups(5):
            q = _quotient(GF(p), H)
            for rows in trace_ideals_by_full_walk(H, p)[1]:
                pivots = tuple(next(k for k, x in enumerate(r) if x) for r in rows)
                T = q.lift(rows)
                for lam in range(1, p):
                    assert q.lift(q.dilate(rows, pivots, lam)) == dilate(T, lam), (H, p, rows, lam)
