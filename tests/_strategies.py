"""Hypothesis strategies shared by the lattice tests."""

from itertools import combinations
from math import gcd

from hypothesis import strategies as st

from traceforge.semigroups import NumericalSemigroup


def _small_semigroups() -> list:
    """(d, H) for every semigroup H generated by a multiplicity m in [2, 7]
    and one to four larger generators up to 2m + 3, with gcd 1 and
    d = dim R/c <= 5, once each and in a fixed order."""
    found = {}
    for m in range(2, 8):
        for k in range(1, 5):
            for rest in combinations(range(m + 1, 2 * m + 4), k):
                if gcd(m, *rest) == 1:
                    H = NumericalSemigroup.from_generators((m,) + rest)
                    d = H.conductor - H.genus
                    if d <= 5:
                        found.setdefault(H.minimal_generators, (d, H))
    return list(found.values())


_SMALL = _small_semigroups()

# (H, p) within the caps of the lattice oracles, d <= 5 and p ** d <= 7 ** 4:
# their pairwise closure is quadratic in the lattice size, which reaches
# thousands of modules for d = 5 over F_5 and F_7 (m^2 = 0).  Every draw
# meets the caps, so no example is filtered out.
capped_semigroups = st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda p: st.tuples(st.sampled_from([H for d, H in _SMALL if p ** d <= 7 ** 4]),
                        st.just(p)))
