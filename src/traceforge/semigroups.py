"""Numerical semigroup combinatorics.

A numerical semigroup H is an additive submonoid of the nonnegative
integers whose complement (the set of gaps) is finite.  This module
covers membership, the classical invariants (Frobenius number,
conductor, multiplicity, embedding dimension, genus, type), Apery sets
and Kunz coordinates, the canonical value set K(H) = {x : F - x not in
H}, blowups and the Lipman chain, Arf tests and closure, and an
exhaustive enumeration of all semigroups up to a given genus.

H is stored as its membership table below the conductor c, filled by
the sieve in ``from_generators`` (conductors up to ``CONDUCTOR_LIMIT``)
or written directly by the genus tree and the Arf closure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import islice
from math import gcd
from operator import index

from .errors import BoundTooLarge, EmptyGenerators, FieldMismatch, NotAMember, NotCofinite

__all__ = [
    "NumericalSemigroup",
    "SemigroupIdeal",
    "KunzVector",
    "natural_semigroup",
    "parse_generators",
    "canonical_value_set",
    "ValueSetCondition",
    "value_set_condition",
    "cm_type_list_check",
    "FINITE_TYPE_TAGS",
    "kunz_cone_classify",
    "EXTERIOR",
    "BOUNDARY",
    "INTERIOR",
    "blowup",
    "lipman_sequence",
    "is_arf",
    "arf_closure",
    "enumerate_semigroups",
    "GENUS_ENUMERATION_LIMIT",
    "CONDUCTOR_LIMIT",
]

GENUS_ENUMERATION_LIMIT = 20
CONDUCTOR_LIMIT = 10**6  # largest conductor from_generators will sieve to


class NumericalSemigroup:
    """A cofinite submonoid of N0, stored as its membership table below c.

    ``_table[n]`` is 1 when n is a member, for n in [0, c); the table ends
    in the gap c - 1 and is empty for N0.  The constructor takes that
    table as given and derives every invariant from it; build instances
    with :meth:`from_generators`.  Instances are immutable.
    """

    __slots__ = ("minimal_generators", "frobenius", "conductor", "multiplicity",
                 "genus", "_table")

    def __init__(self, table):
        # Internal.  table must be a semigroup's membership table below its
        # conductor: closed under addition there, and ending in a gap.
        table = bytes(table)
        c = len(table)
        e = next((n for n in range(1, c) if table[n]), max(c, 1))
        hi = max(e, c + e - 1)  # no minimal generator exceeds F + e
        padded = table + b"\x01" * (hi + 1 - c)
        self.minimal_generators = tuple(
            m for m in range(e, hi + 1)
            if padded[m] and not any(padded[a] and padded[m - a]
                                     for a in range(e, m // 2 + 1)))
        self.frobenius = c - 1
        self.conductor = c
        self.multiplicity = e
        self.genus = table.count(0)
        self._table = table

    @classmethod
    def from_generators(cls, gens) -> "NumericalSemigroup":
        """The semigroup generated by ``gens``, integers with gcd 1 (a
        float, a Fraction or a string raises TypeError).

        The sieve stops at the first run of m = min(gens) members, which
        starts at c (adding m covers the rest).  A gap at or above
        ``CONDUCTOR_LIMIT`` raises :class:`BoundTooLarge`.
        """
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        gens = sorted(set(map(index, gens)))
        if gens[0] <= 0:
            raise ValueError("generators must be positive")
        if reduce(gcd, gens) != 1:
            raise NotCofinite(f"gcd({','.join(map(str, gens))}) > 1")
        m = gens[0]
        table = bytearray(b"\x01")
        run = 1
        while run < m:
            n = len(table)
            member = any(table[n - g] for g in gens if g <= n)
            if not member and n >= CONDUCTOR_LIMIT:
                raise BoundTooLarge(f"conductor of <{','.join(map(str, gens))}> "
                                    f"exceeds {CONDUCTOR_LIMIT}")
            table.append(member)
            run = run + 1 if member else 0
        return cls(table[: len(table) - m])

    # -- membership ----------------------------------------------------

    def __contains__(self, n) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return bool(self._table[n])

    def members(self, stop: int):
        """Members of H in [0, stop), in increasing order."""
        c = self.conductor
        for n in range(min(stop, c)):
            if self._table[n]:
                yield n
        for n in range(c, stop):
            yield n

    def gaps(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.conductor) if not self._table[n])

    # -- invariants ----------------------------------------------------

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    @property
    def has_minimal_multiplicity(self) -> bool:
        return self.multiplicity == self.embedding_dimension

    @property
    def is_symmetric(self) -> bool:
        """Gorenstein: x in H iff F - x not in H for every x, that is g = c/2.

        x -> F - x maps the c - g members below c into the g gaps (F is a
        gap), so c <= 2g, with equality exactly when it is onto.
        """
        return 2 * self.genus == self.conductor

    def apery_set(self, e: int) -> tuple[int, ...]:
        """The e smallest members, one per residue class mod e."""
        if e <= 0 or e not in self:
            raise NotAMember(f"{e} is not a positive member of {self}")
        # w is the least member of its class mod e exactly when w - e is not a member
        return tuple(w for w in self.members(self.conductor + e) if w - e not in self)

    def kunz_coordinates(self, e: int) -> "KunzVector":
        """Coordinates mu_i with w_i = i + mu_i * e over the Apery set of e."""
        if e < 2:
            raise NotAMember("Kunz coordinates need e >= 2")
        w = {n % e: n for n in self.apery_set(e)}
        return KunzVector(e, tuple((w[i] - i) // e for i in range(1, e)))

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Integers x outside H with x + h in H for every nonzero member h."""
        gens = self.minimal_generators
        out = []
        for x in range(-1, self.conductor):
            if x in self:
                continue
            if all(x + g in self for g in gens):
                out.append(x)
        return tuple(out)

    @property
    def cm_type(self) -> int:
        return len(self.pseudo_frobenius())

    # -- plumbing --------------------------------------------------------

    @property
    def text(self) -> str:
        return ",".join(map(str, self.minimal_generators))

    def __repr__(self):
        return f"<{self.text}>"

    def __eq__(self, other):
        return (isinstance(other, NumericalSemigroup)
                and other.minimal_generators == self.minimal_generators)

    def __hash__(self):
        return hash(self.minimal_generators)


@lru_cache(maxsize=1)
def natural_semigroup() -> NumericalSemigroup:
    """N0 itself: Frobenius -1, conductor 0."""
    return NumericalSemigroup.from_generators([1])


def parse_generators(text: str) -> tuple[int, ...]:
    """Parse the text form of a semigroup: comma-separated generators."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise EmptyGenerators(f"no generators in {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad generator list {text!r}") from exc


# ---------------------------------------------------------------------------
# semigroup ideals


@dataclass(frozen=True)
class SemigroupIdeal:
    """A set E of integers with E + H contained in E and a cofinite tail.

    ``window`` holds the elements in [start, stable); every integer at or
    above ``stable`` belongs to E, and ``stable`` is minimal for that.
    """

    base: NumericalSemigroup
    start: int
    stable: int
    window: frozenset

    @classmethod
    def create(cls, base, elements, stable: int) -> "SemigroupIdeal":
        """The set ``elements`` (those below ``stable``) plus [stable, oo),
        checked to be closed under the base semigroup."""
        ideal = cls._trimmed(base, elements, stable)
        for x in sorted(ideal.window):
            for g in base.minimal_generators:
                if x + g not in ideal:
                    raise AssertionError(f"{set(ideal.window)} is not an ideal over {base}")
        return ideal

    @classmethod
    def _trimmed(cls, base, elements, stable: int) -> "SemigroupIdeal":
        """:meth:`create` with no closure check, for a set that is an ideal
        by construction; ``stable`` is lowered to its minimum."""
        elements = {int(x) for x in elements if x < stable}
        while stable - 1 in elements:
            elements.discard(stable - 1)
            stable -= 1
        start = min(elements) if elements else stable
        return cls(base, start, stable, frozenset(elements))

    def __contains__(self, x) -> bool:
        if x >= self.stable:
            return True
        return x in self.window

    def elements(self, stop: int):
        """Elements of E in [start, stop), increasing."""
        for x in range(self.start, min(stop, self.stable)):
            if x in self.window:
                yield x
        for x in range(self.stable, stop):
            yield x

    def __add__(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        """The sumset E + F over the same base: every integer from
        min(E.stable + F.start, F.stable + E.start) on is a sum, and
        E + F + H = E + (F + H) lies in E + F, so it is an ideal."""
        if other.base != self.base:
            raise FieldMismatch(f"ideals over {self.base} vs {other.base}")
        stable = min(self.stable + other.start, other.stable + self.start)
        return SemigroupIdeal._trimmed(self.base, {x + y for x in self.elements(stable)
                                                   for y in other.elements(stable - x)}, stable)

    def __sub__(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        """The colon E - F = {x : x + F inside E} over the same base (not
        the set difference); it is an ideal, since E + H lies in E.

        F is the union of f + H over its generators f and E + H lies in
        E, so x is in E - F when x + f is in E for each generator f.  Below
        E.start - F.start, x + F.start lies below E; from
        s = E.stable - F.start on, x + F lies in [E.stable, oo).  And s is
        minimal, since s - 1 + F.start = E.stable - 1 is outside E.
        """
        if other.base != self.base:
            raise FieldMismatch(f"ideals over {self.base} vs {other.base}")
        gens = other.generators
        stable = self.stable - other.start
        window = frozenset(x for x in range(self.start - other.start, stable)
                           if all(x + f in self for f in gens))
        return SemigroupIdeal(self.base, min(window, default=stable), stable, window)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Minimal generators of E as an ideal over the base semigroup,
        computed once per instance."""
        stop = self.stable + self.base.multiplicity
        nonzero = list(self.base.members(stop - self.start))[1:]
        out = []
        for x in self.elements(stop):
            # x - h lies below start, outside E, once h exceeds x - start
            below = islice(nonzero, bisect_right(nonzero, x - self.start))
            if not any((x - h) in self for h in below):
                out.append(x)
        return tuple(out)

    def __repr__(self):
        finite = sorted(self.window)
        return f"SemigroupIdeal({finite} + [{self.stable},oo) over {self.base})"


def canonical_value_set(H: NumericalSemigroup) -> SemigroupIdeal:
    """K(H) = {x : F(H) - x not in H}, the value set of a normalized canonical ideal.

    K(H) contains 0 and everything from the conductor up; K(H) = H exactly
    when H is symmetric.
    """
    F = H.frobenius
    elems = {x for x in range(H.conductor) if (F - x) not in H}
    return SemigroupIdeal.create(H, elems, H.conductor)


# ---------------------------------------------------------------------------
# value-set condition and the finite-type list


@dataclass(frozen=True)
class ValueSetCondition:
    """Verdict of the two-part value-set test on K(H).

    kind "I": 1 lies in K(H).  kind "II": 1 does not, but every n >= 2 has
    n or n+1 in K(H).  kind "fails": neither, with the least bad n as
    witness.
    """

    kind: str
    witness: int | None = None

    def holds(self) -> bool:
        return self.kind != "fails"


def value_set_condition(K: SemigroupIdeal) -> ValueSetCondition:
    """The value-set test of H = K.base, given K = K(H)."""
    H = K.base
    if 1 in K:
        return ValueSetCondition("I")
    for n in range(2, H.frobenius + 2):
        if n not in K and (n + 1) not in K:
            return ValueSetCondition("fails", n)
    return ValueSetCondition("II")


FINITE_TYPE_TAGS = ("<1>", "<2,2s-1>", "<3,4>", "<3,5>", "<3,5,7>", "<3,4,5>")


def _semigroup_with_value_set(K: SemigroupIdeal) -> NumericalSemigroup:
    """The semigroup generated by H = K.base and K = K(H).

    K(H) is the union of the k + H over its generators k as an H-ideal, so
    H's minimal generators and the nonzero generators of K(H) suffice.
    """
    H = K.base
    return NumericalSemigroup.from_generators(
        H.minimal_generators + tuple(k for k in K.generators if k > 0))


def cm_type_list_check(K: SemigroupIdeal) -> str | None:
    """Match the semigroup generated by H = K.base and K = K(H) against
    the finite list.

    Returns the tag of the matching entry of ``FINITE_TYPE_TAGS``, or
    None.  The family <2,2s-1> is matched by its rule, every other entry
    by its generators.
    """
    gens = _semigroup_with_value_set(K).minimal_generators
    if len(gens) == 2 and gens[0] == 2 and gens[1] % 2 == 1:
        return "<2,2s-1>"
    tag = f"<{','.join(map(str, gens))}>"
    return tag if tag in FINITE_TYPE_TAGS else None


# ---------------------------------------------------------------------------
# Kunz cone


@dataclass(frozen=True)
class KunzVector:
    """Apery coordinates (mu_1, ..., mu_{e-1}) of a semigroup containing e.

    mu_i >= 1 for every i exactly when e is the multiplicity; blowups of
    minimal-multiplicity semigroups legitimately produce zero coordinates.
    """

    e: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.e < 2 or len(self.coords) != self.e - 1:
            raise ValueError("need e >= 2 and e - 1 coordinates")
        if any(x < 0 for x in self.coords):
            raise ValueError("coordinates must be nonnegative")


EXTERIOR = "exterior"
BOUNDARY = "boundary"
INTERIOR = "interior"


def kunz_cone_classify(v: KunzVector) -> str:
    """Locate a coordinate vector relative to the Kunz cone for its e.

    The cone is cut out by mu_i + mu_j >= mu_{i+j} for i + j < e and
    mu_i + mu_j >= mu_{i+j-e} - 1 for i + j > e (pairs with i + j = e are
    skipped).  Interior means every inequality is strict and every
    coordinate is at least 1, which holds exactly for the semigroups of
    minimal multiplicity e.
    """
    e = v.e
    mu = (None,) + v.coords  # 1-based
    tight = False
    for i in range(1, e):
        for j in range(i, e):
            s = i + j
            if s == e:
                continue
            rhs = mu[s] if s < e else mu[s - e] - 1
            lhs = mu[i] + mu[j]
            if lhs < rhs:
                return EXTERIOR
            if lhs == rhs:
                tight = True
    if not tight and all(x >= 1 for x in v.coords):
        return INTERIOR
    return BOUNDARY


# ---------------------------------------------------------------------------
# blowup, Lipman chain, Arf


def blowup(H: NumericalSemigroup) -> NumericalSemigroup:
    """The Lipman semigroup: generated by e together with g - e for the other generators."""
    e = H.multiplicity
    gens = {e} | {g - e for g in H.minimal_generators if g != e}
    return NumericalSemigroup.from_generators(gens)


def lipman_sequence(H: NumericalSemigroup) -> list[NumericalSemigroup]:
    """The strictly increasing chain H = H0 < H1 < ... ending at N0."""
    chain = [H]
    while chain[-1].genus > 0:
        nxt = blowup(chain[-1])
        if nxt.genus >= chain[-1].genus:
            raise AssertionError("blowup failed to decrease the genus")
        chain.append(nxt)
    return chain


def is_arf(H: NumericalSemigroup) -> bool:
    """True when every semigroup in the Lipman chain has minimal multiplicity."""
    return all(S.has_minimal_multiplicity for S in lipman_sequence(H))


def arf_closure(H: NumericalSemigroup) -> NumericalSemigroup:
    """The smallest Arf semigroup containing H.

    It has the multiplicities e_0, e_1, ... of H's Lipman chain (Lipman,
    Amer. J. Math. 93, 1971), and an Arf semigroup is the set of partial
    sums of its multiplicity sequence: members 0, e_0, e_0 + e_1, ..., and
    every integer from the sum over the chain before N0 on.  The last
    summand is at least 2, so the table ends in a gap."""
    table = bytearray()
    for S in lipman_sequence(H)[:-1]:
        table += b"\x01" + bytes(S.multiplicity - 1)
    return NumericalSemigroup(table)


# ---------------------------------------------------------------------------
# enumeration by genus


def _children(H: NumericalSemigroup) -> list[NumericalSemigroup]:
    # Removing a minimal generator g above the Frobenius number gives every
    # genus+1 semigroup exactly once (its parent is itself plus its Frobenius).
    # g >= c, so the child's table is H's, then members up to the gap g.
    c = H.conductor
    return [NumericalSemigroup(H._table + b"\x01" * (g - c) + b"\x00")
            for g in H.minimal_generators if g >= c]


def enumerate_semigroups(max_genus: int):
    """Every numerical semigroup with at most ``max_genus`` gaps, exactly once.

    The walk descends the genus tree; each level is emitted in
    lexicographic order of gap sets, so the stream is deterministic.
    """
    if max_genus > GENUS_ENUMERATION_LIMIT:
        raise BoundTooLarge(f"max_genus {max_genus} exceeds {GENUS_ENUMERATION_LIMIT}")
    if max_genus < 0:
        raise ValueError("max_genus must be nonnegative")

    def walk():
        level = [natural_semigroup()]
        for g in range(max_genus + 1):
            level.sort(key=lambda S: S.gaps())
            yield from level
            if g == max_genus:
                return
            level = [child for S in level for child in _children(S)]

    return walk()
