"""Finite-dimensional commutative local algebras over an exact field.

The zero-dimensional brute-forcer: an algebra is a multiplication table
on a basis whose first element is the identity and whose remaining
elements span the maximal ideal (which must be nilpotent).  Trace
ideals come from the definition, tr(I) = sum of phi(I) over phi in
Hom(I, A), because (R : I) I is unavailable without non-zerodivisors.
:func:`hom_trace` solves Hom(I, A) for one ideal; the enumeration of
trace ideals carries a basis of Hom(I, A) down the lattice walk instead,
extending it along each edge I -> I + K v by one small solve for the
image of v.

The only elements of m this layer imposes are the b_g of
``A.generators``, which span m/m^2 and so, by Nakayama, generate m as an
algebra: the socle, the Hom systems and the ideal walks use them alone.
They are read off one elimination of m^2.  For R/c they are the minimal
generators of H below c, the actions of the trace-ideal enumeration of
:mod:`traceforge.trace`.

This module also holds the one submodule-lattice engine of the package,
entered by each walk of an algebra through ``ArtinAlgebra._walk`` and by
that trace-ideal enumeration.  It is a reverse search: each nonzero module
has one parent, itself without its first echelon row, and a depth-first
walk from 0 streams every module once, adding to M each line of the
socle of the quotient by M that leads before M's first pivot.  Each
module carries its action images reduced modulo M down to its children,
so a tree edge costs one row update, and a caller's state, made by a
step that is handed the child's rows and pivots and may cut the child
with its subtree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import (DependentGenerators, InfiniteField, NotGorenstein,
                     WorkloadExceeded, ZeroQuotient)
from .fields import GF, Matrix, rref, solve_homogeneous

__all__ = [
    "ArtinAlgebra",
    "SubIdeal",
    "ideal_generated_by",
    "truncated_dvr",
    "square_zero_two_vars",
    "gorenstein_two_generators",
    "semigroup_quotient",
    "socle",
    "hom_trace",
    "enumerate_ideals",
    "enumerate_trace_ideals_artinian",
    "gorenstein_family_separation",
    "IDEAL_ENUMERATION_GUARD",
]

IDEAL_ENUMERATION_GUARD = 10**7
ENUMERATION_DIM_LIMIT = 12


def _check_quotient_dim(d: int) -> None:
    """Refuse a quotient R/c whose dimension exceeds the enumeration limit."""
    if d > ENUMERATION_DIM_LIMIT:
        raise WorkloadExceeded(
            f"dim R/c = {d} exceeds the enumeration limit {ENUMERATION_DIM_LIMIT}")


def _check_ideal_sweep(p: int, d: int) -> None:
    """Refuse an ideal enumeration of a dimension-d algebra over F_p whose
    p^d vectors exceed the guard.  p >= 2, so from the guard's bit length
    on p^d exceeds it, and p^d is not computed for a huge d."""
    if d >= IDEAL_ENUMERATION_GUARD.bit_length() or p ** d > IDEAL_ENUMERATION_GUARD:
        raise WorkloadExceeded(f"{p}^{d} vectors exceed the guard")


@dataclass(frozen=True)
class ArtinAlgebra:
    """A commutative local K-algebra given by a multiplication table.

    ``table[i][j]`` holds the coordinates of b_i * b_j.  Index 0 is the
    identity; the span of the other basis elements is the maximal ideal.
    A table from a caller enters through :meth:`create`, which checks it;
    the constructors of this module build algebras with canonical entries
    by construction and skip those checks.  A vector from a caller enters
    through :meth:`_vector`.
    """

    field: object
    dim: int
    labels: tuple
    table: tuple

    @classmethod
    def create(cls, field, labels, table) -> "ArtinAlgebra":
        d = len(labels)
        table = tuple(tuple(tuple(field.element(x) for x in cell) for cell in row)
                      for row in table)
        if len(table) != d or any(len(row) != d for row in table) or any(
                len(cell) != d for row in table for cell in row):
            raise ValueError("multiplication table must be dim x dim x dim")
        A = cls(field, d, tuple(labels), table)
        for i in range(d):
            for j in range(i, d):
                if table[i][j] != table[j][i]:
                    raise ValueError("multiplication table is not commutative")
        # an empty basis has no identity either
        if not d or any(table[0][j] != A.basis_vector(j) for j in range(d)):
            raise ValueError("basis element 0 is missing or does not act as the identity")
        # (b_i b_j) b_k = b_i (b_j b_k); the table is already commutative
        for i, j, k in itertools.product(range(d), repeat=3):
            if A._act(k, table[i][j]) != A._act(i, table[j][k]):
                raise ValueError("multiplication table is not associative")
        # locality: the span of the non-unit basis elements must be nilpotent
        power = [A.basis_vector(i) for i in range(1, d)]
        for _ in range(d + 1):
            if not power:
                break
            power = _span(A, [A._act(i, v) for i in range(1, d) for v in power])
        else:
            raise ValueError("the non-unit basis span is not nilpotent")
        return A

    @cached_property
    def square(self) -> tuple:
        """A basis of m^2, the span of the products b_i b_j, i, j >= 1: its
        RREF with the coordinates reversed, so each vector has its own last
        nonzero entry, and those entries are the last nonzero entries of m^2."""
        products = [self.table[i][j][::-1] for i in range(1, self.dim) for j in range(i, self.dim)]
        return tuple(w[::-1] for w in _span(self, products))

    @cached_property
    def generators(self) -> tuple:
        """The indices g >= 1 whose b_g give a basis of m/m^2: those at which
        no vector of m^2 has its last nonzero entry.

        They are the b_g that raise the rank over m^2 and b_1, ..., b_{g-1}
        in index order: by induction m^2 plus the b_j kept before g is
        m^2 + span(b_1, ..., b_{g-1}), and b_g lies in it exactly when some
        w of m^2 is b_g plus earlier terms."""
        lasts = {max(i for i, x in enumerate(w) if x) for w in self.square}
        return tuple(g for g in range(1, self.dim) if g not in lasts)

    @cached_property
    def generator_matrices(self) -> tuple:
        """The pairs (g, M_g) for g in ``generators``, with M_g[r][c] the
        coordinate r of b_g b_c: the matrix of multiplication by b_g."""
        return tuple((g, tuple(zip(*self.table[g]))) for g in self.generators)

    def _walk(self, step=None, state=None):
        """The walk of :func:`_ideal_lattice`, with its ``step`` and ``state``,
        over the ideals of A acted on by the b_g of ``generators``; it refuses
        at once an A over an infinite field, past the p^d guard, or with some
        b_i * b_j (i >= 1) nonzero up to index j, which the engine cannot walk."""
        f = self.field
        if not f.finite:
            raise InfiniteField("exhaustive ideal enumeration needs a finite field")
        _check_ideal_sweep(f.p, self.dim)
        if any(any(cell[:j + 1]) for row in self.table[1:] for j, cell in enumerate(row)):
            raise ValueError("some product b_i * b_j (i >= 1) is nonzero at an index up to j")
        return _ideal_lattice(f.p, self.dim, [self.table[g] for g in self.generators], step, state)

    def basis_vector(self, i: int) -> tuple:
        return _unit_row(self.field, self.dim, i)

    def zero_vector(self) -> tuple:
        return (self.field.zero,) * self.dim

    def _vector(self, v) -> tuple:
        """A caller's vector v of A, with its length checked and each entry
        passed through ``field.element``: the one door for caller vectors."""
        if len(v) != self.dim:
            raise ValueError(f"a vector of A has {self.dim} entries, not {len(v)}")
        return tuple(map(self.field.element, v))

    def act(self, i: int, v: tuple) -> tuple:
        """b_i * v for a caller's vector v."""
        return self._act(i, self._vector(v))

    def _act(self, i: int, v: tuple) -> tuple:
        """b_i * v for a vector v with canonical entries: v's entries
        combine the column images b_i b_j of the table, with native
        operators and ``% p`` once over F_p."""
        out = self.zero_vector()
        for x, image in zip(v, self.table[i]):
            if x:
                out = [a + x * b for a, b in zip(out, image)]
        f = self.field
        return tuple(a % f.p for a in out) if f.finite else tuple(out)

    def to_json(self) -> dict:
        f = self.field
        return {
            "dim": self.dim,
            "field": repr(f),
            "labels": list(self.labels),
            "table": [[[f.format(x) for x in cell] for cell in row]
                      for row in self.table],
        }

    def __repr__(self):
        return f"ArtinAlgebra({', '.join(self.labels)} over {self.field!r})"


def _span(A: ArtinAlgebra, vectors) -> tuple:
    """The RREF basis of the span of ``vectors`` in A."""
    red, piv = rref(Matrix(A.field, tuple(vectors), A.dim))
    return red.rows[:len(piv)]


def _in_span(rows, pivots, w, p: int) -> bool:
    """Whether w lies in the span of RREF ``rows`` with these ``pivots``,
    over F_p, or over QQ for p = 0.  The rows are zero at each other's
    pivots, so it does exactly when w less each row times w's entry at
    that row's pivot, not reduced mod p, is zero (mod p over F_p)."""
    for c, row in zip(pivots, rows):
        x = w[c]
        if x:
            w = [a - x * b for a, b in zip(w, row)]
    return not any(a % p for a in w) if p else not any(w)


@dataclass(frozen=True)
class SubIdeal:
    """An ideal of an ArtinAlgebra, stored as its RREF basis (every
    instance comes from :func:`_span`, the lattice engine or a null space)."""

    algebra: ArtinAlgebra
    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple:
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.rows)

    def coordinates(self, v: tuple):
        """Coordinates of a caller's vector v in the basis, or None when v
        is outside."""
        return self._coordinates(self.algebra._vector(v))

    def _coordinates(self, w: tuple):
        """:meth:`coordinates` of a vector w with canonical entries: the
        rows are reduced, so each is w's entry at its row's pivot."""
        f = self.algebra.field
        if _in_span(self.rows, self.pivots, w, f.p if f.finite else 0):
            return [w[j] for j in self.pivots]
        return None

    def contains(self, v: tuple) -> bool:
        return self.coordinates(v) is not None

    def __repr__(self):
        return f"SubIdeal(dim {self.dim} of {self.algebra!r})"


def ideal_generated_by(A: ArtinAlgebra, vectors) -> SubIdeal:
    """The ideal generated by ``vectors``: spanned by all basis multiples."""
    prods = [A._act(i, v) for v in map(A._vector, vectors) for i in range(A.dim)]
    return SubIdeal(A, _span(A, prods))


# ---------------------------------------------------------------------------
# constructors


def _unit_row(field, d: int, k: int) -> tuple:
    """The k-th unit vector of K^d, with canonical entries."""
    return tuple(field.one if j == k else field.zero for j in range(d))


def _monomial_table(field, exps, bound: int) -> tuple:
    """The product table of the t^e, e in the increasing ``exps``, mod t^bound:
    cell (a, b) is the unit row of t^(a + b), in ``exps`` below the bound, else zero."""
    units = {e: _unit_row(field, len(exps), i) for i, e in enumerate(exps)}
    zero = (field.zero,) * len(exps)
    return tuple(tuple(units[a + b] if a + b < bound else zero for b in exps) for a in exps)


def truncated_dvr(field, length: int) -> ArtinAlgebra:
    """K[x] / (x^length), a chain ring; length 1 gives the field itself."""
    if length < 1:
        raise ValueError("length must be at least 1")
    labels = ("1",) + tuple(f"x^{i}" if i > 1 else "x" for i in range(1, length))
    return ArtinAlgebra(field, length, labels, _monomial_table(field, range(length), length))


def square_zero_two_vars(field) -> ArtinAlgebra:
    """K[x, y] / (x, y)^2: dim 3, every product of non-units is zero."""
    one, x, y = (_unit_row(field, 3, k) for k in range(3))
    zero = (field.zero,) * 3
    table = ((one, x, y), (x, zero, zero), (y, zero, zero))
    return ArtinAlgebra(field, 3, ("1", "x", "y"), table)


def gorenstein_two_generators(field) -> ArtinAlgebra:
    """K[x, y] / (x^2 - y^2, xy): dim 4, Gorenstein, socle spanned by x^2."""
    one, x, y, s = (_unit_row(field, 4, k) for k in range(4))
    zero = (field.zero,) * 4
    table = ((one, x, y, s), (x, s, zero, zero), (y, zero, s, zero), (s, zero, zero, zero))
    return ArtinAlgebra(field, 4, ("1", "x", "y", "x^2"), table)


def semigroup_quotient(H, p: int) -> ArtinAlgebra:
    """R / conductor for R = F_p[[H]], on the monomial basis t^h, h < c."""
    c = H.conductor
    if c == 0:
        raise ZeroQuotient("the conductor of N0 is the whole ring")
    exps = list(H.members(c))
    _check_quotient_dim(len(exps))
    labels = tuple("1" if e == 0 else f"t^{e}" for e in exps)
    f = GF(p)
    return ArtinAlgebra(f, len(exps), labels, _monomial_table(f, exps, c))


# ---------------------------------------------------------------------------
# socle and traces


def socle(A: ArtinAlgebra) -> SubIdeal:
    """The annihilator of the maximal ideal; the whole ring when dim = 1.

    It is the null space of the multiplication-by-b_g matrices of
    ``A.generators``: a v they annihilate is annihilated by their
    products, hence by m, which they generate as an algebra (Nakayama).
    ``solve_homogeneous`` returns its unique RREF, and an annihilator is
    already an ideal, so that basis is the ideal's."""
    rows = tuple(row for _, M in A.generator_matrices for row in M)
    return SubIdeal(A, tuple(solve_homogeneous(Matrix(A.field, rows, A.dim))))


def hom_trace(I: SubIdeal) -> SubIdeal:
    """Sum of the images of all module homomorphisms from I to the algebra.

    A homomorphism is a linear map commuting with multiplication by every
    element of A.  The b_g of ``A.generators`` span m modulo m^2, so by
    Nakayama (m is nilpotent) they generate A as a K-algebra with 1, and a
    linear map that commutes with each b_g commutes with their products,
    hence with all of A.  So the system is imposed on those b_g only, with
    its identically zero equations left out; its null space is Hom(I, A),
    as on every basis element, so its RREF and the solved basis are the
    same too.  The check that each b_g * row_i lies in I stays complete:
    an I closed under the generators is closed under A.  The trace is the
    span of all the image vectors.  Hom(I, A) is an A-module, since
    a * phi is again a homomorphism, so that span is already an ideal.
    """
    A = I.algebra
    k, d = I.dim, A.dim
    # unknowns w_{i,c} = coordinate c of the image of row i; for each b_g the
    # equations say b_g * w_i = sum_j lam_j w_j, lam the coordinates of b_g * row i
    zero = A.field.zero
    eqs = []
    for g, M in A.generator_matrices:  # M[r][c]: coordinate r of b_g b_c
        for i, b in enumerate(I.rows):
            lam = I._coordinates(A._act(g, b))
            if lam is None:
                raise AssertionError("vector not inside the ideal")
            neg = [-x for x in lam]
            for r in range(d):
                row = [zero] * (k * d)
                row[r::d] = neg  # -lam_j at coordinate r of every w_j
                row[i * d:(i + 1) * d] = M[r]
                row[i * d + r] -= lam[i]
                # table entries and lam are canonical, so zero means 0
                if any(row):
                    eqs.append(tuple(row))
    # with no equations (A is a field or I = 0) every linear map qualifies
    sols = solve_homogeneous(Matrix(A.field, tuple(eqs), k * d))
    images = [tuple(sol[i * d:(i + 1) * d]) for sol in sols for i in range(k)]
    return SubIdeal(A, _span(A, images))


# ---------------------------------------------------------------------------
# enumeration


class _Packing(NamedTuple):
    """How the lattice engine packs a vector over F_p into one int: a
    field of ``bits`` bits per coordinate, coordinate 0 lowest.  Entries
    are kept in [0, p), and an update w + x u (x <= p) before its
    reduction holds at most (p - 1) + p (p - 1) = p^2 - 1 in a field, so
    p <= 13 takes bytes, which that prime's table in ``_BYTE_TABLES``
    reduces; wider fields are reduced one coordinate at a time.  A
    column's action images are n fields, a block of d per action;
    ``blocks`` masks each block's first field and ``tops`` holds p there."""
    p: int
    d: int
    n: int
    bits: int
    blocks: int
    tops: int
    reduce: Callable[[int, int], int]  # (w, n): w's n fields mod p
    unpack: Callable[[int, int], tuple]  # (w, n): w's n fields

    def pack(self, entries) -> int:
        return sum(x << self.bits * c for c, x in enumerate(entries))


_BYTE_TABLES = {p: bytes(b % p for b in range(256)) for p in (2, 3, 5, 7, 11, 13)}


def _packing(p: int, d: int, k: int) -> _Packing:
    """The packing of vectors of length d over F_p, with k actions."""
    bits = 8 * ((p * p - 1).bit_length() + 7 >> 3)
    mask = (1 << bits) - 1
    if bits == 8:
        table = _BYTE_TABLES[p]

        def reduce(w, n):
            return int.from_bytes(w.to_bytes(n, "little").translate(table), "little")

        def unpack(w, n):
            return tuple(w.to_bytes(n, "little"))
    else:
        def reduce(w, n):
            return sum((w >> s & mask) % p << s for s in range(0, bits * n, bits))

        def unpack(w, n):
            return tuple(w >> s & mask for s in range(0, bits * n, bits))
    first = [bits * d * i for i in range(k)]
    return _Packing(p, d, d * k, bits, sum(mask << s for s in first), sum(p << s for s in first),
                    reduce, unpack)


def _ideal_lattice(p: int, d: int, actions, step=None, state=None):
    """Every subspace of F_p^d stable under ``actions``, yielded once each
    as (rows, pivots, state) in the order of the walk: its RREF rows,
    their pivot columns and the caller's state.

    ``actions`` are linear maps on F_p^d given by column images (``a[j]``
    is the image of the j-th unit vector); they need only generate the
    maximal ideal of a local ring with residue field F_p as an algebra (a
    subspace stable under them is stable under their products), and they
    raise the index (``a[j]`` is zero up to j).  So a nonzero submodule
    without its first row is again a submodule, its one parent, and the
    children of M are M + F_p v for the socle lines of the quotient by M
    that lead before M's first pivot; (v, *rows) is already in RREF.  A
    depth-first walk from 0 makes each submodule once (reverse search),
    and its stack never holds the lattice.

    Each module carries down the tree what its children need, so a tree
    edge costs one row update and each module eliminates only the columns
    before its first pivot: ``images[j]`` packs a e_j modulo M over the
    actions for those columns j, and the child gets the elimination of
    :func:`_socle_lines` as it stood before the child's lead.  ``state``
    starts as given and becomes ``step(state, rows, pivots)`` along the
    edge from M to M + F_p v, called with the child's rows and pivots as
    they are about to be yielded, so ``rows[0]`` is v and ``rows[1:]``,
    ``pivots[1:]`` are M's.  A step that returns None cuts the child: it
    is not yielded and its subtree is not walked.  A child's state is
    made when it leaves the stack, before its images, so the stack holds
    one set of images per module on the path and a cut child costs no
    row update.

    Vectors are packed ints (:class:`_Packing`), each field holding up to
    p^2 - 1, and every update is reduced to entries in [0, p) before it
    is read, so each entry, lead and line is the one the tuple rows of
    ``tests/_oracles.lattice_by_tuple_rows`` give, and so is the stream.
    A child's rows get their tuple once, when it leaves the stack.
    """
    pk = _packing(p, d, len(actions))
    unpack = pk.unpack
    images = [pk.pack([x for a in actions for x in a[j]]) for j in range(d)]
    stack = [(0, (), (), images, state, (), ())]
    while stack:
        v, rows, pivots, images, state, echelon, kernel = stack.pop()
        if v:
            rows = (unpack(v, d),) + rows
            if step:
                state = step(state, rows, pivots)
                if state is None:
                    continue
            images = _reduce_images(pk, images, v, pivots[0])
        yield rows, pivots, state
        stack += [(v, rows, (lead,) + pivots, images, state, *done)
                  for lead, v, done in _socle_lines(pk, images, echelon, kernel)]


def _reduce_images(pk: _Packing, images, v: int, lead: int) -> list:
    """The images modulo M + F_p v of the columns before ``lead`` from
    those modulo M, for (v, *rows) in RREF: v is zero on M's pivots, so
    w - w[lead] v is reduced for both.  The child needs no other column,
    and an image beyond ``lead`` is zero at it, so v would leave it alone.
    One product updates every action block of a column: x holds each
    block's entry at the lead, and w + v (p - x) is w - x v modulo p.
    Images that v leaves alone are shared with the parent, never copied."""
    _, _, n, bits, blocks, tops, reduce, _ = pk
    shift = bits * lead
    return [reduce(w + v * (tops - x), n) if (x := w >> shift & blocks) else w
            for w in images[:lead]]


def _socle_lines(pk: _Packing, images, echelon, kernel):
    """One vector per line of N/M that leads before M's first pivot, with
    N = {v : a v in M for all a}, as triples (lead, v, done) with v[lead] = 1.

    M is the span of RREF rows, and ``images[j]`` packs every a e_j
    reduced modulo M for the columns j before M's first pivot, all free.
    The unit vectors e_j off the pivots represent a basis of V/M, so N/M
    is the kernel of the map sending such e_j to their images, each the
    actions' d coordinates end to end.  It is found by eliminating the
    images from the last e_j down while tracking e_j, so each kernel
    vector is 1 at its own j, zero before it and zero on the pivots.  M's
    parent eliminated the columns from M's first pivot l on and hands
    over ``echelon`` and ``kernel`` as they stood before l: each image
    beyond l is zero at l, so M's first row leaves it alone and would give
    them again.  ``done`` is that hand-over for v's child.

    Vectors are packed as :class:`_Packing` says, and each image carries
    its tag in the fields above it, so one update w + (p - x) u, reduced,
    eliminates both; a lead is the lowest nonzero field, and an image
    with none left is a tag.  The updates, leads and lines are those of
    the tuple rows, in the same order.
    """
    p, d, n, bits, _, _, reduce, _ = pk
    tags, m, mask = bits * n, n + d, (1 << bits) - 1
    echelon = list(echelon)  # (pivot shift, image + tag << tags), pivot entry 1
    kernel = list(kernel)  # tags, j falling
    for j in reversed(range(len(images))):
        row = images[j] | 1 << tags + bits * j
        for s, u in echelon:
            x = row >> s & mask
            if x:
                row = reduce(row + (p - x) * u, m)
        s = ((row & -row).bit_length() - 1) // bits * bits
        if s < tags:
            x = row >> s & mask
            echelon.append((s, reduce(row * pow(x, -1, p), m) if x > 1 else row))
            continue
        tag = row >> tags
        done = tuple(echelon), tuple(kernel)  # kernel: the kernel vectors after j
        for coeffs in itertools.product(range(p), repeat=len(kernel)):
            v = tag
            for c, r in zip(coeffs, kernel):
                if c:
                    v = reduce(v + c * r, d)
            yield j, v, done
        kernel.append(tag)


def enumerate_ideals(A: ArtinAlgebra) -> list[SubIdeal]:
    """All ideals of A over a finite field, duplicate-free, sorted by dimension;
    the lattice engine needs b_i * b_j (i >= 1) to be zero up to index j."""
    lattice = [rows for rows, _, _ in A._walk()]
    return [SubIdeal(A, rows) for rows in sorted(lattice, key=lambda r: (len(r), r))]


def _hom_walk(A: ArtinAlgebra):
    """The ideals I of A in the order of the lattice walk, each yielded as
    (rows, pivots, homs) with ``homs`` a basis of Hom(I, A), carried down
    the walk as :func:`enumerate_trace_ideals_artinian` derives.

    A homomorphism phi is the flat tuple of its images of I's rows, d
    entries each, in the order of the rows, so a homomorphism on a child
    is its image w of v = rows[0] followed by its restriction to the
    parent, whose rows and pivots are ``rows[1:]`` and ``pivots[1:]``.
    The root carries the empty basis.
    """
    f, d = A.field, A.dim

    def step(homs, rows, pivots):
        p, v = f.p, rows[0]
        pad = (0,) * len(homs)
        eqs = []
        for _, M in A.generator_matrices:
            # b_g v lies in I, so its coordinates are its entries M[c] . v at I's pivots
            lam = [(j * d, x) for j, c in enumerate(pivots[1:])
                   if (x := sum(a * b for a, b in zip(M[c], v)) % p)]
            if not (lam and homs):  # phi(b_g v) = 0 for every phi
                eqs += [coeffs + pad for coeffs in M if any(coeffs)]
                continue
            targets = []  # -phi_s(b_g v) for each s
            for phi in homs:
                u = [0] * d
                for at, x in lam:
                    u = [a - x * b for a, b in zip(u, phi[at:at + d])]
                targets.append(u)
            # row r: coordinate r of b_g w - sum_s c_s phi_s(b_g v)
            for coeffs, tail in zip(M, zip(*targets)):
                row = coeffs + tail
                if any(row):
                    eqs.append(row)
        extended = []
        for sol in solve_homogeneous(Matrix(f, tuple(eqs), d + len(homs))):
            phi = [0] * ((len(rows) - 1) * d)
            for c, old in zip(sol[d:], homs):
                if c:
                    phi = [a + c * b for a, b in zip(phi, old)]
            extended.append(sol[:d] + tuple([x % p for x in phi]))
        return tuple(extended)

    return A._walk(step, ())


def enumerate_trace_ideals_artinian(A: ArtinAlgebra) -> list[SubIdeal]:
    """The trace ideals of A: fixed points of hom_trace (zero included),
    sorted as :func:`enumerate_ideals` sorts all ideals.

    An ideal I lies in tr(I), the span of phi(row) over a basis of
    Hom(I, A) and the rows of I, so I is a trace ideal exactly when each
    such image lies in I; the test stops at the first that does not.

    The basis is not solved afresh for each ideal but carried down the
    lattice walk, starting from Hom(0, A) = 0 with its empty basis.  A
    child is I' = I + K v, with rows (v, *rows(I)), and v spans a socle
    line of A/I, so every b_g v lies in I.  A linear map phi' on I' is
    its restriction phi to I together with w = phi'(v), and by the
    Nakayama argument of :func:`hom_trace` it is a homomorphism exactly
    when phi is one and b_g w = phi(b_g v) for each b_g of
    ``A.generators``.  With phi = sum_s c_s phi_s over the parent's basis
    and the coordinates of b_g v read at I's pivots, these are |gens| * d
    linear equations in the d + dim Hom(I, A) unknowns (w, c).  The map
    from (w, c) to phi' = (w, sum_s c_s phi_s) is linear, injective and
    onto Hom(I', A) on their null space, so it takes the null space's
    basis to a basis of Hom(I', A).
    """
    walk = _hom_walk(A)  # refuses A before A.field.p is read
    p, d = A.field.p, A.dim
    fixed = [rows for rows, pivots, homs in walk
             if all(_in_span(rows, pivots, phi[at:at + d], p)
                    for phi in homs for at in range(0, len(phi), d))]
    return [SubIdeal(A, rows) for rows in sorted(fixed, key=lambda r: (len(r), r))]


# ---------------------------------------------------------------------------
# Gorenstein separation


def gorenstein_family_separation(A: ArtinAlgebra, u, v, samples) -> int:
    """Count the distinct cyclic trace ideals (u + a*v) over the samples a.

    Requires a Gorenstein algebra (socle of dimension 1) and u, v part of
    a minimal generating set of the maximal ideal, i.e. independent
    modulo its square.  Every cyclic ideal here is a trace ideal, so no
    sample is re-tested: a one-dimensional socle makes A Gorenstein, hence
    self-injective, so every phi: I -> A is multiplication by an element
    of A and tr(I) = I.  Distinct samples are expected to give distinct
    ideals.
    """
    soc = socle(A)
    if soc.dim != 1:
        raise NotGorenstein(f"socle dimension is {soc.dim}")
    u, v = A._vector(u), A._vector(v)
    if u[0] or v[0]:
        raise DependentGenerators("u and v must lie in the maximal ideal")
    if len(_span(A, A.square + (u, v))) != len(A.square) + 2:
        raise DependentGenerators("u and v are dependent modulo m^2")
    # u + a v enters through ideal_generated_by, which makes its entries canonical
    return len({ideal_generated_by(A, [[x + a * y for x, y in zip(u, v)]]).rows
                for a in samples})
