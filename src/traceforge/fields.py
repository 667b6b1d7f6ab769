"""Exact scalar arithmetic and reduced row echelon linear algebra.

Field elements are plain values: `fractions.Fraction` over the rationals
and `int` residues in [0, p) over a prime field.  A field object
interprets the values; matrices and polynomials carry a reference to
their field.  No floating point is used anywhere.

`rref`, the one elimination kernel, takes systems of any shape, no rows
included, since a ``Matrix`` carries its width.  It takes canonical field
elements (zero is a false value) and touches only the pivot row's
support, with native operators.  The field selects the loop: over F_p
it works on residues with ``% p``, over QQ it clears each row's
denominators and eliminates fraction-free on integers, as Bareiss does
(Math. Comp. 22, 1968) but dividing rows by their content, and divides
by the pivots once at the end.
``solve_homogeneous`` returns the null space in RREF from one ``rref``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index

from .errors import DivisionByZero

__all__ = [
    "RationalField",
    "PrimeField",
    "QQ",
    "GF",
    "Matrix",
    "rref",
    "rank",
    "solve_homogeneous",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class RationalField:
    """The field of rational numbers; elements are reduced ``Fraction`` values."""

    finite = False
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("traceforge.QQ")

    def element(self, value, den=1) -> Fraction:
        return Fraction(value, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in QQ")
        return Fraction(a) / b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inversion of zero in QQ")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str) -> Fraction:
        return Fraction(text)

    def format(self, a) -> str:
        return str(a)


class PrimeField:
    """The prime field F_p; elements are ``int`` residues in [0, p)."""

    finite = True

    def __init__(self, p: int):
        p = index(p)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= 2**31:
            raise ValueError("prime moduli must fit in 31 bits")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("traceforge.GF", self.p))

    def element(self, value, den=1) -> int:
        if isinstance(value, Fraction):
            den = den * value.denominator
            value = value.numerator
        else:
            value = index(value)
        return value * self.inv(den % self.p) % self.p if den != 1 else value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inversion of zero in GF({self.p})")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str) -> int:
        return self.element(Fraction(text))

    def format(self, a) -> str:
        return str(a % self.p)


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


@dataclass(frozen=True)
class Matrix:
    """A dense matrix over one field; with no rows it keeps its ``ncols``."""

    field: object
    rows: tuple
    ncols: int

    @classmethod
    def from_rows(cls, field, rows, ncols=None) -> "Matrix":
        """Canonicalize the entries; ``ncols`` defaults to the first row's width."""
        rows = tuple(tuple(field.element(x) for x in row) for row in rows)
        if ncols is None:
            if not rows:
                raise ValueError("a matrix with no rows needs its width")
            ncols = len(rows[0])
        return cls(field, rows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of ``m`` and its pivot columns.

    The reduced form is unique, which canonical ideal forms rely on; the
    pivot in each column is the first row with a nonzero entry.  Entries
    must be canonical field elements, so that zero is false (over F_p
    they are reduced mod p on entry, and over QQ ints serve as well).
    Rows of any width other than ``m.ncols`` raise ``ValueError``; a
    matrix with no rows is reduced.

    Over F_p every other row is updated only at the columns where the
    scaled pivot row is nonzero, with native operators and ``% p``.  Over
    QQ the rows are eliminated fraction-free on integers
    (:func:`_rref_rational`) and each pivot row is divided by its pivot
    once at the end, so every output entry is a canonical ``Fraction``.
    """
    f = m.field
    nc = m.ncols
    for row in m.rows:
        if len(row) != nc:
            raise ValueError(f"ragged matrix rows: a row of width {len(row)}, not {nc}")
    if not f.finite:
        return _rref_rational(m)
    p = f.p
    rows = [[x % p for x in r] for r in m.rows]
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r]
        k = f.inv(pivot[c])
        # entries left of c are zero in every row from r on
        nz = [j for j in range(c, nc) if pivot[j]]
        for j in nz:
            pivot[j] = pivot[j] * k % p
        for i in range(nr):
            row = rows[i]
            k = row[c]
            if i == r or not k:
                continue
            for j in nz:
                row[j] = (row[j] - k * pivot[j]) % p
        pivots.append(c)
        r += 1
    return Matrix(f, tuple(tuple(row) for row in rows), nc), tuple(pivots)


def _rref_rational(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """:func:`rref` over QQ, fraction-free on integers.

    Each row is multiplied by the lcm of its denominators.  The pivot rule
    is that of the F_p loop.  With pivot a, a row with entry b in the
    pivot column becomes (a/g) row - (b/g) pivot for g = gcd(a, b), and is
    then divided by its content; it is scaled only when a/g is not 1, and
    the subtraction touches only the pivot row's support.  Each row stays
    a nonzero rational multiple of the row that eliminating over QQ would
    give, so the zero patterns, and with them the pivots, are the same;
    dividing each pivot row by its pivot once at the end gives the RREF.
    Rows past the rank are zero.
    """
    # most zero entries are the field's zero object, skipped with no call
    zero = m.field.zero
    nc = m.ncols
    rows = []
    for r in m.rows:
        scale = lcm(*(x.denominator for x in r if x is not zero))
        rows.append([0 if x is zero else x.numerator * (scale // x.denominator) for x in r])
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r]
        a = pivot[c]
        # entries left of c are zero in every row from r on
        nz = [j for j in range(c, nc) if pivot[j]]
        for i in range(nr):
            row = rows[i]
            b = row[c]
            if i == r or not b:
                continue
            g = gcd(a, b)
            s, t = a // g, b // g
            if s != 1:
                row = [s * x for x in row]
            for j in nz:
                row[j] -= t * pivot[j]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = [tuple(Fraction(x, row[c]) if x else zero for x in row)
           for row, c in zip(rows, pivots)]
    out += [(zero,) * nc] * (nr - r)
    return Matrix(m.field, tuple(out), nc), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve_homogeneous(m: Matrix) -> list[tuple]:
    """The null space {v : m v = 0} in reduced row echelon form.

    One ``rref``, on m with its columns reversed, makes each free column j
    lead a vector: 1 at j, zero before j and at the other free columns,
    and the negated reduced column (native negation, ``% p`` over F_p) at
    the pivots after j.  By increasing lead, these ncols - rank vectors
    are the unique RREF; with no rows, the ncols unit vectors.
    """
    f, nc = m.field, m.ncols
    p = f.p if f.finite else 0
    red, pivots = rref(Matrix(f, tuple(row[::-1] for row in m.rows), nc))
    basis = []
    # column j of the reversed system is column nc - 1 - j of m
    for j in sorted(set(range(nc)).difference(pivots), reverse=True):
        v = [f.zero] * nc
        v[j] = f.one
        for row, c in zip(red.rows, pivots):
            if x := row[j]:
                v[c] = -x % p if p else -x
        basis.append(tuple(v[::-1]))
    return basis
