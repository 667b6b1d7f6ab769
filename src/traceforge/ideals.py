"""Exact fractional-ideal arithmetic for numerical semigroup rings.

Let R = K[[H]] inside K[[t]].  A nonzero fractional R-module I that
contains some t^N K[[t]] is stored as

    I = span_K(rows) + t^tail K[[t]],

where the rows are Laurent polynomials supported on [lo, tail) in
reduced echelon form: valuations (pivots) strictly increasing, each
pivot coefficient 1, pivot exponents eliminated from the other rows,
and tail minimal (t^(tail-1) is not in I).  This representation is
unique, so module equality is structural equality.

The finite-window calculus behind every operation: if t^N K[[t]] lies
inside I and J has minimal valuation m, then any alpha with alpha*J
inside I is determined by its coefficients on [lo(I) - m, N - m),
because the discarded tail of alpha multiplies J into t^N K[[t]].
Dually only the tail monomials t^j of J with j < N - lo(alpha) impose
constraints.  Products obey tail(I*J) <= min(tail(I) + lo(J),
tail(J) + lo(I)).

Over QQ the colon's system is built on integers.  Each of J's
generators is multiplied by the lcm of its denominators, which scales
its own block of equations, and the whole system by D, the lcm of the
denominators of I's rows; neither changes the null space, and D = 1 for
every monomial I.  The powers that generate R[g] are those of s x for
x = g - g(0) and s the lcm of x's denominators, since R[s x] = R[x].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm

from .errors import FieldMismatch, NotIntegral, ZeroIdeal
from .fields import Matrix, rref, solve_homogeneous
from .semigroups import NumericalSemigroup, SemigroupIdeal, canonical_value_set

__all__ = [
    "LaurentPoly",
    "FractionalIdeal",
    "unit_ideal",
    "conductor_ideal",
    "integral_closure_ideal",
    "maximal_ideal",
    "ideal_from_generators",
    "add",
    "multiply",
    "shift",
    "dilate",
    "colon",
    "equals",
    "contains",
    "contains_ideal",
    "value_set",
    "canonical_fractional_ideal",
    "adjoin",
    "endomorphism_ring",
    "minimal_generator_count",
]


# ---------------------------------------------------------------------------
# Laurent polynomials


@dataclass(frozen=True)
class LaurentPoly:
    """A finite K-linear combination of powers t^e, e in Z.

    ``terms`` is a sorted tuple of (exponent, coefficient) pairs with no
    zero coefficients, so equality and hashing are structural.
    """

    field: object
    terms: tuple

    @classmethod
    def from_dict(cls, field, mapping) -> "LaurentPoly":
        """The sum of c t^e over the items (e, c), each c passed through
        ``field.element``."""
        return cls._from_canonical(field, {e: field.element(c) for e, c in mapping.items()})

    @classmethod
    def _from_canonical(cls, field, mapping) -> "LaurentPoly":
        """:meth:`from_dict` on canonical coefficients: zeros are false."""
        return cls(field, tuple(sorted((e, c) for e, c in mapping.items() if c)))

    @classmethod
    def zero(cls, field) -> "LaurentPoly":
        return cls(field, ())

    @classmethod
    def monomial(cls, field, exp: int, coeff=None) -> "LaurentPoly":
        coeff = field.one if coeff is None else field.element(coeff)
        return cls(field, ((exp, coeff),) if coeff else ())

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("the zero series has no valuation")
        return self.terms[0][0]

    def coeff(self, exp: int):
        for e, c in self.terms:
            if e == exp:
                return c
        return self.field.zero

    def _binop_guard(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def add(self, other) -> "LaurentPoly":
        self._binop_guard(other)
        f = self.field
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = f.add(acc.get(e, f.zero), c)
        return LaurentPoly._from_canonical(f, acc)

    def sub(self, other) -> "LaurentPoly":
        return self.add(other.neg())

    def neg(self) -> "LaurentPoly":
        f = self.field
        return LaurentPoly(f, tuple((e, f.neg(c)) for e, c in self.terms))

    def scale(self, k) -> "LaurentPoly":
        f = self.field
        if f.is_zero(k):
            return LaurentPoly.zero(f)
        return LaurentPoly(f, tuple((e, f.mul(k, c)) for e, c in self.terms))

    def mul(self, other) -> "LaurentPoly":
        self._binop_guard(other)
        f = self.field
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = f.add(acc.get(e, f.zero), f.mul(c1, c2))
        return LaurentPoly._from_canonical(f, acc)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.field, tuple((e + k, c) for e, c in self.terms))

    def truncate(self, hi: int) -> "LaurentPoly":
        """Drop every term with exponent >= hi."""
        return LaurentPoly(self.field, tuple((e, c) for e, c in self.terms if e < hi))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- text form: "t^4 + 3*t^5" --------------------------------------

    _TERM = re.compile(
        r"^(?P<sign>[+-]?)(?:(?P<c>\d+(?:/\d+)?)\*?)?(?P<t>t(?:\^(?P<e>-?\d+))?)?$")

    @classmethod
    def parse(cls, field, text: str) -> "LaurentPoly":
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        # split into signed terms; a '-' directly after '^' is an exponent sign
        chunks, cur = [], ""
        for i, ch in enumerate(s):
            if ch in "+-" and cur and not cur.endswith("^"):
                chunks.append(cur)
                cur = ch
            else:
                cur += ch
        chunks.append(cur)
        acc = {}
        for chunk in chunks:
            m = cls._TERM.match(chunk)
            if not m or (m.group("c") is None and m.group("t") is None):
                raise ValueError(f"cannot parse term {chunk!r} of {text!r}")
            coeff = field.parse(m.group("c")) if m.group("c") else field.one
            if m.group("sign") == "-":
                coeff = field.neg(coeff)
            exp = 0
            if m.group("t"):
                exp = int(m.group("e")) if m.group("e") else 1
            acc[exp] = field.add(acc.get(exp, field.zero), coeff)
        return cls.from_dict(field, acc)

    def format(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        out = ""
        for e, c in self.terms:
            mag = f.format(c)
            sign = "+"
            if mag.startswith("-"):
                sign, mag = "-", mag[1:]
            if e == 0:
                body = mag
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if mag == "1" else f"{mag}*{tpow}"
            if not out:
                out = body if sign == "+" else f"-{body}"
            else:
                out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.format()

    def to_json(self):
        return [[e, self.field.format(c)] for e, c in self.terms]


# ---------------------------------------------------------------------------
# fractional ideals


@dataclass(frozen=True)
class FractionalIdeal:
    """Canonical form of a nonzero fractional R-submodule of K((t)).

    Build instances through the factory functions in this module; the
    constructor does not re-canonicalize.
    """

    field: object
    semigroup: NumericalSemigroup
    tail: int
    rows: tuple

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(r.valuation for r in self.rows)

    @property
    def lo(self) -> int:
        return self.rows[0].valuation if self.rows else self.tail

    def __repr__(self):
        body = ", ".join(str(r) for r in self.rows)
        return f"Ideal[{body} | t^{self.tail}K[[t]] over {self.semigroup}]"

    def to_json(self):
        return {"lo": self.lo, "tail": self.tail,
                "basis": [r.to_json() for r in self.rows]}


def _check_pair(I: FractionalIdeal, J: FractionalIdeal):
    if I.field != J.field:
        raise FieldMismatch(f"{I.field!r} vs {J.field!r}")
    if I.semigroup != J.semigroup:
        raise FieldMismatch(f"ideals over {I.semigroup} vs {J.semigroup}")


def _pivot_rows(I: FractionalIdeal) -> dict:
    """I's rows keyed by pivot, each without its leading t^pivot term."""
    return {r.valuation: r.terms[1:] for r in I.rows}


def _remainder(F, pivot_rows: dict, tail: int, terms, scale=1) -> dict:
    """Remainder of the series with ``terms`` against the module with the
    given pivot-to-row map and tail, as {exponent: nonzero coefficient};
    empty iff the series lies in the module.

    The rows have pivot coefficient 1 and vanish at each other's pivots,
    so each monomial t^k below the tail has a closed-form remainder: t^k
    itself off the pivots, minus the rest of the pivot's row on a pivot.
    With the rests multiplied by ``scale``, the off-pivot monomials are
    too, and the remainder comes out multiplied by ``scale``.
    """
    w = {}
    for e, c in terms:
        if e >= tail:
            continue
        rest = pivot_rows.get(e)
        if rest is None:
            w[e] = w.get(e, 0) + c * scale
        else:
            for k, x in rest:
                w[k] = w.get(k, 0) - c * x
    if F.finite:
        p = F.p
        return {e: c % p for e, c in w.items() if c % p}
    return {e: c for e, c in w.items() if c}


def contains(I: FractionalIdeal, f: LaurentPoly) -> bool:
    if I.field != f.field:
        raise FieldMismatch(f"{I.field!r} vs {f.field!r}")
    return not _remainder(I.field, _pivot_rows(I), I.tail, f.terms)


def contains_ideal(I: FractionalIdeal, J: FractionalIdeal) -> bool:
    _check_pair(I, J)
    if any(not contains(I, r) for r in J.rows):
        return False
    return all(contains(I, LaurentPoly.monomial(I.field, j))
               for j in range(J.tail, I.tail))


def equals(I: FractionalIdeal, J: FractionalIdeal) -> bool:
    _check_pair(I, J)
    return I.tail == J.tail and I.rows == J.rows


def _canonical(field, H, polys, tail: int) -> FractionalIdeal:
    """Echelonize span(polys) + t^tail K[[t]] and minimize the tail.

    The input span must already be closed under the action of K[[H]]
    modulo the tail: every caller builds a module, and none is re-checked.
    """
    polys = [p.truncate(tail) for p in polys]
    polys = [p for p in polys if not p.is_zero()]
    lo0 = min((p.valuation for p in polys), default=tail)
    zero = field.zero
    mat = Matrix(field, tuple(tuple(d.get(e, zero) for e in range(lo0, tail))
                              for d in (dict(p.terms) for p in polys)), tail - lo0)
    red, piv = rref(mat)
    rows = [LaurentPoly(field, tuple((lo0 + i, c) for i, c in enumerate(row) if c))
            for row in red.rows[:len(piv)]]
    # a trailing row that is exactly t^(tail-1) belongs to the tail; in
    # echelon form the other rows have coefficient 0 at a pivot exponent
    while rows and rows[-1].valuation == tail - 1:
        rows.pop()
        tail -= 1
    return FractionalIdeal(field, H, tail, tuple(rows))


def _module_from(field, H, gens, tail: int) -> FractionalIdeal:
    """The R-module generated by the nonzero generators ``gens`` and t^tail K[[t]]."""
    vectors = []
    for g in gens:
        v = g.valuation
        for h in H.members(max(tail - v, 0)):
            vectors.append(g.shift(h))
    return _canonical(field, H, vectors, tail)


# -- named ideals -----------------------------------------------------------
#
# Each is spanned by distinct monomials below a minimal tail, so it is
# built in canonical form: c - 1 is a gap, and K.stable is minimal.


def _monomial_ideal(field, H, exps, tail: int) -> FractionalIdeal:
    """span(t^x : x in exps) + t^tail K[[t]], for increasing exponents below
    a minimal tail, whose span is a module: canonical as it stands."""
    one = field.one
    return FractionalIdeal(field, H, tail, tuple(LaurentPoly(field, ((x, one),)) for x in exps))


def unit_ideal(field, H) -> FractionalIdeal:
    """R itself: monomials t^h for the members below the conductor."""
    return _monomial_ideal(field, H, H.members(H.conductor), H.conductor)


def conductor_ideal(field, H) -> FractionalIdeal:
    """The conductor t^c K[[t]], the largest common ideal of R and K[[t]]."""
    return FractionalIdeal(field, H, H.conductor, ())


def integral_closure_ideal(field, H) -> FractionalIdeal:
    """K[[t]] as an R-module: empty basis with tail 0."""
    return FractionalIdeal(field, H, 0, ())


def maximal_ideal(field, H) -> FractionalIdeal:
    """m: monomials t^h for the nonzero members below the conductor (and
    t K[[t]] for N0)."""
    tail = max(H.conductor, 1)
    return _monomial_ideal(field, H, (h for h in H.members(tail) if h), tail)


def ideal_from_generators(field, H, gens, with_conductor: bool = False) -> FractionalIdeal:
    """The R-module generated by ``gens``, plus the conductor if flagged.

    Each generator g contributes t^(val(g) + c) K[[t]], so the stored tail
    is min over the generators (and c itself when the conductor is added).
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens and not with_conductor:
        raise ZeroIdeal("no nonzero generators and no conductor requested")
    c = H.conductor
    tails = [g.valuation + c for g in gens]
    if with_conductor:
        tails.append(c)
    return _module_from(field, H, gens, min(tails))


# -- arithmetic --------------------------------------------------------------


def add(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    _check_pair(I, J)
    return _canonical(I.field, I.semigroup, list(I.rows) + list(J.rows),
                      min(I.tail, J.tail))


def multiply(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    """Module product I*J: the span of the pairwise row products plus the tail.

    I's rows span I modulo its tail, and t^tail(I) K[[t]] * J is
    t^(tail(I) + lo(J)) K[[t]], so the products of the rows span I*J
    modulo the tail below and no generation by R is needed.
    """
    _check_pair(I, J)
    tail = min(I.tail + J.lo, J.tail + I.lo)
    products = [a.mul(b) for a in I.rows for b in J.rows]
    return _canonical(I.field, I.semigroup, products, tail)


def shift(I: FractionalIdeal, k: int) -> FractionalIdeal:
    """Multiplication by the monomial t^k; preserves canonical form."""
    return FractionalIdeal(I.field, I.semigroup, I.tail + k,
                           tuple(r.shift(k) for r in I.rows))


def dilate(I: FractionalIdeal, lam) -> FractionalIdeal:
    """The image of I under the automorphism t -> lam t of K((t)), for a
    nonzero field element lam; preserves canonical form.

    The automorphism maps R = K[[H]] and each t^N K[[t]] onto themselves,
    so the tail stays.  The row t^p + sum c_e t^e maps to lam^p times
    t^p + sum c_e lam^(e-p) t^e, which keeps its pivot, and a zero stays
    zero, so the rows still vanish at each other's pivots.
    """
    f = I.field
    lam = f.element(lam)
    if f.is_zero(lam):
        raise ValueError("dilation needs a nonzero scalar")
    powers = [f.one]
    for _ in range(I.tail - I.lo - 1):
        powers.append(f.mul(powers[-1], lam))
    return FractionalIdeal(f, I.semigroup, I.tail, tuple(
        LaurentPoly(f, tuple((e, f.mul(c, powers[e - r.valuation])) for e, c in r.terms))
        for r in I.rows))


def colon(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    """The colon module I : J = {alpha : alpha * J inside I}.

    When every row of I and of J is a monomial, I : J is the monomial
    ideal on the semigroup-ideal colon v(I) - v(J), over any field: I is
    spanned by monomials, so alpha t^j lies in I exactly when each term of
    alpha t^j does, and J is spanned by the t^j, j in v(J).  Otherwise it
    is solved from J's generators over R (:func:`_generators`), since I
    is an R-module.
    """
    _check_pair(I, J)
    if all(r.is_monomial() for r in I.rows + J.rows):
        E = value_set(I) - value_set(J)
        return _monomial_ideal(I.field, I.semigroup, E.elements(E.stable), E.stable)
    return _colon(I, [g.terms for g in _generators(J)], J.lo)


def _numerators(terms, s: int) -> tuple:
    """The rational ``terms`` times s, a common multiple of their
    denominators, as integers."""
    return tuple((e, a.numerator * (s // a.denominator)) for e, a in terms)


def _colon(I: FractionalIdeal, gens, m: int) -> FractionalIdeal:
    """I : J from ``gens``, the terms of generators of J over R that may
    leave out those of valuation tail(I) - lo(I) + m or more, where
    m = lo(J).  Any nonzero multiple of a generator serves as well, and
    over QQ its coefficients may be ints.

    Unknown coefficients of alpha live on [lo(I) - m, tail(I) - m);
    everything above is unconstrained because it lands in I's tail, as
    does alpha*g for the generators left out.  The rest give a homogeneous
    linear system in the unknowns: the coefficients of the remainders of
    t^x * g, one column per window exponent x, from I's pivot-to-row map
    built once per call.

    Over QQ the system is built on integers, and no ``Fraction`` is made
    before the RREF's output.  Each generator is multiplied by the lcm of
    its denominators, which scales its own equations.  The rows of I past
    their pivots are multiplied by D, the lcm of all their denominators,
    and ``_remainder`` multiplies the off-pivot monomials by D too, which
    scales every equation by D.  Neither scaling changes the null space.
    D = 1 for every monomial I, R and m among them.

    The null space comes back in RREF, so its vectors are I : J's echelon
    rows, and tail(I) - m is minimal: J has an element of valuation m and
    none of I has valuation tail(I) - 1, so t^(tail(I) - m - 1) is outside.
    """
    f = I.field
    tail, lo_min = I.tail - m, I.lo - m
    spanning = [g for g in gens if g[0][0] < I.tail - lo_min]
    pivot_rows = _pivot_rows(I)
    scale = 1
    if not f.finite:
        spanning = [_numerators(g, lcm(*(a.denominator for _, a in g))) for g in spanning]
        scale = lcm(*(a.denominator for rest in pivot_rows.values() for _, a in rest))
        pivot_rows = {e: _numerators(rest, scale) for e, rest in pivot_rows.items()}
    columns = [{(gi, e): c for gi, g in enumerate(spanning) for e, c in
                _remainder(f, pivot_rows, I.tail, [(k + x, a) for k, a in g], scale).items()}
               for x in range(lo_min, tail)]
    keys = sorted({k for col in columns for k in col})
    mat = Matrix(f, tuple(tuple(col.get(k, f.zero) for col in columns) for k in keys),
                 tail - lo_min)
    return FractionalIdeal(f, I.semigroup, tail, tuple(
        LaurentPoly(f, tuple((lo_min + i, c) for i, c in enumerate(vec) if c))
        for vec in solve_homogeneous(mat)))


def _generators(I: FractionalIdeal) -> list:
    """Elements generating I over R: its rows at the minimal generators of
    the value set v(I), and the tail monomials among those generators.

    Any f in I has v(f) = x + h for such a generator x and some h in H,
    so subtracting a multiple of t^h times the element at x raises the
    valuation; R is complete, so these elements generate I.
    """
    gens = value_set(I).generators
    rows = [r for r in I.rows if r.valuation in gens]
    return rows + [LaurentPoly.monomial(I.field, j) for j in gens if j >= I.tail]


def endomorphism_ring(I: FractionalIdeal) -> FractionalIdeal:
    """I : I, a ring between R and K[[t]]."""
    return colon(I, I)


def value_set(I: FractionalIdeal) -> SemigroupIdeal:
    """Valuations of the nonzero elements: the pivots plus [tail, oo).

    Already an H-ideal, since I is an R-module, with tail as its stable
    bound: a row of valuation tail - 1 would be t^(tail-1) itself, and the
    tail is minimal.
    """
    return SemigroupIdeal(I.semigroup, I.lo, I.tail, frozenset(I.pivots))


def canonical_fractional_ideal(field, H) -> tuple[FractionalIdeal, int]:
    """The monomial ideal with value set K(H), and its reduction exponent.

    Returns (W, n) where W is spanned by t^x for x in K(H) and n is the
    least exponent with W^(n+1) = W^n (n = 0 exactly in the symmetric
    case, where W = R).  W is a module by construction, because
    ``SemigroupIdeal.create`` has already checked K(H) + H inside K(H).
    W^j is the monomial ideal on the j-fold sumset jK and W^0 = R, so n
    is read off the sums H + jK, which grow inside [0, c) and stop
    within genus(H) steps.
    """
    K = canonical_value_set(H)
    W = _monomial_ideal(field, H, K.elements(K.stable), K.stable)
    power = value_set(unit_ideal(field, H))
    for n in range(H.genus + 1):
        power, prev = power + K, power
        if power == prev:
            break
    return W, n


def _powers(field, H, g: LaurentPoly) -> list:
    """The terms of 1 and of the powers of s x cut at t^c, up to the first
    that vanishes, where x = g - g(0), for g over ``field`` and integral
    over R (val >= 0).  With c they generate R[g] = R[x] over R, since a
    power of x of valuation c or more lies in c.

    Over QQ, s is the lcm of x's denominators, and R[s x] = R[x] for a
    nonzero scalar s, so every coefficient is an int; over F_p, s = 1 and
    the coefficients are residues.  The products run on native ints, with
    ``% p`` over F_p only.
    """
    if g.field != field:
        raise FieldMismatch(f"{field!r} vs {g.field!r}")
    if not g.is_zero() and g.valuation < 0:
        raise NotIntegral(f"{g} has negative valuation")
    x = [(e, a) for e, a in g.terms if e]
    p = field.p if field.finite else 0
    if not p:
        x = _numerators(x, lcm(*(a.denominator for _, a in x)))
    c = H.conductor
    powers = [((0, 1),)]
    while True:
        acc = {}
        for i, a in powers[-1]:
            # x's exponents increase, and every one is positive
            for j, b in x:
                if i + j >= c:
                    break
                acc[i + j] = acc.get(i + j, 0) + a * b
        if p:
            acc = {e: a % p for e, a in acc.items()}
        power = tuple(sorted((e, a) for e, a in acc.items() if a))
        if not power:
            return powers
        powers.append(power)


def adjoin(field, H, g: LaurentPoly) -> FractionalIdeal:
    """The ring R[g] as an R-module, generated by :func:`_powers` and c."""
    gens = [LaurentPoly(field, tuple((e, field.element(a)) for e, a in terms))
            for terms in _powers(field, H, g)]
    return ideal_from_generators(field, H, gens, with_conductor=True)


def minimal_generator_count(I: FractionalIdeal) -> int:
    """dim_K I / mI, the size of a minimal generating set of I over R."""
    mI = multiply(maximal_ideal(I.field, I.semigroup), I)
    return len(I.rows) + (mI.tail - I.tail) - len(mI.rows)
