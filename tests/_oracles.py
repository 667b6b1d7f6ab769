"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own algorithms:
membership comes from worklist closure instead of the sieve, semigroup
counts from exhaustive gap-set filtering, the semigroup generated by H
and K(H) from every element of K(H) below 2c instead of both sets'
generators, the Arf closure from the triple rule x + y - z repeated to
a fixed point instead of the Lipman chain's multiplicities, the genus
tree's children from their member sets instead of the parent's table,
colons from exhaustive coefficient search and from a
reduction of every shifted spanning element, the colon's system on
J's generators in the field's elements (``Fraction`` rows over QQ)
instead of on integer rows, the powers of g - g(0) from products of
Laurent polynomials instead of native integers, Arf from the triple rule
instead of the Lipman chain, submodule lattices from a sweep of every
cyclic module closed under pairwise sums and from a layer-by-layer
cover search with a dict per layer instead of the reverse search, traces from the window kernel on K^c = K[t]/(t^c), one coordinate per
exponent below c, instead of the fractional-ideal colon and product
(``trace_by_colon`` takes that definition as ``trace`` does, and stays
the reference of the window tests; the library itself works only in R/c,
on the members below c), ring adjunctions R[g] from powers of R + Rg
instead of the closed form, the maximal ideal from the R-module generated
by H's minimal generators instead of the members below c, row reduction
through the field's own operations on every cell instead of native
operators on the pivot row's support, null spaces one vector per free
column through the field's negation instead of in RREF from the
column-reversed system, remainders from whole polynomial subtractions instead of the
closed-form remainders of the monomials, products of ideals from module
generation instead of the span of row products, products in an Artinian
algebra from every pair of nonzero entries through the field's operations
instead of native combinations of the table's column images, the
generators of m/m^2 from a growing span per basis element instead of the
last nonzero entries of one elimination of m^2, Artinian Hom
traces and socles from the ideal generated by the images or the null space
instead of their span, Hom(I, A) solved on every basis element instead of
on the generators of m/m^2, the Artinian trace ideals from hom_trace on
every ideal instead of Hom(I, A) carried down the lattice walk, module closure of a fractional ideal from every
generator shift of every row instead of trusting the construction, the trace
fixed-point test from the rank of the whole tr(T)/c instead of the gap
part of R : T with an early exit, and from the products of every basis
vector of that gap part with every row instead of a value-set test that
rules most modules out first, coordinates in an Artinian ideal
from row-by-row elimination through the field's operations instead of
reading them at the pivots, and the state of a lattice module (its
reduced action images, its socle lines and the RREF basis of the gap
part of R : T) from scratch instead of carried down the walk one row at
a time, and the walk's socle elimination redone over every free column
at each module instead of carried down from the parent, and the walk's
vectors as tuples, one list comprehension per row update, instead of one
packed int each, and the walk step's gap part of R : T over F_2 as
tuples, one dot product per basis vector and equation, instead of one
int per basis vector and the parity of shared bits, and the reduction
exponent of the canonical ideal from the products W^j instead of the
sumsets of K(H), and the probe's colons R : R[t^n + k t^(n+1)] one per
sample instead of one colon dilated by t -> kt, and the finite-type tag
of cm_type_list_check from a literal list of generator tuples instead of
``FINITE_TYPE_TAGS``, and the trace ideals of R/c from a walk that tests
every module instead of one module per torus orbit, and that walk's
torus cut from v's image under every lam of the parent's stabilizer
instead of one scan of v down the chain of stabilizers, and symmetry
from the reflection x -> F - x of every x below c instead of 2g = c.
"""

from bisect import bisect
from itertools import combinations, product
from math import gcd
from operator import mul

from traceforge.artin import (SubIdeal, _ideal_lattice, _in_span, _span, enumerate_ideals,
                              hom_trace, ideal_generated_by)
from traceforge.errors import NotIntegral
from traceforge.fields import GF, QQ, Matrix, rref, solve_homogeneous
from traceforge.ideals import (FractionalIdeal, LaurentPoly, _canonical, _check_pair,
                               _module_from, _pivot_rows, _remainder,
                               canonical_fractional_ideal, colon, contains, equals,
                               ideal_from_generators, multiply, shift, unit_ideal)
from traceforge.semigroups import (NumericalSemigroup, _semigroup_with_value_set,
                                   canonical_value_set)
from traceforge.trace import FamilyProbeReport, _gap_fixed_point, _overring_trace, _quotient


def closure_members(gens, bound):
    """Members of <gens> in [0, bound], by worklist closure from 0."""
    members = {0}
    frontier = [0]
    while frontier:
        n = frontier.pop()
        for g in gens:
            m = n + g
            if m <= bound and m not in members:
                members.add(m)
                frontier.append(m)
    return members


def apery_by_scan(members_sorted, e):
    """Least member in each residue class mod e, from a sorted member list."""
    out = {}
    for m in members_sorted:
        r = m % e
        if r not in out:
            out[r] = m
        if len(out) == e:
            break
    return tuple(sorted(out.values()))


def gap_sets_for_genus(genus):
    """All gap sets of numerical semigroups with exactly ``genus`` gaps.

    A set S of g positive integers is a gap set iff its complement is
    closed under addition; the Frobenius number is < 2*genus, so it
    suffices to search subsets of [1, 2*genus - 1].
    """
    if genus == 0:
        return [frozenset()]
    universe = range(1, 2 * genus)
    out = []
    for cand in combinations(universe, genus):
        s = set(cand)
        hi = max(s)
        complement = [n for n in range(1, hi + 1) if n not in s]
        ok = True
        for i, a in enumerate(complement):
            for b in complement[i:]:
                if a + b <= hi and (a + b) in s:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(s))
    return out


def semigroup_with_value_set_by_window(H):
    """The semigroup generated by H and K(H), for H other than N0, from
    every nonzero element of K(H) below twice the conductor."""
    K = canonical_value_set(H)
    return NumericalSemigroup.from_generators([x for x in K.elements(2 * H.conductor) if x > 0])


def is_arf_by_rule(H):
    """x + y - z in H for all members x >= y >= z up to twice the conductor."""
    bound = 2 * H.conductor + 1
    mem = list(H.members(bound))
    for xi, x in enumerate(mem):
        for yi in range(xi + 1):
            y = mem[yi]
            for zi in range(yi + 1):
                if (x + y - mem[zi]) not in H:
                    return False
    return True


def is_symmetric_by_reflection(H):
    """Gap-reflection test: x in H iff F - x not in H (Gorenstein)."""
    F = H.frobenius
    return all((x in H) != (F - x in H) for x in range(H.conductor))


def cm_type_list_check_by_rule(K):
    """The tag of the semigroup generated by H = K.base and K = K(H) in the
    finite list, or None, from a literal list of generator tuples."""
    gens = _semigroup_with_value_set(K).minimal_generators
    if gens == (1,):
        return "<1>"
    if len(gens) == 2 and gens[0] == 2 and gens[1] % 2 == 1:
        return "<2,2s-1>"
    if gens in ((3, 4), (3, 5), (3, 5, 7), (3, 4, 5)):
        return f"<{','.join(map(str, gens))}>"
    return None


def semigroup_from_member_set(members, bound):
    """The semigroup whose members in [0, bound) are ``members``; [bound, oo)
    is in it."""
    table = bytearray(bound)
    for n in members:
        table[n] = 1
    return NumericalSemigroup(table.rstrip(b"\x01"))


def arf_closure_by_rule(H):
    """The smallest Arf semigroup containing H.

    Fixed point of the rule x + y - z for members x >= y >= z.  Only
    triples below the conductor can produce anything new (the result is
    at least x), so the closure runs on the finite window [0, c).
    """
    c = H.conductor
    members = set(H.members(c))
    changed = True
    while changed:
        changed = False
        snapshot = sorted(members)
        for xi, x in enumerate(snapshot):
            for yi in range(xi + 1):
                y = snapshot[yi]
                for zi in range(yi + 1):
                    r = x + y - snapshot[zi]
                    if r < c and r not in members:
                        members.add(r)
                        changed = True
    return semigroup_from_member_set(members, c)


def children_by_member_sets(H):
    """H minus each minimal generator above the Frobenius number, each
    rebuilt from its member set below g + 1."""
    out = []
    for g in H.minimal_generators:
        if g > H.frobenius:
            members = {n for n in H.members(g + 1) if n != g}
            out.append(semigroup_from_member_set(members, g + 1))
    return out


def colon_by_search(I, J):
    """Exhaustive colon over F_2: try every coefficient vector in the window.

    alpha lives on [lo(I) - lo(J), tail(I) - lo(J)); spanning elements of
    J are its rows plus the tail monomials that can reach below tail(I).
    """
    f = I.field
    assert f == GF(2)
    m = J.lo
    tail = I.tail - m
    lo = I.lo - m
    width = tail - lo
    assert width <= 14, "oracle window too wide"
    spanning = list(J.rows) + [LaurentPoly.monomial(f, j)
                               for j in range(J.tail, I.tail - lo)]
    sols = []
    for bits in range(1, 2 ** width):
        alpha = LaurentPoly.from_dict(
            f, {lo + i: (bits >> i) & 1 for i in range(width)})
        if all(contains(I, alpha.mul(g)) for g in spanning):
            sols.append(alpha)
    return _canonical(f, I.semigroup, sols, tail)


def closed_under(I: FractionalIdeal, H: NumericalSemigroup) -> bool:
    """Whether the stored set is a module over K[[H]] (t^g * I inside I)."""
    probe = FractionalIdeal(I.field, H, I.tail, I.rows)
    return all(contains(probe, r.shift(g))
               for r in I.rows for g in H.minimal_generators)


def trace_by_colon(I):
    """tr(I) = (R : I) * I, straight from the definition.

    The colon and the module product are taken on fractional ideals, so
    nothing assumes that the trace contains the conductor.
    """
    R = unit_ideal(I.field, I.semigroup)
    return multiply(colon(R, I), I)


def colon_by_reduction(I, J):
    """The colon module I : J = {alpha : alpha * J inside I}.

    Unknown coefficients of alpha live on [lo(I) - lo(J), tail(I) - lo(J));
    everything above is unconstrained because it lands in I's tail.  The
    membership conditions alpha*g in I, for g running over J's rows and
    the finitely many tail monomials that can reach below tail(I), give a
    homogeneous linear system; each t^x * g is reduced against I's rows
    by :func:`reduce_by_poly_ops`.
    """
    _check_pair(I, J)
    f, H = I.field, I.semigroup
    m = J.lo
    tail = I.tail - m
    lo_min = I.lo - m
    window = range(lo_min, tail)
    spanning = list(J.rows)
    spanning += [LaurentPoly.monomial(f, j) for j in range(J.tail, I.tail - lo_min)]
    if not window:
        return _canonical(f, H, [], tail)
    columns = []
    for x in window:
        col = {}
        for gi, g in enumerate(spanning):
            res = reduce_by_poly_ops(I, g.shift(x))
            for e, cf in res.terms:
                col[(gi, e)] = cf
        columns.append(col)
    keys = sorted({k for col in columns for k in col})
    if not keys:
        sols = [LaurentPoly.monomial(f, x) for x in window]
        return _canonical(f, H, sols, tail)
    mat = Matrix(f, tuple(
        tuple(col.get(k, f.zero) for col in columns) for k in keys), len(window))
    sols = [LaurentPoly(f, tuple((lo_min + i, c) for i, c in enumerate(vec) if c))
            for vec in solve_homogeneous(mat)]
    return _canonical(f, H, sols, tail)


def colon_by_fraction_rows(I: FractionalIdeal, gens, m: int) -> FractionalIdeal:
    """I : J from ``gens``, generators of J over R that may leave out
    those of valuation tail(I) - lo(I) + m or more, where m = lo(J).

    Unknown coefficients of alpha live on [lo(I) - m, tail(I) - m);
    everything above is unconstrained because it lands in I's tail, as
    does alpha*g for the generators left out.  The rest give a homogeneous
    linear system in the unknowns: the coefficients of the remainders of
    t^x * g, one column per window exponent x, from I's pivot-to-row map
    built once per call.

    The null space comes back in RREF, so its vectors are I : J's echelon
    rows, and tail(I) - m is minimal: J has an element of valuation m and
    none of I has valuation tail(I) - 1, so t^(tail(I) - m - 1) is outside.
    """
    f = I.field
    tail, lo_min = I.tail - m, I.lo - m
    spanning = [g.terms for g in gens if g.valuation < I.tail - lo_min]
    pivot_rows = _pivot_rows(I)
    columns = [{(gi, e): c for gi, g in enumerate(spanning) for e, c in
                _remainder(f, pivot_rows, I.tail, [(k + x, a) for k, a in g]).items()}
               for x in range(lo_min, tail)]
    keys = sorted({k for col in columns for k in col})
    mat = Matrix(f, tuple(tuple(col.get(k, f.zero) for col in columns) for k in keys),
                 tail - lo_min)
    return FractionalIdeal(f, I.semigroup, tail, tuple(
        LaurentPoly(f, tuple((lo_min + i, c) for i, c in enumerate(vec) if c))
        for vec in solve_homogeneous(mat)))


def powers_by_poly_ops(field, H, g: LaurentPoly) -> list:
    """1 and the powers of x = g - g(0) cut at t^c, up to the first that
    vanishes, for g integral over R (val >= 0): with c they generate
    R[g] = R[x] over R, since a power of x of valuation c or more lies in c.
    """
    if not g.is_zero() and g.valuation < 0:
        raise NotIntegral(f"{g} has negative valuation")
    gens = [LaurentPoly.monomial(field, 0)]
    x = LaurentPoly(g.field, tuple((e, a) for e, a in g.terms if e))
    while not (power := gens[-1].mul(x).truncate(H.conductor)).is_zero():
        gens.append(power)
    return gens


def _window_vector(f, c: int, coeffs: dict) -> tuple:
    """The vector of K^c with the given {exponent: coefficient} entries."""
    return tuple(coeffs.get(j, f.zero) for j in range(c))


def _window_basis(I) -> list[tuple]:
    """I/c as vectors of K^c, for an ideal with c inside I inside K[[t]]."""
    f, c = I.field, I.semigroup.conductor
    return ([_window_vector(f, c, dict(r.terms)) for r in I.rows]
            + [_window_vector(f, c, {k: f.one}) for k in range(I.tail, c)])


def _from_window(f, H: NumericalSemigroup, vectors):
    """The ideal span(vectors) + c, for vectors of K^c spanning a module by
    construction (a lattice member): closure is not re-checked."""
    polys = [LaurentPoly.from_dict(f, dict(enumerate(v))) for v in vectors]
    return _canonical(f, H, polys, H.conductor)


def _window_product(f, a: tuple, b: tuple) -> tuple:
    """a*b cut at t^c, for vectors a, b of K^c."""
    c = len(a)
    out = [f.zero] * c
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                if i + j >= c:
                    break
                out[i + j] += x * y
    return tuple(v % f.p for v in out) if f.finite else tuple(out)


def _trace_window(f, H: NumericalSemigroup, basis) -> tuple:
    """An echelon basis of tr(T)/c for T = span(basis) + c, basis in K^c.

    Coordinate j is the coefficient of t^j.  R : T lies between c and
    K[[t]], so modulo c it is the null space of alpha -> the gap
    coefficients of alpha*b over the basis vectors b; tr(T) contains c,
    and modulo c it is spanned by the products alpha*b cut at t^c.
    """
    c = H.conductor
    zero = f.zero
    rows = [tuple(b[g - j] if j <= g else zero for j in range(c))
            for b in basis for g in H.gaps()]
    rows = [r for r in rows if any(r)]
    colon_basis = solve_homogeneous(Matrix(f, tuple(rows), c))
    products = tuple(_window_product(f, a, b) for a in colon_basis for b in basis)
    red, pivots = rref(Matrix(f, products, c))
    return red.rows[:len(pivots)]


def trace_by_window(I):
    """tr(I) = (R : I) * I, an ideal of R containing c (and I if integral).

    tr is unchanged by monomial scaling, and I moved to valuation 0
    holds a unit u of K[[t]], so it contains u*c = c and is read exactly
    modulo c.
    """
    f, H = I.field, I.semigroup
    return _from_window(f, H, _trace_window(f, H, _window_basis(shift(I, -I.lo))))


def maximal_ideal_by_generation(field, H):
    """m as the R-module generated by t^g for the minimal generators g,
    with tail c + e, canonicalized from every shift of the generators."""
    rows = [LaurentPoly.monomial(field, g) for g in H.minimal_generators]
    return _module_from(field, H, rows, H.conductor + H.multiplicity)


def adjoin_by_iteration(field, H, g):
    """The ring R[g] as an R-module, for g integral over R (val >= 0).

    Computed as the stabilization of (R + Rg)^k; the chain is trapped
    between R and K[[t]], so it stabilizes within conductor many steps.
    """
    if g.is_zero():
        return unit_ideal(field, H)
    if g.valuation < 0:
        raise NotIntegral(f"{g} has negative valuation")
    J = ideal_from_generators(field, H, [LaurentPoly.monomial(field, 0), g])
    M = J
    steps = 0
    while True:
        nxt = multiply(M, J)
        steps += 1
        if steps > H.conductor + 2:
            raise AssertionError("ring adjunction failed to stabilize")
        if equals(nxt, M):
            break
        M = nxt
    assert equals(multiply(M, M), M), "adjoined module is not multiplicatively closed"
    return M


def family_probe_by_colons(H, n, samples):
    """``family_probe``'s report for valid input, and its colons, with one
    colon R : R[t^n + k t^(n+1)] per sample k."""
    samples = tuple(QQ.element(s) for s in samples)
    R = unit_ideal(QQ, H)
    colons = []
    for k in samples:
        colons.append(_overring_trace(R, LaurentPoly.from_dict(QQ, {n: QQ.one, n + 1: k})))
    distinct = len({(T.tail, T.rows) for T in colons})
    witness = len(samples) >= 2 and distinct == len(samples)
    report = FamilyProbeReport(
        semigroup=H.text,
        exponent=n,
        template=f"t^{n} + k*t^{n + 1}",
        samples=samples,
        distinct_results=distinct,
        verdict="infinite-family-witness" if witness else "no-separation",
    )
    return report, colons


def reduction_exponent_by_products(field, H):
    """The least n with W^(n+1) = W^n for the canonical ideal W, from the
    products of fractional ideals."""
    W, _ = canonical_fractional_ideal(field, H)
    prev = unit_ideal(field, H)
    cur = W
    n = 0
    while not equals(cur, prev):
        prev = cur
        cur = multiply(cur, W)
        n += 1
        if n > H.conductor + 2:
            raise AssertionError("powers of the canonical ideal failed to stabilize")
    return n


def lattice_by_closure(p, d, multipliers):
    """Every subspace of F_p^d stable under ``multipliers``, by brute force.

    ``multipliers`` are linear maps given by column images (``m[j]`` is
    the image of the j-th unit vector) that span the acting ring, the
    identity included, so the cyclic module of v is the span of the m v.
    Every submodule is a sum of cyclic ones: sweep the cyclic module of
    one vector per line of F_p^d, then close under pairwise sums.  Sorted
    by dimension, then by rows.
    """
    f = GF(p)

    def span(vectors):
        red, piv = rref(Matrix(f, tuple(vectors), d))
        return tuple(red.rows[i] for i in range(len(piv)))

    def cyclic(v):
        return span([tuple(sum(m[j][i] * v[j] for j in range(d)) % p for i in range(d))
                     for m in multipliers])

    modules = {()}
    for lead in range(d):
        for rest in product(range(p), repeat=d - lead - 1):
            modules.add(cyclic((0,) * lead + (1,) + rest))
    queue = list(modules)
    while queue:
        a = queue.pop()
        for b in list(modules):
            if not a or not b:
                continue
            s = span(a + b)
            if s not in modules:
                modules.add(s)
                queue.append(s)
    return sorted(modules, key=lambda m: (len(m), m))


def lattice_by_covers(p, d, actions):
    """Every subspace of F_p^d stable under ``actions``, as pairs of RREF
    row tuples and their pivot columns.

    ``actions`` are linear maps on F_p^d, each given by its column images
    (``a[j]`` is the image of the j-th unit vector); they must generate
    the maximal ideal of a local ring with residue field F_p.  A nonzero
    submodule S covers a maximal submodule M with S/M simple, hence one
    dimensional, so S = M + F_p v with v in the socle of the quotient by
    M.  The search therefore starts at 0 and, layer by layer, adds each
    socle line to each module, and a dict per layer drops the copies
    made along every cover edge.  The result is sorted by dimension,
    then by rows.  The library walks a tree of canonical parents instead.
    """
    layer = {(): ()}  # RREF rows -> pivot columns
    lattice = []
    while layer:
        lattice += sorted(layer.items())
        covers = {}
        for rows, pivots in layer.items():
            for v in _socle_lines(p, d, actions, rows, pivots):
                lead = next(i for i, x in enumerate(v) if x)
                new = [r if not r[lead] else
                       tuple((a - r[lead] * b) % p for a, b in zip(r, v))
                       for r in rows]
                at = bisect(pivots, lead)
                new.insert(at, v)
                key = tuple(new)
                if key not in covers:
                    covers[key] = pivots[:at] + (lead,) + pivots[at:]
        layer = covers
    return lattice


def _socle_lines(p, d, actions, rows, pivots):
    """One normalized vector per line of N/M, N = {v : a v in M for all a}.

    M is the span of the RREF ``rows``.  The unit vectors e_j off the
    pivot columns represent a basis of V/M, so N/M is the kernel of the
    map sending such e_j to the reductions modulo M of every a e_j; it is
    found by eliminating those images while tracking e_j.  Each returned
    vector is zero on ``pivots`` and has leading entry 1.
    """
    free = [j for j in range(d) if j not in pivots]
    reducers = list(zip(pivots, rows))
    echelon = []  # (pivot, image, tag) with image[pivot] == 1
    kernel = []
    for j in free:
        image = []
        for a in actions:
            w = a[j]
            for c, r in reducers:
                x = w[c]
                if x:
                    w = [(s - x * t) % p for s, t in zip(w, r)]
            image += [w[i] for i in free]
        tag = [0] * d
        tag[j] = 1
        for c, u, t in echelon:
            x = image[c]
            if x:
                image = [(s - x * y) % p for s, y in zip(image, u)]
                tag = [(s - x * y) % p for s, y in zip(tag, t)]
        lead = next((i for i, x in enumerate(image) if x), None)
        if lead is None:
            kernel.append(tag)
            continue
        inv = pow(image[lead], -1, p)
        echelon.append((lead, [x * inv % p for x in image], [x * inv % p for x in tag]))
    for i, first in enumerate(kernel):
        rest = kernel[i + 1:]
        for coeffs in product(range(p), repeat=len(rest)):
            v = first
            for k, r in zip(coeffs, rest):
                if k:
                    v = [(s + k * t) % p for s, t in zip(v, r)]
            inv = pow(next(x for x in v if x), -1, p)
            yield tuple(x * inv % p for x in v)


def images_by_reduction(p, d, actions, rows, pivots):
    """Every a e_j reduced modulo the span of the RREF ``rows`` from
    scratch, listed over the actions for each column j off the pivots
    (None on them), as tuples: the reduction the library carries down
    its walk one row at a time."""
    reducers = list(zip(pivots, rows))
    images = []
    for j in range(d):
        if j in pivots:
            images.append(None)
            continue
        ws = []
        for a in actions:
            w = a[j]
            for c, r in reducers:
                x = w[c]
                if x:
                    w = [(s - x * t) % p for s, t in zip(w, r)]
            ws.append(tuple(w))
        images.append(ws)
    return images


def socle_lines_by_reduction(p: int, d: int, actions, rows, pivots):
    """One vector per line of N/M that leads before M's first pivot, with
    N = {v : a v in M for all a}, as pairs (lead, v) with v[lead] = 1.

    M is the span of the RREF ``rows``.  The unit vectors e_j off the
    pivot columns represent a basis of V/M, so N/M is the kernel of the
    map sending such e_j to the reductions modulo M of every a e_j; it is
    found by eliminating those images from the last e_j down while
    tracking e_j, so each kernel vector is 1 at its own j, zero before it
    and zero on ``pivots``.  The library reduces no image here: its walk
    hands over the images already reduced modulo M.
    """
    first = pivots[0] if pivots else d
    free = [j for j in range(d) if j not in pivots]
    reducers = list(zip(pivots, rows))
    echelon = []  # (pivot, image, tag) with image[pivot] == 1
    kernel = []  # (j, tag), j falling
    for j in reversed(free):
        image = []
        for a in actions:
            w = a[j]
            for c, r in reducers:
                x = w[c]
                if x:
                    w = [(s - x * t) % p for s, t in zip(w, r)]
            image += [w[i] for i in free]
        tag = [0] * d
        tag[j] = 1
        for c, u, t in echelon:
            x = image[c]
            if x:
                image = [(s - x * y) % p for s, y in zip(image, u)]
                tag = [(s - x * y) % p for s, y in zip(tag, t)]
        lead = next((i for i, x in enumerate(image) if x), None)
        if lead is None:
            kernel.append((j, tag))
            continue
        inv = pow(image[lead], -1, p)
        echelon.append((lead, [x * inv % p for x in image], [x * inv % p for x in tag]))
    for i, (j, top) in enumerate(kernel):
        if j >= first:
            continue
        rest = [t for _, t in kernel[:i]]  # the kernel vectors after j
        for coeffs in product(range(p), repeat=len(rest)):
            v = top
            for k, r in zip(coeffs, rest):
                if k:
                    v = [(s + k * t) % p for s, t in zip(v, r)]
            yield j, tuple(v)


def lattice_by_fresh_elimination(p: int, d: int, actions, step=None, state=None):
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

    This is the former library engine, kept as the reference of the one
    that carries the socle elimination down the walk: every module
    reduces the images of all its free columns and eliminates them all.

    Each module carries down the tree what its children need, so a tree
    edge costs one row update: ``images[j]`` lists a e_j modulo M over the
    actions, for every column j off the pivots (None on them), and
    ``state`` starts as given and becomes ``step(state, rows, pivots)``
    along the edge from M to M + F_p v, called with the child's rows and
    pivots as they are about to be yielded, so ``rows[0]`` is v and
    ``rows[1:]``, ``pivots[1:]`` are M's.  A step that returns None cuts
    the child: it is not yielded and its subtree is not walked.  A
    child's state is made when it leaves the stack, before its images, so
    the stack holds one set of images per module on the path and a cut
    child costs no row update.
    """
    stack = [((), (), [[a[j] for a in actions] for j in range(d)], state)]
    while stack:
        rows, pivots, images, state = stack.pop()
        if rows:
            if step:
                state = step(state, rows, pivots)
                if state is None:
                    continue
            images = images_reduced_in_full(p, images, rows[0], pivots[0])
        yield rows, pivots, state
        stack += [((v,) + rows, (lead,) + pivots, images, state)
                  for lead, v in socle_lines_by_fresh_elimination(p, images, pivots)]


def images_reduced_in_full(p: int, images, v, lead: int) -> list:
    """The images modulo M + F_p v from those modulo M, for (v, *rows) in
    RREF: v is zero on M's pivots, so w - w[lead] v is reduced for both.
    Images that v leaves alone are shared with the parent, never copied."""
    return [None if ws is None or j == lead else
            [[(s - w[lead] * t) % p for s, t in zip(w, v)] if w[lead] else w for w in ws]
            for j, ws in enumerate(images)]


def socle_lines_by_fresh_elimination(p: int, images, pivots):
    """One vector per line of N/M that leads before M's first pivot, with
    N = {v : a v in M for all a}, as pairs (lead, v) with v[lead] = 1.

    M is the span of RREF rows with the given ``pivots``, and ``images[j]``
    lists every a e_j already reduced modulo M.  The unit vectors e_j off
    the pivot columns represent a basis of V/M, so N/M is the kernel of
    the map sending such e_j to those images; it is found by eliminating
    the images over the free columns from the last e_j down while
    tracking e_j, so each kernel vector is 1 at its own j, zero before it
    and zero on ``pivots``.
    """
    d = len(images)
    first = pivots[0] if pivots else d
    free = [j for j in range(d) if j not in pivots]
    echelon = []  # (pivot, image, tag) with image[pivot] == 1
    kernel = []  # (j, tag), j falling
    for j in reversed(free):
        image = [w[i] for w in images[j] for i in free]
        tag = [0] * d
        tag[j] = 1
        for c, u, t in echelon:
            x = image[c]
            if x:
                image = [(s - x * y) % p for s, y in zip(image, u)]
                tag = [(s - x * y) % p for s, y in zip(tag, t)]
        lead = next((i for i, x in enumerate(image) if x), None)
        if lead is None:
            kernel.append((j, tag))
            continue
        inv = pow(image[lead], -1, p)
        echelon.append((lead, [x * inv % p for x in image], [x * inv % p for x in tag]))
    for i, (j, top) in enumerate(kernel):
        if j >= first:
            continue
        rest = [t for _, t in kernel[:i]]  # the kernel vectors after j
        for coeffs in product(range(p), repeat=len(rest)):
            v = top
            for k, r in zip(coeffs, rest):
                if k:
                    v = [(s + k * t) % p for s, t in zip(v, r)]
            yield j, tuple(v)


def lattice_by_tuple_rows(p: int, d: int, actions, step=None, state=None):
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

    This is the library engine before its vectors were packed into ints:
    every row is a tuple of ints in [0, p) and every row update a list
    comprehension over its entries.

    Each module carries down the tree what its children need, so a tree
    edge costs one row update and each module eliminates only the columns
    before its first pivot: ``images[j]`` lists a e_j modulo M over the
    actions for those columns j, and the child gets the elimination of
    :func:`socle_lines_by_tuples` as it stood before the child's lead.  ``state``
    starts as given and becomes ``step(state, rows, pivots)`` along the
    edge from M to M + F_p v, called with the child's rows and pivots as
    they are about to be yielded, so ``rows[0]`` is v and ``rows[1:]``,
    ``pivots[1:]`` are M's.  A step that returns None cuts the child: it
    is not yielded and its subtree is not walked.  A child's state is
    made when it leaves the stack, before its images, so the stack holds
    one set of images per module on the path and a cut child costs no
    row update.
    """
    stack = [((), (), [[a[j] for a in actions] for j in range(d)], state, (), ())]
    while stack:
        rows, pivots, images, state, echelon, kernel = stack.pop()
        if rows:
            if step:
                state = step(state, rows, pivots)
                if state is None:
                    continue
            images = images_reduced_by_tuples(p, images, rows[0], pivots[0])
        yield rows, pivots, state
        stack += [((v,) + rows, (lead,) + pivots, images, state, *done)
                  for lead, v, done in socle_lines_by_tuples(p, d, images, echelon, kernel)]


def images_reduced_by_tuples(p: int, images, v, lead: int) -> list:
    """The images modulo M + F_p v of the columns before ``lead`` from
    those modulo M, for (v, *rows) in RREF: v is zero on M's pivots, so
    w - w[lead] v is reduced for both.  The child needs no other column,
    and an image beyond ``lead`` is zero at it, so v would leave it alone.
    Images that v leaves alone are shared with the parent, never copied."""
    return [[[(s - w[lead] * t) % p for s, t in zip(w, v)] if w[lead] else w for w in ws]
            for ws in images[:lead]]


def socle_lines_by_tuples(p: int, d: int, images, echelon, kernel):
    """One vector per line of N/M that leads before M's first pivot, with
    N = {v : a v in M for all a}, as triples (lead, v, done) with v[lead] = 1.

    M is the span of RREF rows, and ``images[j]`` lists every a e_j
    reduced modulo M for the columns j before M's first pivot, all free.
    The unit vectors e_j off the pivots represent a basis of V/M, so N/M
    is the kernel of the map sending such e_j to their images, each laid
    out as the actions' d coordinates end to end.  It is found by
    eliminating the images from the last e_j down while tracking e_j, so
    each kernel vector is 1 at its own j, zero before it and zero on the
    pivots.  M's parent eliminated the columns from M's first pivot l on
    and hands over ``echelon`` and ``kernel`` as they stood before l:
    each image beyond l is zero at l, so M's first row leaves it alone
    and would give them again.  ``done`` is that hand-over for v's child.
    """
    echelon = list(echelon)  # (pivot, image, tag) with image[pivot] == 1
    kernel = list(kernel)  # tags, j falling
    for j in reversed(range(len(images))):
        image = [x for w in images[j] for x in w]
        tag = [0] * d
        tag[j] = 1
        for c, u, t in echelon:
            x = image[c]
            if x:
                image = [(s - x * y) % p for s, y in zip(image, u)]
                tag = [(s - x * y) % p for s, y in zip(tag, t)]
        lead = next((i for i, x in enumerate(image) if x), None)
        if lead is not None:
            inv = pow(image[lead], -1, p)
            echelon.append((lead, [x * inv % p for x in image], [x * inv % p for x in tag]))
            continue
        done = tuple(echelon), tuple(kernel)  # kernel: the kernel vectors after j
        for coeffs in product(range(p), repeat=len(kernel)):
            v = tag
            for k, r in zip(coeffs, kernel):
                if k:
                    v = [(s + k * t) % p for s, t in zip(v, r)]
            yield j, tuple(v), done
        kernel.append(tag)


def gap_part_by_rref(q, rows):
    """The RREF basis of the gap part of R : T, for T = span(rows) + c on
    the quotient tables ``q``: ``solve_homogeneous`` of one ``rref`` of
    every row's gap equations, instead of the basis cut one row at a time
    along the walk."""
    f = q.field
    zero = f.zero
    n = len(q.spread)
    eqs = {}  # one equation per (row, gap g): the coefficient of t^g in gamma * row
    for r, b in enumerate(rows):
        for i, y in enumerate(b):
            if y:
                for g, j in q.reach[i]:
                    eqs.setdefault((r, g), [zero] * n)[j] = y
    red, _ = rref(Matrix(f, tuple(map(tuple, eqs.values())), n))
    return tuple(solve_homogeneous(red))


def gap_step_by_tuples(q, state, rows, pivots):
    """``_Quotient.step`` on the quotient tables ``q`` with G as tuples, one
    entry per gap, over every p: one dict of equations per new row and one
    dot product per basis vector and equation, instead of the bits that
    the library keeps over F_2.  Start it from the tuple unit vectors of
    the gaps."""
    G, g = state
    v, lead = rows[0], pivots[0]
    p, e = q.field.p, q.exps
    n = len(q.spread)
    eqs = {}
    for i, x in enumerate(v):
        if x:
            if g > 1 and i != lead:
                h = gcd(g, e[i] - e[lead])
                if any(x * r % p < x for r in q.roots[g // h]):
                    return None
                g = h
            if G:  # else gamma = 0 already: R : T = R
                for k, j in q.reach[i]:
                    eqs.setdefault(k, [0] * n)[j] = x
    for eq in eqs.values():
        vals = [sum(map(mul, gamma, eq)) % p for gamma in G]
        fail = [k for k, x in enumerate(vals) if x]
        if fail:
            last = fail[-1]
            drop, inv = G[last], pow(vals[last], -1, p)
            G = tuple(tuple((a - x * inv * b) % p for a, b in zip(gamma, drop)) if x else gamma
                      for gamma, x in zip(G, vals[:last])) + G[last + 1:]
    return G, g


def gap_fixed_point_by_products(q, rows, pivots, G) -> bool:
    """``trace._gap_fixed_point`` from the products alone, with no value-set
    test first: whether T = span(rows) + c is a trace ideal, for RREF
    ``rows`` over ``q.exps`` with the given pivot columns and ``G`` the
    RREF basis of the gap part of R : T.  tr(T) = T + G T, so T is a trace
    ideal exactly when gamma b lies in T for every basis vector gamma of G
    and every row b; the test stops at the first product outside T."""
    p = q.field.p
    d = len(q.exps)
    for gamma in G:
        # gamma spread onto R/c
        terms = [(i, k, x) for g, x in enumerate(gamma) if x for i, k in q.spread[g]]
        for b in rows:
            v = [0] * d
            for i, k, x in terms:
                y = b[i]
                if y:
                    v[k] += x * y
            if not _in_span(rows, pivots, v, p):
                return False
    return True


def trace_ideals_by_full_walk(H, p):
    """(census, rows) for the trace ideals of F_p[[H]]: the walk visits and
    tests every R-submodule of R/c, since ``_Quotient.step`` started from
    the trivial stabilizer mu_1 never cuts, and ``rows`` are the RREF rows
    over ``q.exps`` of each nonzero trace ideal, sorted by dimension."""
    d = H.conductor - H.genus
    q = _quotient(GF(p), H)
    fixed = []  # the stream starts at the zero module, so census is always set
    walk = _ideal_lattice(p, d, q.shifts, q.step, (q.gap_units, 1))
    for census, (rows, pivots, (G, _)) in enumerate(walk, 1):
        if _gap_fixed_point(q, rows, pivots, G):
            fixed.append(rows)
    return census, sorted(fixed, key=lambda rows: (len(rows), rows))


def orbit_step_by_images(q, state, rows, pivots):
    """``_Quotient.step`` on the quotient tables ``q`` from v's image under
    every lam != 1 of the parent's stabilizer mu_g, one ``pow`` per entry
    it reads, and the child's g from a second gcd pass over v's entries,
    instead of one scan of v down the chain of stabilizers; the gap part
    comes from ``step`` from mu_1, which reads only the gap equations."""
    G, g = state
    v, lead = rows[0], pivots[0]
    if g > 1:
        p, e = q.field.p, q.exps
        terms = [(e[i] - e[lead], x) for i, x in enumerate(v) if x and i != lead]
        for lam in q.roots[g]:
            # the first entry that lam moves decides the order
            for n, x in terms:
                y = x * pow(lam, n, p) % p
                if y != x:
                    if y < x:
                        return None
                    break
        g = gcd(g, *(n for n, _ in terms))
    return q.step((G, 1), rows, pivots)[0], g


def rref_by_field_ops(m):
    """Reduced row echelon form of ``m`` and its pivot columns.

    The generic loop: every cell of every updated row goes through the
    field's ``sub`` and ``mul``, zeros included.  The pivot in each column
    is the first row with a nonzero entry.
    """
    f = m.field
    rows = [list(r) for r in m.rows]
    nr = len(rows)
    nc = m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if not f.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        k = f.inv(rows[r][c])
        rows[r] = [f.mul(k, x) for x in rows[r]]
        for i in range(nr):
            if i != r and not f.is_zero(rows[i][c]):
                k = rows[i][c]
                rows[i] = [f.sub(x, f.mul(k, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(f, tuple(tuple(row) for row in rows), nc), tuple(pivots)


def nullspace_by_free_columns(m):
    """A basis of the null space {v : m v = 0}, one vector per free column.

    The basis vector for free column j has entry 1 there and the negated
    reduced column elsewhere, so dim = ncols - rank; with no rows the
    basis is the ncols unit vectors.
    """
    f = m.field
    red, pivots = rref(m)
    nc = m.ncols
    pivot_set = set(pivots)
    basis = []
    for j in range(nc):
        if j in pivot_set:
            continue
        v = [f.zero] * nc
        v[j] = f.one
        for r, p in enumerate(pivots):
            v[p] = f.neg(red.rows[r][j])
        basis.append(tuple(v))
    return basis


def reduce_by_poly_ops(I, f):
    """Remainder of f against I's rows and tail; zero iff f lies in I.

    Each row is subtracted as a whole polynomial after a linear scan for
    the coefficient at its pivot.
    """
    w = f.truncate(I.tail)
    for row in I.rows:
        c = w.coeff(row.valuation)
        if not I.field.is_zero(c):
            w = w.sub(row.scale(c))
    return w


def multiply_by_module_generation(I, J):
    """I*J as the R-module generated by the pairwise row products and the
    tail min(tail(I) + lo(J), tail(J) + lo(I)): every product is shifted
    by each member of H below the tail before echelonization."""
    tail = min(I.tail + J.lo, J.tail + I.lo)
    products = [a.mul(b) for a in I.rows for b in J.rows]
    return _module_from(I.field, I.semigroup, products, tail)


def mult_by_field_ops(A, u, v):
    """The product u * v in the ArtinAlgebra A, through the field's own
    operations: every pair of nonzero entries scales its table cell."""
    f = A.field
    out = [f.zero] * A.dim
    for i, ui in enumerate(u):
        if f.is_zero(ui):
            continue
        for j, vj in enumerate(v):
            if f.is_zero(vj):
                continue
            k = f.mul(ui, vj)
            for r, c in enumerate(A.table[i][j]):
                if not f.is_zero(c):
                    out[r] = f.add(out[r], f.mul(k, c))
    return tuple(out)


def generators_by_greedy_span(A):
    """The indices g >= 1 whose b_g give a basis of m/m^2, taken in
    index order: b_g is kept when it raises the rank over m^2 and the
    b_g kept before it."""
    span, kept = A.square, []
    for g in range(1, A.dim):
        grown = _span(A, span + (A.basis_vector(g),))
        if len(grown) > len(span):
            span = grown
            kept.append(g)
    return tuple(kept)


def hom_basis_by_generation(I):
    """A basis of Hom(I, A), solved as the linear maps commuting with
    every basis element, each as the flat tuple of its images of I's
    rows.  Products go through ``mult_by_field_ops``, not the algebra's
    own."""
    A = I.algebra
    f = A.field
    k = I.dim
    if k == 0:
        return []
    d = A.dim
    basis = list(I.rows)
    # unknowns w_{i,c} = image of basis[i], coordinate c
    eqs = []
    for g in range(1, d):
        for i in range(k):
            lam = I.coordinates(mult_by_field_ops(A, A.basis_vector(g), basis[i]))
            if lam is None:
                raise AssertionError("vector not inside the ideal")
            for r in range(d):
                row = [f.zero] * (k * d)
                for c in range(d):
                    coef = A.table[g][c][r]
                    if not f.is_zero(coef):
                        row[i * d + c] = f.add(row[i * d + c], coef)
                for j in range(k):
                    if not f.is_zero(lam[j]):
                        row[j * d + r] = f.sub(row[j * d + r], lam[j])
                eqs.append(tuple(row))
    return solve_homogeneous(Matrix(f, tuple(eqs), k * d))


def hom_trace_by_generation(I):
    """Sum of the images of all module homomorphisms from I to the algebra.

    Takes the basis of Hom(I, A) from ``hom_basis_by_generation``, then
    the ideal generated by the image vectors: every image is multiplied
    by every basis element before the span.
    """
    A = I.algebra
    f = A.field
    k = I.dim
    if k == 0:
        return SubIdeal(A, ())
    d = A.dim
    sols = hom_basis_by_generation(I)
    images = [tuple(sol[i * d:(i + 1) * d]) for sol in sols for i in range(k)]
    prods = [mult_by_field_ops(A, A.basis_vector(i), w) for w in images for i in range(d)]
    red, piv = rref(Matrix(f, tuple(prods), d))
    return SubIdeal(A, red.rows[:len(piv)])


def trace_ideals_by_hom_trace(A):
    """The trace ideals of A, zero included, as the ideals I of
    ``enumerate_ideals`` with hom_trace(I) == I: each ideal's Hom system
    is solved afresh instead of carried down the lattice walk."""
    return [I for I in enumerate_ideals(A) if hom_trace(I) == I]


def socle_by_generation(A):
    """The annihilator of the maximal ideal as the ideal generated by the
    null space of the multiplication-by-b_g matrices, g >= 1: every
    solution is multiplied by every basis element before the span."""
    rows = []
    for g in range(1, A.dim):
        # rows of the multiplication-by-b_g matrix
        for r in range(A.dim):
            rows.append(tuple(A.table[g][c][r] for c in range(A.dim)))
    sol = solve_homogeneous(Matrix(A.field, tuple(rows), A.dim))
    return ideal_generated_by(A, sol)


def is_trace_by_rank(f, H, basis):
    """Whether T = span(basis) + c is a trace ideal, for an R-module T
    with c inside T inside R and a basis of T/c in K^c.

    T lies inside tr(T), so T is a trace ideal exactly when the echelon
    basis of the whole tr(T)/c is no longer than the basis of T/c.
    """
    return len(_trace_window(f, H, basis)) == len(basis)


def coordinates_by_elimination(I, v):
    """Coordinates of v in the echelon basis of the SubIdeal I, or None
    when v is outside.

    Eliminates row by row through the field's own operations: each row's
    leading entry is found by a scan, its coordinate is read off the
    running remainder, and the whole row is subtracted.
    """
    f = I.algebra.field
    w = list(v)
    out = []
    for row in I.rows:
        lead = next(i for i, x in enumerate(row) if not f.is_zero(x))
        c = w[lead]
        out.append(c)
        if not f.is_zero(c):
            w = [f.sub(a, f.mul(c, b)) for a, b in zip(w, row)]
    return out if all(f.is_zero(x) for x in w) else None
