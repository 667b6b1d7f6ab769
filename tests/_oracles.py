"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own algorithms:
membership comes from worklist closure instead of the sieve, semigroup
counts from exhaustive gap-set filtering, colons from exhaustive
coefficient search, Arf from the triple rule instead of the Lipman
chain, submodule lattices from a sweep of every cyclic module closed
under pairwise sums instead of the cover search, traces from the
fractional-ideal colon and product instead of the window kernel,
ring adjunctions R[g] from powers of R + Rg instead of the closed form,
row reduction through the field's own operations on every cell instead
of native operators on the pivot row's support, remainders from whole
polynomial subtractions instead of one pass over a dict, and products
of ideals from module generation instead of the span of row products.
"""

from itertools import combinations, product

from traceforge.errors import NotIntegral
from traceforge.fields import GF, Matrix, rref
from traceforge.ideals import (LaurentPoly, _module_from, colon, contains,
                               equals, from_window_vectors,
                               ideal_from_generators, multiply, unit_ideal)


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
    return from_window_vectors(f, I.semigroup, sols, tail)


def trace_by_colon(I):
    """tr(I) = (R : I) * I, straight from the definition.

    The colon and the module product are taken on fractional ideals, so
    nothing assumes that the trace contains the conductor.
    """
    R = unit_ideal(I.field, I.semigroup)
    return multiply(colon(R, I), I)


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
        red, piv = rref(Matrix(f, tuple(vectors)))
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


def rref_by_field_ops(m):
    """Reduced row echelon form of ``m`` and its pivot columns.

    The generic loop: every cell of every updated row goes through the
    field's ``sub`` and ``mul``, zeros included.  The pivot in each column
    is the first row with a nonzero entry.
    """
    f = m.field
    rows = [list(r) for r in m.rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
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
    return Matrix(f, tuple(tuple(row) for row in rows)), tuple(pivots)


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
