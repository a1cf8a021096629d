"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own algorithms:
spectral radii come from numpy's eigenvalue solver, strongly connected
components from numpy boolean reachability matrices, and a radius's place
relative to an integer from sympy's count of real characteristic roots,
hom dimensions from a commuting-square system written out here and
ranked by sympy, hom bases
from sympy's nullspace of that system, isomorphism from those hom
dimensions (a mismatch proves "no") and from sympy determinants of basis
elements and seeded random combinations (a nonzero one at every vertex
proves "yes"), direct sums from plain block matrices, Ext^1 from
the Auslander-Reiten formula with tau built by reflection functors,
dimensions and maximal brick sets from enumerating every subset of the
candidates rather than searching cliques, and the twisted tensor of a
coproduct from sympy's Kronecker products, column spaces and solves.
``is_canonical`` states the library's entry format without calling it.
"""

import graphlib
import itertools
import random
from fractions import Fraction

import numpy as np
import sympy

from fpq.errors import WrongQuiverError
from fpq.quiver import Quiver, Representation, dim_ext1, hom_dim, \
    tensor_vertexwise
from fpq.typea import all_intervals, interval_rep


def is_canonical(v):
    """Whether v is a canonical entry: an int (not a bool), or a Fraction
    that is not integral."""
    return type(v) is int or type(v) is Fraction and v.denominator > 1


def mat_mul(a, b):
    """Dense product a @ b of matrices given as lists of rows, each entry
    a plain sum of products; inner dimensions must agree (0 is fine)."""
    inner, width = len(b), len(b[0]) if b else 0
    if any(len(row) != inner for row in a):
        raise ValueError(f"matrix product shape mismatch: {len(a[0])} vs {inner}")
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(width)]
        for row in a
    ]


def numpy_radius(a):
    """Spectral radius via numpy's eigenvalue solver."""
    if not a or not a[0]:
        return 0.0
    return float(max(abs(np.linalg.eigvals(np.array(a, dtype=float)))))


def numpy_components(succ, n):
    """(strongly connected components as ascending lists, sorted, and the
    boolean reachability matrix, reflexive) of the digraph on 0..n-1 with
    successor lists succ: the closure by squaring I + A until it is fixed,
    and i, j in one component when each reaches the other."""
    reach = np.eye(n, dtype=bool)
    for i, js in enumerate(succ):
        reach[i, list(js)] = True
    while True:
        step = reach.astype(np.int64) @ reach.astype(np.int64) > 0
        if (step == reach).all():
            break
        reach = step
    mutual = reach & reach.T
    comps = {tuple(int(j) for j in np.flatnonzero(row)) for row in mutual}
    return sorted(list(c) for c in comps), reach


def radius_sign(a, k):
    """-1, 0 or 1 as the spectral radius of the nonempty nonnegative matrix
    a is below, at or above the integer k.  By Perron-Frobenius the radius
    is the largest real eigenvalue, so sympy counts the distinct real roots
    of the characteristic polynomial on [k, oo) and checks whether k is one:
    none means below, k alone means at, anything else means above."""
    poly = sympy.Matrix(a).charpoly()
    count = poly.count_roots(k)
    if count == 0:
        return -1
    return 0 if count == 1 and poly.eval(k) == 0 else 1


def _hom_equations(m, n):
    """(unknowns, equations) of f_t . M_a = N_a . f_s over the entries of
    the per-vertex maps f_v: n.dims[v] x m.dims[v].  unknowns maps (v, i,
    j) to the column of f_v[i][j]; each equation is a row of sympy
    rationals over those columns."""
    unknown = {}
    for v in range(m.quiver.n):
        for i in range(n.dims[v]):
            for j in range(m.dims[v]):
                unknown[v, i, j] = len(unknown)
    equations = []
    for a, ma, na in zip(m.quiver.arrows, m.maps, n.maps):
        s, t = a.source - 1, a.target - 1
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [sympy.Integer(0)] * len(unknown)
                for k in range(m.dims[t]):  # (f_t . M_a)[i][j]
                    row[unknown[t, i, k]] += sympy.Rational(
                        ma[k][j].numerator, ma[k][j].denominator
                    )
                for k in range(n.dims[s]):  # (N_a . f_s)[i][j]
                    row[unknown[s, k, j]] -= sympy.Rational(
                        na[i][k].numerator, na[i][k].denominator
                    )
                equations.append(row)
    return unknown, equations


def sympy_hom_dim(m, n):
    """dim Hom(m, n) as the nullity of the commuting-square equations,
    ranked by sympy over the rationals."""
    unknown, equations = _hom_equations(m, n)
    if not unknown or not equations:
        return len(unknown)
    return len(unknown) - sympy.Matrix(equations).rank()


def hom_basis(m, n):
    """A basis of Hom(m, n): sympy's nullspace of the commuting-square
    equations, each element a list of per-vertex sympy matrices f_v of
    shape n.dims[v] x m.dims[v]."""
    unknown, equations = _hom_equations(m, n)
    system = sympy.Matrix(equations or [[0] * len(unknown)])
    return [
        [
            sympy.Matrix(n.dims[v], m.dims[v], [
                vec[unknown[v, i, j]]
                for i in range(n.dims[v]) for j in range(m.dims[v])
            ])
            for v in range(m.quiver.n)
        ]
        for vec in system.nullspace()
    ]


def is_isomorphic(m, n, seed=0, attempts=32):
    """True / False / None (undecided).

    An isomorphism forces equal dimension vectors and dim End m =
    dim Hom(m, n) = dim Hom(n, m) = dim End n, so any mismatch proves False.
    Otherwise an element of Hom(m, n) whose every vertex map has a nonzero
    determinant is an isomorphism: the basis elements are tried first, then
    seeded random integer combinations of them.  None means the four hom
    dimensions agree and nothing invertible was found (overwhelmingly
    unlikely when an isomorphism exists)."""
    if m.quiver != n.quiver:
        raise WrongQuiverError("representations live over different quivers")
    if m.dims != n.dims:
        return False
    if m.total_dim() == 0:
        return True
    basis = hom_basis(m, n)
    dims = {len(basis)} | {sympy_hom_dim(a, b) for a, b in ((m, m), (n, m), (n, n))}
    if len(dims) > 1:
        return False
    if any(_invertible(f) for f in basis):
        return True
    rng = random.Random(seed)
    for _ in range(attempts):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        combo = [
            sum((c * f[v] for c, f in zip(coeffs, basis)),
                sympy.zeros(n.dims[v], m.dims[v]))
            for v in range(m.quiver.n)
        ]
        if _invertible(combo):
            return True
    return None


def _invertible(f):
    """Whether every vertex map of f has a nonzero determinant."""
    return all(f_v.det() != 0 for f_v in f)


def direct_sum(m, n):
    """m (+) n: dimensions add per vertex, and each arrow acts by the
    block-diagonal matrix of its two maps."""
    if m.quiver != n.quiver:
        raise WrongQuiverError("representations live over different quivers")
    maps = []
    for a, ma, na in zip(m.quiver.arrows, m.maps, n.maps):
        left, right = m.dims[a.source - 1], n.dims[a.source - 1]
        maps.append([list(row) + [0] * right for row in ma]
                    + [[0] * left + list(row) for row in na])
    return Representation(
        m.quiver, [a + b for a, b in zip(m.dims, n.dims)], maps
    )


def coxeter_plus(m):
    """tau M as the Coxeter functor C+ (Bernstein, Gelfand and Ponomarev,
    Russian Math. Surveys 28, 1973): sink reflections S+_k taken with every
    arrow's target before its source, so each k is a sink in its turn.
    S+_k replaces M_k by the kernel of the sum map (+)_{a: i -> k} M_i -> M_k,
    and each reversed arrow k -> i acts by the projection onto its own
    summand, so parallel arrows stay apart.  Every arrow is reversed twice,
    so the result lives over the quiver of M again.  tau M is that result
    twisted by a -> -a on every arrow: the twist is an isomorphism when the
    underlying graph is bipartite (negate alternate vertices), so it can show
    only on a graph with an odd cycle, such as 1 -> 2 -> 3 with 1 -> 3.
    There, without it, dim Hom(N, C+ M) can differ from dim Ext^1(M, N),
    the cokernel of the commuting-square map, which is dim Hom(M, N) -
    <dim M, dim N>."""
    q = m.quiver
    arrows = [(a.id, a.source, a.target) for a in q.arrows]
    dims = list(m.dims)
    maps = [
        sympy.Matrix(len(mat), dims[a.source - 1], [x for row in mat for x in row])
        for a, mat in zip(q.arrows, m.maps)
    ]
    order = graphlib.TopologicalSorter({v: set() for v in range(1, q.n + 1)})
    for a in q.arrows:
        order.add(a.source, a.target)
    for k in order.static_order():
        into = [i for i, (_, _, t) in enumerate(arrows) if t == k]
        total = sympy.Matrix(dims[k - 1], 0, [])
        for i in into:
            total = total.row_join(maps[i])
        kernel = total.nullspace()
        basis = sympy.Matrix.hstack(sympy.zeros(total.cols, 0), *kernel)
        row = 0
        for i in into:
            aid, source, _ = arrows[i]
            maps[i] = basis[row:row + dims[source - 1], :]
            arrows[i] = (aid, k, source)
            row += dims[source - 1]
        dims[k - 1] = len(kernel)
    return Representation(Quiver(q.n, arrows), dims, [
        [[str(-x) for x in row] for row in mat.tolist()] for mat in maps
    ])


def ar_ext1(m, n):
    """dim Ext^1(m, n) = dim Hom(n, tau m), the Auslander-Reiten formula
    over a hereditary algebra, with tau m = C+ m and the hom dimension
    from sympy_hom_dim."""
    return sympy_hom_dim(n, coxeter_plus(m))


def sympy_tensor_wba(spec, m, n):
    """The tensor of m and n twisted through spec's coproduct, computed in
    sympy: the action of each coproduct on the Kronecker product space (m's
    index slowest), the image of the D(1) action as its column space, each
    generator's coordinates on that image by a linear solve, the vertex
    basis as the column spaces of the e_v coordinates in vertex order, and
    each arrow's map through that basis's inverse.  Returns (dims, {arrow
    id: matrix of Fractions}) or raises ValueError naming the first check
    that fails, in tensor_wba's order: "unit" (D(1) is not idempotent),
    "image" (a generator leaves the image), "idempotent" (some e_v) or
    "block" (an arrow leaves its (target, source) block)."""
    q = spec.quiver

    def paths(rep):
        offs = [sum(rep.dims[:v]) for v in range(q.n + 1)]
        out = []
        for s, t, ids in spec.algebra.paths:
            block = sympy.eye(rep.dims[s - 1])
            for aid in ids:
                a = next(a for a in q.arrows if a.id == aid)
                block = sympy.Matrix(
                    rep.dims[a.target - 1], rep.dims[a.source - 1],
                    [sympy.Rational(x.numerator, x.denominator)
                     for row in rep.map_for(aid) for x in row],
                ) * block
            full = sympy.zeros(offs[-1], offs[-1])
            full[offs[t - 1]:offs[t], offs[s - 1]:offs[s]] = block
            out.append(full)
        return out

    if m.total_dim() == 0 or n.total_dim() == 0:
        return [0] * q.n, {a.id: [] for a in q.arrows}
    pm, pn = paths(m), paths(n)
    size = m.total_dim() * n.total_dim()

    def act(element):
        out = sympy.zeros(size, size)
        for (i, j), c in element.items():
            out += sympy.Rational(c.numerator, c.denominator) * sympy.kronecker_product(pm[i], pn[j])
        return out

    unit = act(spec.delta_unit)
    if unit * unit != unit:
        raise ValueError("unit")
    image = unit.columnspace()
    if not image:
        return [0] * q.n, {a.id: [] for a in q.arrows}
    basis = sympy.Matrix.hstack(*image)
    coords = {}
    for key in spec.algebra.generator_keys():
        try:
            coords[key], free = basis.gauss_jordan_solve(act(spec.delta_gen[key]) * basis)
        except ValueError:
            raise ValueError("image") from None
        assert free.rows == 0  # basis has independent columns
    dims, columns = [], []
    for v in range(1, q.n + 1):
        e = coords[f"e{v}"]
        if e * e != e:
            raise ValueError("idempotent")
        space = e.columnspace()
        dims.append(len(space))
        columns += space
    vertex_basis = sympy.Matrix.hstack(*columns)
    inverse = vertex_basis.inv()
    offs = [sum(dims[:v]) for v in range(q.n + 1)]
    maps = {}
    for a in q.arrows:
        full = inverse * coords[a.id] * vertex_basis
        t0, t1 = offs[a.target - 1], offs[a.target]
        s0, s1 = offs[a.source - 1], offs[a.source]
        if any(
            full[r, c] != 0
            for r in range(full.rows)
            for c in range(full.cols)
            if not (t0 <= r < t1 and s0 <= c < s1)
        ):
            raise ValueError("block")
        maps[a.id] = [[Fraction(int(full[r, c].p), int(full[r, c].q))
                       for c in range(s0, s1)] for r in range(t0, t1)]
    return dims, maps


def twisted_hom(x, m_tensor_y, shift):
    if shift == 0:
        return hom_dim(x, m_tensor_y)
    if shift == 1:
        return dim_ext1(x, m_tensor_y)
    return 0


def brute_force_fpd(m, word, shift=0):
    """Max over ALL subsets of interval modules that are brick sets of the
    numpy spectral radius of [dim Hom(X_i, (M (x) X_j)[shift])]_ij.

    Exponential in the number of intervals; use on small n only.
    """
    objs = [interval_rep(word, v, m.quiver) for v in all_intervals(word.n)]
    pair_hom = [[hom_dim(x, y) for y in objs] for x in objs]
    tensored = [tensor_vertexwise(m, y) for y in objs]
    best = 0.0
    for size in range(1, len(objs) + 1):
        for sub in itertools.combinations(range(len(objs)), size):
            if any(
                pair_hom[i][j] != (1 if i == j else 0)
                for i in sub
                for j in sub
            ):
                continue
            a = [[twisted_hom(objs[i], tensored[j], shift) for j in sub] for i in sub]
            best = max(best, numpy_radius(a))
    return best


def brute_force_brick_sets(objs):
    """Every inclusion-maximal brick set drawn from objs, a list of
    (representation, shift) pairs, as sorted index tuples in lexicographic
    order.  Tries every subset of the bricks among objs, keeps those whose
    members are pairwise hom-orthogonal (derived homs from hom_dim and
    dim_ext1 through twisted_hom), then drops each set that one more brick
    extends.

    Exponential in len(objs); use on small lists only.
    """
    hom = [[twisted_hom(m, n, b - a) for n, b in objs] for m, a in objs]
    bricks = [i for i in range(len(objs)) if hom[i][i] == 1]
    found = set()
    for size in range(1, len(bricks) + 1):
        for sub in itertools.combinations(bricks, size):
            if all(hom[i][j] == 0 for i in sub for j in sub if i != j):
                found.add(sub)
    return sorted(
        s for s in found
        if not any(tuple(sorted(s + (k,))) in found for k in bricks if k not in s)
    )
