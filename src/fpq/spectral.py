"""Spectral radius of nonnegative integer matrices, certified.

The matrix is split into strongly connected components; the radius is the
max over the diagonal (irreducible) blocks.  Trivial 1x1 blocks contribute
their diagonal entry exactly, so permuted-triangular matrices (in
particular all nilpotent adjacency patterns) come out exact.  Each
nontrivial irreducible block B is handled by power iteration on B + I
(primitive, so the iteration converges) with the two-sided bound

    min_i (Ax)_i / x_i  <=  rho(A)  <=  max_i (Ax)_i / x_i

for positive x, run until the enclosure is tighter than the requested
relative tolerance.  Exceeding the iteration cap raises NoConvergence with
the last bracket instead of returning a guess.
"""

import math
import numbers

from .errors import InputError, NoConvergenceError

DEFAULT_TOL = 1e-10
MAX_ITER = 10 ** 5


def _check_square(a):
    n = len(a)
    for row in a:
        if len(row) != n:
            raise InputError("matrix must be square")
        for x in row:
            if not isinstance(x, numbers.Real):
                raise InputError("matrix entries must be numbers")
            try:
                finite = math.isfinite(x)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise InputError("matrix entries must be finite")
            if x < 0:
                raise InputError("matrix entries must be nonnegative")
            if x != int(x):
                raise InputError("matrix entries must be integers")
    return n


def strongly_connected_components(succ, n):
    """Tarjan's algorithm, iterative; components in reverse topological
    order of the condensation (every edge goes from a later to an earlier
    component in the returned list)."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack = []
    comps = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(succ[root]))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def _block_radius(block, tol, max_iter):
    """rho of an irreducible nonnegative integer block via power iteration
    on B + I.  Returns (value, lower, upper) with rho in [lower, upper]."""
    m = len(block)
    if m == 1:
        v = float(block[0][0])
        return v, v, v
    x = [1.0] * m
    lo_best, hi_best = 0.0, math.inf
    for _ in range(max_iter):
        y = []
        for i in range(m):
            row = block[i]
            s = x[i]  # the +I term
            for j in range(m):
                if row[j]:
                    s += row[j] * x[j]
            y.append(s)
        top = max(y)
        if not math.isfinite(top):
            raise InputError(
                "power iteration overflowed the float range: the spectral"
                " radius is too large for a float"
            )
        # Collatz-Wielandt bounds for B + I at the positive vector x
        ratios = [yi / xi for yi, xi in zip(y, x)]
        lo, hi = min(ratios), max(ratios)
        lo_best = max(lo_best, lo)
        hi_best = min(hi_best, hi)
        if hi_best - lo_best <= tol * hi_best:
            mid = (lo_best + hi_best) / 2.0
            return mid - 1.0, lo_best - 1.0, hi_best - 1.0
        x = [yi / top for yi in y]
    raise NoConvergenceError(
        f"power iteration did not converge within {max_iter} iterations "
        f"(enclosure [{lo_best - 1.0}, {hi_best - 1.0}])",
        bracket=(lo_best - 1.0, hi_best - 1.0),
    )


def spectral_radius(a, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Spectral radius of a square nonnegative integer matrix.

    Exact (as a float) for permuted-triangular matrices; otherwise correct
    to the requested relative tolerance."""
    n = _check_square(a)
    if n == 0:
        return 0.0
    succ = [[j for j in range(n) if a[i][j]] for i in range(n)]
    best = 0.0
    for comp in strongly_connected_components(succ, n):
        if len(comp) == 1:
            v = comp[0]
            best = max(best, float(a[v][v]))
            continue
        block = [[a[i][j] for j in comp] for i in comp]
        val, _, _ = _block_radius(block, tol, max_iter)
        best = max(best, val)
    return best


def gershgorin_bound(a):
    """max row sum: an upper bound for the spectral radius of a
    nonnegative matrix."""
    _check_square(a)
    if not a:
        return 0
    return max(sum(row) for row in a)


def as_integer(value, tol=1e-6):
    """Round-verify: the nearest integer if within tol, else None."""
    r = round(value)
    if abs(value - r) < tol:
        return int(r)
    return None


def gamma_matrix(n):
    """The n x n 0/1 matrix with first row and first column all ones and
    zeros elsewhere (the hub pattern of diverging brick-set families)."""
    if n < 1:
        raise InputError("n must be >= 1")
    m = [[0] * n for _ in range(n)]
    for k in range(n):
        m[0][k] = 1
        m[k][0] = 1
    return m


def gamma_radius_closed(n):
    """(1 + sqrt(4n - 3)) / 2, the spectral radius of gamma_matrix(n);
    it is >= sqrt(n)."""
    if n < 1:
        raise InputError("n must be >= 1")
    return (1.0 + math.sqrt(4.0 * n - 3.0)) / 2.0
