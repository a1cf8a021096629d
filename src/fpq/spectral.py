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
the last bracket instead of returning a guess.  integer_radius turns a
float radius into an int k only when exact integer arithmetic proves it:
the signs of the leading principal minors of kI - B, from one
fraction-free elimination per block, place rho(B) below, at or above k.
"""

import math
import numbers

from .errors import InputError, NoConvergenceError
from .exact import nested

DEFAULT_TOL = 1e-10
MAX_ITER = 10 ** 5
# Largest matrix side accepted, checked before any row is read; far above
# any brick-set adjacency.
MAX_MATRIX_SIZE = 10 ** 3


def _check_square(a):
    if not nested(a):
        raise InputError("matrix JSON must be an array of arrays")
    n = len(a)
    if n > MAX_MATRIX_SIZE:
        raise InputError(f"matrix too large: at most {MAX_MATRIX_SIZE} rows")
    for row in a:
        if len(row) != n:
            raise InputError("matrix must be square")
        for x in row:
            if not isinstance(x, numbers.Real) or isinstance(x, bool):
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
    """Components, each ascending, in reverse topological order of the
    condensation (every edge goes from a later to an earlier component).
    reach[i], the bitset of what i reaches (i included), equals reach[j]
    exactly when i and j reach each other; a component that reaches
    another reaches strictly more, so it sorts later."""
    reach = [1 << i for i in range(n)]
    for i in range(n):
        for j in succ[i]:
            reach[i] |= 1 << j  # OR: a successor listed twice counts once
    for k in range(n):  # Warshall
        bit, row = 1 << k, reach[k]
        reach = [r | row if r & bit else r for r in reach]
    comps = {}
    for i, r in enumerate(reach):
        comps.setdefault(r, []).append(i)
    return sorted(comps.values(), key=lambda c: reach[c[0]].bit_count())


def _block_radius(block, tol):
    """rho of an irreducible nonnegative integer block via power iteration
    on B + I.  Returns (value, lower, upper) with rho in [lower, upper]."""
    m = len(block)
    if m == 1:
        v = float(block[0][0])
        return v, v, v
    x = [1.0] * m
    lo_best, hi_best = 0.0, math.inf
    for _ in range(MAX_ITER):
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
        f"power iteration did not converge within {MAX_ITER} iterations "
        f"(enclosure [{lo_best - 1.0}, {hi_best - 1.0}])",
        bracket=(lo_best - 1.0, hi_best - 1.0),
    )


def spectral_radius(a, tol=DEFAULT_TOL):
    """Spectral radius of a square nonnegative integer matrix.

    Exact (as a float) for permuted-triangular matrices; otherwise correct
    to the requested relative tolerance."""
    _check_square(a)
    return max((_block_radius(b, tol)[0] for b in _blocks(a)), default=0.0)


def _blocks(a):
    """The diagonal blocks of a on its strongly connected components."""
    n = len(a)
    succ = [[j for j in range(n) if a[i][j]] for i in range(n)]
    return [[[a[i][j] for j in comp] for i in comp]
            for comp in strongly_connected_components(succ, n)]


def _first_nonpositive_minor(a):
    """(k, D) for the first leading principal minor D = D_k (1-based k) of
    the square int matrix a that is not positive, or None when all are,
    by fraction-free (Bareiss) elimination without row exchange: the k-th
    pivot is D_k, so each division is exact."""
    a = [list(row) for row in a]
    prev = 1
    for k, pivot in enumerate(a):
        if pivot[k] <= 0:
            return k + 1, pivot[k]
        for row in a[k + 1:]:
            row[k + 1:] = [(pivot[k] * x - row[k] * y) // prev
                           for x, y in zip(row[k + 1:], pivot[k + 1:])]
        prev = pivot[k]
    return None


def _compare_block(block, k):
    """-1, 0 or 1 as rho(block) is below, equal to or above the integer k,
    decided exactly for a 1x1 block (D_1 = k - b_11) or an irreducible
    block B of size n >= 2 from the leading principal minors D_1..D_n of
    kI - B alone.

    * All D_j > 0: the Z-matrix kI - B is a nonsingular M-matrix, that is
      k > rho(B) (Berman & Plemmons 1979, 6.2.3).
    * D_1..D_{n-1} > 0 and D_n = 0: rho(B) = k.  Let B' be the leading
      (n-1)-block, b and c^T the rest of B's last column and row; kI - B'
      is a nonsingular M-matrix, so k > rho(B').  For t > rho(B'),

          det(tI - B) = det(tI - B') (t - b_nn - c^T (tI - B')^-1 b),

      where (tI - B')^-1 = sum_m B'^m / t^(m+1) is nonnegative and
      non-increasing in t, so the second factor strictly increases and
      det(tI - B) has exactly one root above rho(B').  That root is
      rho(B), since rho(B) > rho(B') for irreducible B, and k is one.
    * Anything else: rho(B) > k.  Not all D_j > 0 gives k <= rho(B), and
      rho(B) = k forces the case above, because every proper principal
      submatrix of an irreducible B has radius below rho(B) (Perron-
      Frobenius), so D_1..D_{n-1} > 0, and D_n = det(kI - B) = 0."""
    shifted = [
        [(k if i == j else 0) - int(x) for j, x in enumerate(row)]
        for i, row in enumerate(block)
    ]
    first = _first_nonpositive_minor(shifted)
    if first is None:
        return -1
    return 0 if first == (len(block), 0) else 1


def integer_radius(a, radius):
    """The spectral radius of a as an int when it provably equals k =
    round(radius), radius being a float estimate of it; None otherwise.

    Each strongly connected block is compared with k exactly by
    _compare_block.  rho(a) = k when no block exceeds k and one reaches it
    (or a is empty and k = 0)."""
    _check_square(a)
    k = round(radius)
    reached = not a and k == 0
    for block in _blocks(a):
        sign = _compare_block(block, k)
        if sign > 0:
            return None
        reached = reached or sign == 0
    return k if reached else None


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
