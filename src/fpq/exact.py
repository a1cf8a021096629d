"""Exact linear algebra over the rationals.

Matrices are sequences of rows, each row a sequence of ``Fraction``; all
functions accept lists or tuples and return lists (callers freeze to tuples
when they need hashability).  A matrix with zero rows or zero columns is
legal and is represented literally (``[]`` or ``[[], [], ...]``), so shapes
must be tracked by the caller when a dimension vanishes.

Elimination uses the first nonzero entry in column order as the pivot
(no magnitude pivoting): over Q the arithmetic is exact, and fixing the
pivot rule makes every derived basis deterministic.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    """Coerce ints, strings like '3/4' or '-2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def shape(m):
    """(rows, cols) of a matrix; a 0-row matrix reports 0 columns."""
    r = len(m)
    return (r, len(m[0]) if r else 0)


def mat_from(rows):
    """Copy a nested sequence into a list-of-lists of Fractions."""
    return [[frac(x) for x in row] for row in rows]


def mat_mul(a, b):
    """Product a @ b; inner dimensions must agree (0 is fine)."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"matrix product shape mismatch: {ca} vs {rb}")
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            for j in range(cb):
                if brow[j] != 0:
                    orow[j] += aik * brow[j]
    return out


def transpose(m, rows=None, cols=None):
    """Transpose; pass rows/cols explicitly when a dimension may be zero."""
    if rows is None:
        rows, cols = shape(m)
    elif cols is None:
        cols = len(m[0]) if rows else 0
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def kron(a, b, sa=None, sb=None):
    """Kronecker product with the left factor indexing slowest:
    (a (x) b)[i*p + k, j*q + l] = a[i][j] * b[k][l].

    Shapes sa=(ra,ca), sb=(rb,cb) must be passed when a dimension is zero.
    """
    ra, ca = sa if sa is not None else shape(a)
    rb, cb = sb if sb is not None else shape(b)
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            aij = a[i][j]
            if aij == 0:
                continue
            for k in range(rb):
                brow = b[k]
                orow = out[i * rb + k]
                base = j * cb
                for l in range(cb):
                    if brow[l] != 0:
                        orow[base + l] = aij * brow[l]
    return out


def block_diag(a, b, sa=None, sb=None):
    ra, ca = sa if sa is not None else shape(a)
    rb, cb = sb if sb is not None else shape(b)
    out = zeros(ra + rb, ca + cb)
    for i in range(ra):
        for j in range(ca):
            out[i][j] = a[i][j]
    for i in range(rb):
        for j in range(cb):
            out[ra + i][ca + j] = b[i][j]
    return out


def rref(m, ncols=None):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots lists the pivot column indices in
    order.  The input is not modified.
    """
    a = [list(row) for row in m]
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        p = a[r][c]
        if p != 1:
            a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                arow = a[r]
                irow = a[i]
                for j in range(c, ncols):
                    if arow[j] != 0:
                        irow[j] -= f * arow[j]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m, ncols=None):
    return len(rref(m, ncols)[1])


def nullspace(m, ncols):
    """Basis of the right kernel of m (rows are equations over ncols
    unknowns).  Returns a list of length-ncols vectors; one per free
    column, in ascending column order, with a 1 in the free slot."""
    r, pivots = rref(m, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            # row i reads: x_pc + sum over later columns = 0
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def solve(a, b, ncols_a=None, ncols_b=None):
    """Solve a @ x = b exactly for each column of b.

    Returns x (ncols_a x ncols_b) or None when inconsistent.  Unconstrained
    coordinates are set to 0 (deterministic).
    """
    nrows = len(a)
    if ncols_a is None:
        ncols_a = len(a[0]) if nrows else 0
    if ncols_b is None:
        ncols_b = len(b[0]) if len(b) else 0
    aug = [list(a[i]) + list(b[i]) for i in range(nrows)]
    r, pivots = rref(aug, ncols_a + ncols_b)
    for i, pc in enumerate(pivots):
        if pc >= ncols_a:
            return None  # pivot in the augmented block: inconsistent
    # RREF rows read x_pc + (free-column terms) = rhs; with free
    # coordinates fixed to 0 the pivot coordinate equals the rhs.
    x = zeros(ncols_a, ncols_b)
    for i, pc in enumerate(pivots):
        for j in range(ncols_b):
            x[pc][j] = r[i][ncols_a + j]
    return x


def invert(m):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(m)
    if n == 0:
        return []
    aug = [list(m[i]) + list(identity(n)[i]) for i in range(n)]
    r, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in r[:n]]


def freeze(m):
    """Immutable (hashable) copy of a matrix."""
    return tuple(tuple(row) for row in m)
