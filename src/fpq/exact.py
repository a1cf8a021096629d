"""Exact linear algebra over the rationals.

Dense matrices are sequences of rows, each row a sequence of ``Fraction``;
all functions accept lists or tuples and return lists (callers freeze to
tuples when they need hashability).  A matrix with zero rows or zero
columns is legal and is represented literally (``[]`` or ``[[], [], ...]``),
so shapes must be tracked by the caller when a dimension vanishes.

A sparse row is a dict {column: value} of its nonzero entries, ints or
Fractions.  The one elimination loop, ``eliminate``, works on sparse rows,
so its cost follows the nonzeros, and scales a pivot row by the Fraction
1/p, so int entries never meet float division; ``rref``, ``nullspace``
and ``solve`` are dense wrappers over it.  The pivot is the
first nonzero entry in column order (no magnitude pivoting): over Q the
arithmetic is exact, and fixing the pivot rule makes every derived basis
deterministic.  Pivots lie in the first ``ncols`` columns; later columns
only ride along in the row operations, and only ``solve`` reads them.
``sparse_mul`` is the one product; an empty row costs it nothing.
``rank``, which needs no basis, also takes sparse rows but eliminates
fraction-free over the integers: each row is cleared of denominators and
reduced against the pivot rows found so far, still exactly.
"""

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    """Coerce ints, strings like '3/4' or '-2', and Fractions to Fraction;
    a bool is not a number here."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def mat_from(rows):
    """Copy a nested sequence into a list-of-lists of Fractions."""
    return [[frac(x) for x in row] for row in rows]


def transpose(m, rows, cols):
    """Transpose of the rows x cols matrix m."""
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def kron(a, b, sa, sb):
    """Kronecker product of a, of shape sa = (ra, ca), and b, of shape
    sb = (rb, cb), with the left factor indexing slowest:
    (a (x) b)[i*rb + k, j*cb + l] = a[i][j] * b[k][l]."""
    ra, ca = sa
    rb, cb = sb
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


def eliminate(rows, ncols):
    """Gauss-Jordan elimination of sparse rows, in place, over the first
    ncols columns; returns the pivot columns.  Each pivot row is the first
    remaining row with a nonzero in its column; afterwards rows[:len(pivots)]
    are in reduced echelon form and the rest are zero in those columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        for pr in range(r, len(rows)):
            if c in rows[pr]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        if p != 1:
            q = ONE / p
            rows[r] = prow = {j: x * q for j, x in prow.items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
        pivots.append(c)
        r += 1
    return pivots


def sparse_mul(a, b):
    """Product a @ b of matrices given as sparse rows (see eliminate)."""
    out = []
    for arow in a:
        acc = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: x for j, x in acc.items() if x} if acc else acc)
    return out


def rref(m, ncols=None):
    """Reduced row echelon form of the first ncols columns (default: all).

    Returns (R, pivots) where pivots lists the pivot column indices in
    order.  The input is not modified.
    """
    width = len(m[0]) if m else 0
    rows = _sparse(m)
    pivots = eliminate(rows, width if ncols is None else ncols)
    return _dense(rows, width), pivots


def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _dense(rows, width):
    return [[row.get(j, ZERO) for j in range(width)] for row in rows]


def rank(rows, ncols):
    """Rank of the first ncols columns of sparse rows (see eliminate),
    by fraction-free elimination over the integers.

    Each row is cleared of denominators, which keeps the rank and puts
    every step in Python ints, and is then reduced against the pivot rows
    kept so far, keyed by leading column: row <- a*row - b*pivot, where a
    and b are the pivot's and the row's leading entries divided by their
    gcd, after which the row's content is divided out.  A pivot row is kept
    as its leading entry and the rest, so the cancelled entry is never
    formed.  A row left nonzero becomes the pivot of its leading column;
    no basis is built."""
    pivots = {}
    for row in rows:
        row = {j: x for j, x in row.items() if j < ncols and x}
        scale = math.lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        while row:
            g = math.gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
            lead = min(row)
            r = row.pop(lead)
            if lead not in pivots:
                pivots[lead] = (r, row)
                break
            p, tail = pivots[lead]
            g = math.gcd(p, r)
            a, b = p // g, r // g
            row = {j: a * x for j, x in row.items()}
            for j, y in tail.items():
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]
    return len(pivots)


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
    """x (ncols_a x ncols_b) with a @ x = b, or None when inconsistent.
    Unconstrained coordinates are set to 0."""
    if ncols_a is None:
        ncols_a = len(a[0]) if a else 0
    if ncols_b is None:
        ncols_b = len(b[0]) if b else 0
    aug = _sparse([(*x, *r) for x, r in zip(a, b)])
    pivots = eliminate(aug, ncols_a)
    if any(aug[len(pivots):]):
        return None  # a zero row of a against a nonzero right-hand side
    # RREF rows read x_pc + (free-column terms) = rhs; with free
    # coordinates fixed to 0 the pivot coordinate equals the rhs.
    x = zeros(ncols_a, ncols_b)
    for row, pc in zip(aug, pivots):
        x[pc] = [row.get(ncols_a + j, ZERO) for j in range(ncols_b)]
    return x


def freeze(m):
    """Immutable (hashable) copy of a matrix."""
    return tuple(tuple(row) for row in m)
