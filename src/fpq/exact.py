"""Exact linear algebra over the rationals.

An entry is canonical: an int when it is integral, a Fraction (whose
denominator is then > 1) otherwise.  ``frac`` is the one coercion; every
builder and parser calls it, so an integral entry runs as an int however
it was given, and equal matrices hold equal, equally typed entries.
Dense matrices are sequences of rows of canonical entries; all functions
accept lists or tuples.  ``mat_from`` and ``kron``, which build
representation maps, return frozen (hashable) tuple rows.  A matrix
with zero rows or zero columns is legal and is represented literally
(``[]`` or ``[[], [], ...]``, frozen ``()`` or ``((), (), ...)``), so
shapes must be tracked by the caller when a dimension vanishes.

A sparse row is a dict {column: value} of its nonzero entries, ints or
Fractions.  The one elimination loop, ``eliminate``, works on sparse rows,
so its cost follows the nonzeros, and scales a pivot row by the Fraction
1/p, so int entries never meet float division.  The pivot is the first
nonzero entry in column order (no magnitude pivoting): over Q the
arithmetic is exact, and fixing the pivot rule makes every derived basis
deterministic.  Pivots lie in the first ``ncols`` columns; later columns
only ride along in the row operations, so a right-hand side kept there is
read off the reduced rows.
``rank``, which needs no basis, also takes sparse rows but eliminates
fraction-free over the integers: each row is cleared of denominators and
reduced against the pivot rows found so far, still exactly.
"""

import math
from fractions import Fraction

ONE = Fraction(1)


def frac(x):
    """The canonical entry of an int, a string like '3/4', '4/2' or '-2',
    or a Fraction: an int when the value is integral, else a Fraction.  A
    bool is not a number here."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        n, d = x.as_integer_ratio()  # one call; .numerator, .denominator are two
        return n if d == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_from(rows):
    """Copy a nested sequence into frozen rows of canonical entries."""
    return tuple(tuple([frac(x) for x in row]) for row in rows)


def kron(a, b, sa, sb):
    """Kronecker product of a, of shape sa = (ra, ca), and b, of shape
    sb = (rb, cb), with the left factor indexing slowest:
    (a (x) b)[i*rb + k, j*cb + l] = a[i][j] * b[k][l].  Frozen rows; an
    empty factor gives () or ((),) * rows, the shapes zeros gives.  The
    product of two ints is an int; a product with a Fraction factor can
    be integral, so when either factor holds a Fraction each product goes
    through frac."""
    (ra, ca), (rb, cb) = sa, sb
    if not ca * cb:
        return ((),) * (ra * rb)
    ints = all(type(x) is int for m in (a, b) for row in m for x in row)
    zero_block = (0,) * cb
    out = []
    for arow in a:
        for brow in b:
            row = []
            for x in arow:
                if not x:
                    row.extend(zero_block)
                elif ints:
                    row.extend([x * y if y else 0 for y in brow])
                else:
                    row.extend([frac(x * y) if y else 0 for y in brow])
            out.append(tuple(row))
    return tuple(out)


def eliminate(rows, ncols):
    """Gauss-Jordan elimination of sparse rows, in place, over the first
    ncols columns; returns the pivot columns.  Each pivot row is the first
    remaining row with a nonzero in its column; afterwards rows[:len(pivots)]
    are in reduced echelon form and the rest are zero in those columns."""
    pivots = []
    r = 0
    # a row operation adds only columns some row already has
    for c in sorted({c for row in rows for c in row if c < ncols}):
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


def rank(rows, ncols):
    """Rank of the first ncols columns of sparse rows (see eliminate),
    by fraction-free elimination over the integers.

    A row holding a Fraction is cleared of denominators, which keeps the
    rank and puts every step in Python ints; each row is then reduced
    against the pivot rows kept so far, keyed by leading column:
    row <- a*row - b*pivot, where a and b are the pivot's and the row's
    leading entries divided by their gcd, after which the row's content
    is divided out.  A pivot row is kept as its leading entry and the
    rest, so the cancelled entry is never formed.  A row left nonzero
    becomes the pivot of its leading column; no basis is built.  It returns
    once it holds ncols pivots, reading no later row: none can add one."""
    pivots = {}
    for row in rows:
        row = {j: x for j, x in row.items() if j < ncols and x}
        if not all(type(x) is int for x in row.values()):
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
                if len(pivots) == ncols:
                    return ncols
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
