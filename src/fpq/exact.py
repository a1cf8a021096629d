"""Exact linear algebra over the rationals.

An entry is canonical: an int when it is integral, a Fraction (whose
denominator is then > 1) otherwise.  ``frac`` is the one coercion; every
builder and parser calls it, so an integral entry runs as an int however
it was given, and equal matrices hold equal, equally typed entries.
Dense matrices are sequences of rows of canonical entries; all functions
accept lists or tuples.  ``mat_from``, ``kron`` and ``zeros``, which build
representation maps, return frozen (hashable) tuple rows.  A matrix
with zero rows or zero columns is legal and is represented literally
(``[]`` or ``[[], [], ...]``, frozen ``()`` or ``((), (), ...)``), so
shapes must be tracked by the caller when a dimension vanishes.

A sparse row is a dict {column: value} of its nonzero entries, ints or
Fractions, so elimination costs follow the nonzeros.  ``rank`` and
``eliminate`` share one fraction-free step (Bareiss), ``_reduce``: a row
is cleared of denominators and reduced, in Python ints, against the pivot
rows found so far, keyed by leading column.  A column's pivot is the
first row to lead there (no magnitude pivoting): over Q the arithmetic is
exact.  Pivots lie in the first ``ncols`` columns; later columns ride
along, so ``eliminate``, which back-substitutes to the reduced echelon
form, unique whatever the row order, reads a right-hand side kept there
off its reduced rows.
"""

import math
import sys
from fractions import Fraction


def frac(x):
    """The canonical entry of an int, a string like '3/4', '4/2' or '-2',
    or a Fraction: an int when the value is integral, else a Fraction.  A
    bool is not a number here, nor a string whose decimal exponent has
    more digits' worth than Python will convert to an int."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        power = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if power.isdecimal() and 0 < sys.get_int_max_str_digits() < int(power):
            raise ValueError(f"decimal exponent {power} is too large")
        x = Fraction(x)
    if isinstance(x, Fraction):
        n, d = x.as_integer_ratio()  # one call; .numerator, .denominator are two
        return n if d == 1 else x
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def zeros(rows, cols):
    """The rows x cols zero matrix, frozen."""
    return ((0,) * cols,) * rows


_SEQUENCES = frozenset((list, tuple))


def nested(x):
    """Whether x is a list or tuple of lists or tuples; a string, whose
    characters would read as entries, is not."""
    return type(x) in _SEQUENCES and _SEQUENCES.issuperset(map(type, x))


def mat_from(rows):
    """Copy a list or tuple of list or tuple rows into frozen rows of
    canonical entries; anything else is a TypeError."""
    if not nested(rows):
        raise TypeError("a matrix must be an array of arrays")
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


def _cancel(row, r, p, tail):
    """(a, a*row - b*tail), no zero stored, where row had r in the column
    of the pivot (p, tail) and a and b are p and r divided by their gcd;
    row is the caller's own and may be changed."""
    g = math.gcd(p, r)
    a, b = p // g, r // g
    if a != 1:
        row = {j: a * x for j, x in row.items()}
    for j, y in tail.items():
        x = row.get(j, 0) - b * y
        if x:
            row[j] = x
        else:
            del row[j]
    return a, row


def _reduce(row, pivots, ncols):
    """Reduce a sparse row against pivots {lead: (leading entry, tail)}:
    cleared of denominators, the row is cancelled (see _cancel) against
    the pivot of its leading column, its content divided out, until it
    leads where no pivot is; below ncols it becomes that pivot, else what
    is left is returned."""
    row = {j: x for j, x in row.items() if x}
    if not all(type(x) is int for x in row.values()):
        scale = math.lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
    while row:
        g = math.gcd(*row.values())
        if g > 1:
            row = {j: x // g for j, x in row.items()}
        lead = min(row)
        if lead >= ncols:
            return row
        r = row.pop(lead)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = r, row
            return None
        row = _cancel(row, r, *pivot)[1]
    return None


def rank(rows, ncols):
    """Rank of the first ncols columns of sparse rows, the pivots _reduce
    finds.  It returns once it holds ncols pivots, reading no later row:
    none can add one."""
    pivots = {}
    for row in rows:
        _reduce(row, pivots, ncols)
        if len(pivots) == ncols:
            break
    return len(pivots)


def eliminate(rows, ncols):
    """(pivot columns, reduced rows, rest) of sparse rows over their first
    ncols columns: _reduce's pivots, back-substituted last lead first so
    that each is zero at every later lead, then divided by its leading
    entry; rest holds the nonzero leftovers past ncols.  The input is not
    changed."""
    pivots = {}
    rest = [left for row in rows if (left := _reduce(row, pivots, ncols))]
    leads, done, reduced = sorted(pivots), {}, []
    for lead in reversed(leads):
        p, row = pivots[lead]
        for j in [j for j in row if j in done]:
            a, row = _cancel(row, row.pop(j), *done[j])
            p *= a
        g = math.gcd(p, *row.values())
        p, row = done[lead] = p // g, {k: y // g for k, y in row.items()}
        reduced.append({lead: 1} | {k: Fraction(y, p) if y % p else y // p
                                    for k, y in row.items()})
    return leads, reduced[::-1], rest
