"""Exact rational linear algebra against numpy, sympy and hand values."""

import random
from fractions import Fraction

import numpy as np
import sympy

from fpq import exact
from fpq.quiver import Quiver, Representation
from oracles import direct_sum


def rand_matrix(rows, cols, seed, span=3):
    rng = random.Random(seed)
    return [
        [Fraction(rng.randint(-span, span)) for _ in range(cols)]
        for _ in range(rows)
    ]


def sparse(m):
    """Sparse rows {column: entry} of a dense matrix, as rank and
    eliminate take them."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def test_rref_hand_example():
    """eliminate leaves the reduced echelon form of the first ncols columns;
    a fourth column rides along, so a right-hand side there is read off the
    pivot rows (x = (2, 1, 0) here), and a nonzero left in a zero row
    marks an inconsistent system."""
    rows = sparse(exact.mat_from([[0, 2, 4], [1, 1, 1], [2, 4, 6]]))
    assert exact.eliminate(rows, 3) == [0, 1]
    assert rows == [{0: 1, 2: -1}, {1: 1, 2: 2}, {}]
    for last, rest in ((8, {}), (9, {3: 1})):
        rows = sparse(exact.mat_from([[0, 2, 4, 2], [1, 1, 1, 3], [2, 4, 6, last]]))
        assert exact.eliminate(rows, 3) == [0, 1]
        assert rows == [{0: 1, 2: -1, 3: 2}, {1: 1, 2: 2, 3: 1}, rest]


def test_rank_matches_numpy():
    for seed in range(25):
        m = rand_matrix(4, 5, seed)
        got = exact.rank(sparse(m), 5)
        want = np.linalg.matrix_rank(np.array(m, dtype=float))
        assert got == want
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    more = [
        ([], 0),  # no rows
        ([], 3),
        ([[], [], []], 0),  # no columns
        ([[0, 0, 0], [0, 0, 0]], 3),  # zero matrix
        ([[half, third], [Fraction(3, 4), half]], 2),  # rational, singular
        ([[half, third], [third, half]], 2),  # rational, regular
        ([[0, 1, 2], [0, 2, 4], [0, 0, 0], [1, 1, 1]], 3),  # zero column first
        ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1], [1, 2, 4, 5]], 4),
        ([[1, 2, 3], [2, 4, 7]], 2),  # only the first ncols columns count
    ]
    for seed in range(25):  # rank-deficient: the last row repeats a sum
        m = rand_matrix(4, 6, 100 + seed)
        m.append([x + Fraction(seed, 7) * y for x, y in zip(m[0], m[1])])
        more.append((m, 6))
    for seed in range(25):  # rational entries
        rng = random.Random(200 + seed)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(5)]
             for _ in range(rng.randint(1, 6))]
        more.append((m, 5))
    for rows, ncols in more:
        m = exact.mat_from(rows)
        want = _sym([row[:ncols] for row in m], ncols).rank()
        assert exact.rank(sparse(m), ncols) == want, rows
    assert exact.rank(sparse(exact.mat_from([[1, 2, 3], [2, 4, 7]])), 2) == 1


def test_rank_ignores_entries_at_or_past_ncols():
    assert exact.rank([{2: Fraction(1)}, {3: Fraction(5), 7: Fraction(-1)}], 2) == 0
    assert exact.rank([{2: Fraction(1)}, {3: Fraction(5), 7: Fraction(-1)}], 3) == 1
    rows = [{0: Fraction(1), 4: Fraction(2)}, {0: Fraction(2), 5: Fraction(1)}]
    assert exact.rank(rows, 4) == 1  # proportional on the first 4 columns
    assert exact.rank(rows, 6) == 2
    assert rows == [{0: 1, 4: 2}, {0: 2, 5: 1}]  # the input is not modified


def test_rank_with_a_large_common_factor():
    big = 10 ** 40 + 7
    rows = [
        {0: Fraction(big), 1: Fraction(2 * big)},
        {0: Fraction(3 * big), 1: Fraction(6 * big), 2: Fraction(big)},
        {2: Fraction(5 * big, 3)},
        {0: Fraction(1, big), 1: Fraction(2, big)},
    ]
    assert exact.rank(rows, 3) == 2
    assert exact.rank(rows, 2) == 1
    assert exact.rank([{0: Fraction(big), 1: Fraction(big + 1)},
                       {0: Fraction(big - 1), 1: Fraction(big)}], 2) == 2


def test_rank_matches_sympy_on_sparse_rational_systems():
    rng = random.Random(31)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 20)
        rows = []
        for _ in range(nrows):
            cols = rng.sample(range(ncols + 2), rng.randint(0, min(4, ncols + 2)))
            rows.append({j: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                     rng.choice([1, 1, 2, 3, 5]))
                         for j in cols})
        if nrows > 2 and rng.random() < 0.5:  # a dependent row
            a, b = rng.sample(range(nrows), 2)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            rows.append({j: rows[a].get(j, 0) + c * rows[b].get(j, 0)
                         for j in set(rows[a]) | set(rows[b])})
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        assert exact.rank(rows, ncols) == sympy.Matrix(dense).rank(), rows


def test_eliminate_keeps_integer_rows_exact():
    """Int entries are divided by their pivot exactly: the scaled rows hold
    ints and Fractions only, never a float from int / int."""
    rows = [{0: 2, 1: 1}]
    assert exact.eliminate(rows, 2) == [0]
    assert rows == [{0: 1, 1: Fraction(1, 2)}]
    rows = [{0: 3, 1: 1, 2: 2}, {0: 1, 1: 1}]
    assert exact.eliminate(rows, 2) == [0, 1]
    assert rows == [{0: 1, 2: 1}, {1: 1, 2: -1}]
    for rows in ([{0: 2, 1: 1}], [{0: 3, 1: 1, 2: 2}, {0: 1, 1: 1}]):
        exact.eliminate(rows, 2)
        for row in rows:
            for x in row.values():
                assert type(x) in (int, Fraction), rows


def test_kron_agrees_with_numpy():
    a = rand_matrix(2, 3, 7)
    b = rand_matrix(3, 2, 8)
    got = np.array(exact.kron(a, b, (2, 3), (3, 2)), dtype=float)
    want = np.kron(np.array(a, dtype=float), np.array(b, dtype=float))
    assert np.array_equal(got, want)


def test_kron_empty_factor_gives_empty_product():
    b = exact.mat_from([[1, 2]])
    got = exact.kron([], b, sa=(0, 2), sb=(1, 2))
    assert got == []


def test_block_diag():
    """The direct sum acts on each arrow by the block-diagonal matrix."""
    q = Quiver(2, [("a", 1, 2)])
    a = Representation(q, [1, 1], {"a": [[1]]})
    b = Representation(q, [2, 1], {"a": [[2, 3]]})
    d = direct_sum(a, b)
    assert d.dims == (3, 2)
    assert d.map_for("a") == ((1, 0, 0), (0, 2, 3))


def _kernel_inputs(seed, count):
    """Seeded rational matrices up to 7 x 7: sparse and dense ones, some
    with a zero row or a zero column, plus a few degenerate shapes."""
    rng = random.Random(seed)
    out = [[[Fraction(0)] * 3 for _ in range(2)], [[Fraction(5)]], [[Fraction(0)]]]
    for k in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice([0.15, 0.4, 1.0])
        m = [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < density else Fraction(0)
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        if k % 3 == 1:
            m[rng.randrange(rows)] = [Fraction(0)] * cols
        elif k % 3 == 2:
            c = rng.randrange(cols)
            for row in m:
                row[c] = Fraction(0)
        out.append(m)
    return out


def _sym(m, cols):
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
    return sympy.Matrix(len(m), cols, entries)


def _frac_rows(mat):
    return [[Fraction(int(x.p), int(x.q)) for x in mat.row(i)] for i in range(mat.rows)]


def test_rref_matches_sympy_for_every_ncols():
    """For every ncols, eliminate's pivots and reduced rows match sympy's
    rref of the first ncols columns, and the later columns ride along in
    the same invertible row operations: the rows keep the row space of the
    whole matrix."""
    for m in _kernel_inputs(1, 80):
        width = len(m[0])
        for ncols in range(width + 1):
            rows = sparse(m)
            pivots = exact.eliminate(rows, ncols)
            got = [[row.get(j, Fraction(0)) for j in range(width)] for row in rows]
            want, want_pivots = _sym([row[:ncols] for row in m], ncols).rref()
            assert pivots == list(want_pivots), (m, ncols)
            assert [row[:ncols] for row in got] == _frac_rows(want), (m, ncols)
            assert all(j < width for row in rows for j in row)
            full = _sym(m, width).rank()
            assert _sym(got, width).rank() == full == _sym(got + m, width).rank()


def test_sparse_mul_matches_numpy():
    inputs = _kernel_inputs(4, 60)
    rng = random.Random(5)
    for a in inputs:
        b = rng.choice([m for m in inputs if len(m) == len(a[0])] or [None])
        if b is None:
            continue
        width = len(b[0])
        got = exact.sparse_mul(*(
            [{j: x for j, x in enumerate(row) if x} for row in m] for m in (a, b)
        ))
        assert all(0 not in row.values() for row in got)
        want = np.array(a, dtype=object) @ np.array(b, dtype=object)
        assert [[row.get(j, 0) for j in range(width)] for row in got] == want.tolist()


def test_sparse_mul_keeps_empty_rows_and_drops_cancelled_entries():
    a = [{}, {0: 1, 1: 1}, {}, {1: Fraction(1, 2)}]
    b = [{0: 2, 1: 3}, {0: -2, 2: 4}]
    got = exact.sparse_mul(a, b)
    assert got == [{}, {1: 3, 2: 4}, {}, {0: -1, 2: 2}]
    assert got[0] is not a[0] and got[2] is not a[2]
    assert exact.sparse_mul([{}], []) == [{}]
