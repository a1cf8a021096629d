"""Exact rational linear algebra against numpy and hand values."""

import random
from fractions import Fraction

import numpy as np

from fpq import exact


def rand_matrix(rows, cols, seed, span=3):
    rng = random.Random(seed)
    return [
        [Fraction(rng.randint(-span, span)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rref_hand_example():
    m = exact.mat_from([[0, 2, 4], [1, 1, 1], [2, 4, 6]])
    r, pivots = exact.rref(m)
    assert pivots == [0, 1]
    assert r[0] == [1, 0, Fraction(-1)]
    assert r[1] == [0, 1, 2]
    assert r[2] == [0, 0, 0]


def test_rank_matches_numpy():
    for seed in range(25):
        m = rand_matrix(4, 5, seed)
        got = exact.rank(m)
        want = np.linalg.matrix_rank(np.array(m, dtype=float))
        assert got == want


def test_nullspace_is_kernel_basis():
    for seed in range(20):
        m = rand_matrix(3, 5, seed)
        basis = exact.nullspace(m, 5)
        assert len(basis) == 5 - exact.rank(m)
        for v in basis:
            assert exact.is_zero_matrix(exact.mat_mul(m, [[x] for x in v]))
        if basis:
            assert exact.rank([list(v) for v in basis]) == len(basis)


def test_solve_roundtrip_and_inconsistent():
    a = exact.mat_from([[1, 2], [3, 4], [5, 6]])
    x = exact.mat_from([[1], [Fraction(1, 2)]])
    b = exact.mat_mul(a, x)
    got = exact.solve(a, b)
    assert exact.mat_mul(a, got) == b
    assert exact.solve(a, [[1], [0], [0]]) is None


def test_invert_roundtrip_and_singular():
    m = exact.mat_from([[2, 1], [1, 1]])
    inv = exact.invert(m)
    assert exact.mat_mul(m, inv) == exact.identity(2)
    assert exact.invert(exact.mat_from([[1, 2], [2, 4]])) is None


def test_kron_agrees_with_numpy():
    a = rand_matrix(2, 3, 7)
    b = rand_matrix(3, 2, 8)
    got = np.array(exact.kron(a, b), dtype=float)
    want = np.kron(np.array(a, dtype=float), np.array(b, dtype=float))
    assert np.array_equal(got, want)


def test_kron_empty_factor_gives_empty_product():
    b = exact.mat_from([[1, 2]])
    got = exact.kron([], b, sa=(0, 2), sb=(1, 2))
    assert got == []


def test_block_diag():
    a = exact.mat_from([[1]])
    b = exact.mat_from([[2, 3]])
    d = exact.block_diag(a, b)
    assert d == [[1, 0, 0], [0, 2, 3]]
