"""Spectral radii of nonnegative integer matrices against numpy."""

import math
import random

import pytest

from fpq.errors import InputError
from fpq.spectral import (
    gamma_matrix,
    gamma_radius_closed,
    integer_radius,
    spectral_radius,
    strongly_connected_components,
)
from oracles import numpy_radius


def test_input_validation():
    with pytest.raises(InputError):
        spectral_radius([[1, 2]])
    with pytest.raises(InputError):
        spectral_radius([[-1]])
    with pytest.raises(InputError):
        spectral_radius([[0.5]])


def test_triangular_and_tiny_cases():
    assert spectral_radius([]) == 0.0
    assert spectral_radius([[7]]) == 7.0
    assert spectral_radius([[0, 5], [0, 0]]) == 0.0  # nilpotent
    assert spectral_radius([[2, 9], [0, 3]]) == 3.0  # triangular: max diagonal
    assert spectral_radius([[0, 1], [1, 0]]) == pytest.approx(1.0, abs=1e-10)


def test_scc_reverse_topological_order():
    # 0 -> 1 -> 2 with a 2-cycle {1, 2}: components {1,2} then {0}
    succ = [[1], [2], [1]]
    comps = strongly_connected_components(succ, 3)
    assert sorted(map(sorted, comps)) == [[0], [1, 2]]
    order = {min(c): k for k, c in enumerate(comps)}
    assert order[1] < order[0]


def test_random_matrices_match_numpy():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        rho, want = spectral_radius(a), numpy_radius(a)
        assert rho == pytest.approx(want, abs=1e-8)
        near = abs(want - round(want)) <= 1e-9
        assert (integer_radius(a, rho) is not None) == near


def test_block_structure_takes_the_max():
    a = [
        [0, 2, 0, 0],
        [2, 0, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ]
    assert spectral_radius(a) == pytest.approx(2.0, abs=1e-10)


def test_gamma_closed_form():
    assert gamma_matrix(3) == [[1, 1, 1], [1, 0, 0], [1, 0, 0]]
    assert gamma_radius_closed(4) == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-12)
    for n in range(1, 31):
        g = gamma_matrix(n)
        want = gamma_radius_closed(n)
        assert spectral_radius(g) == pytest.approx(want, abs=1e-9)
        assert numpy_radius(g) == pytest.approx(want, abs=1e-9)
        assert want >= math.sqrt(n) - 1e-12


def test_integer_radius_is_proven_exactly():
    # kI - B nonsingular with a negative entry in its inverse: rho > k
    a = [[2000000, 1], [1, 0]]  # rho = 10^6 + 5e-7
    assert integer_radius(a, spectral_radius(a)) is None
    assert integer_radius([[1, 1], [1, 1]], 1.0) is None
    # singular, kernel spanned by the positive vector (1, 1)
    assert integer_radius([[1, 1], [1, 1]], 2.0) == 2
    # singular with a two-dimensional kernel: 0 is not the radius 3
    assert integer_radius([[1] * 3] * 3, 0.0) is None
    # nonsingular with (kI - B)^-1 >= 0: every block is below k
    assert integer_radius([[0, 1], [1, 0]], 1.6) is None
    # permuted triangular: 1x1 blocks give their entries
    assert integer_radius([[0, 0, 5], [4, 3, 0], [0, 0, 2]], 3.0) == 3
    assert integer_radius([[0, 5], [0, 0]], 0.0) == 0
    assert integer_radius([], 0.0) == 0
    # a block above k vetoes one that reaches it: rho(Gamma_4) = 2.30 > 2
    hub = [row + [0, 0] for row in gamma_matrix(4)]
    assert integer_radius(hub + [[0] * 4 + [1, 1]] * 2, 2.3) is None
    integral = [
        n for n in range(1, 51)
        if integer_radius(gamma_matrix(n), gamma_radius_closed(n)) is not None
    ]
    assert integral == [n for n in range(1, 51) if math.isqrt(4 * n - 3) ** 2
                        == 4 * n - 3]
