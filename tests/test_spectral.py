"""Spectral radii of nonnegative integer matrices against numpy."""

import math
import random

import pytest

from fpq.errors import InputError
from fpq.spectral import (
    as_integer,
    gamma_matrix,
    gamma_radius_closed,
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
        assert spectral_radius(a) == pytest.approx(numpy_radius(a), abs=1e-8)


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


def test_as_integer_round_verify():
    assert as_integer(2.0000000001) == 2
    assert as_integer(2.5) is None
    assert as_integer(0.0) == 0
