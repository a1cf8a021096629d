"""Spectral radii of nonnegative integer matrices against numpy."""

import itertools
import math
import random

import pytest

from fpq import spectral
from fpq.errors import InputError, NoConvergenceError
from fpq.spectral import (
    gamma_matrix,
    gamma_radius_closed,
    integer_radius,
    spectral_radius,
    strongly_connected_components,
)
from oracles import numpy_components, numpy_radius, radius_sign


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


def test_scc_matches_a_numpy_reachability_oracle():
    """Seeded digraphs on 0..40 vertices, sparse to dense, with self-loops
    and successors listed more than once: the same components, each in
    ascending order, and no component reaches a later one."""
    rng = random.Random(25)
    sizes = set()
    for t in range(80):
        n = rng.randint(0, 40)
        density = (0.02, 0.05, 0.1, 0.5)[t % 4]
        succ = []
        for i in range(n):
            out = [j for j in range(n) if j != i and rng.random() < density]
            out += rng.sample(out, len(out) // 2)  # repeated successors
            if rng.random() < 0.3:
                out.append(i)  # a self-loop
            rng.shuffle(out)
            succ.append(out)
        comps = strongly_connected_components(succ, n)
        want, reach = numpy_components(succ, n)
        assert sorted(comps) == want
        assert all(c == sorted(c) for c in comps)
        for p, c in enumerate(comps):
            assert not any(reach[c[0], d[0]] for d in comps[p + 1:])
        sizes.update(len(c) for c in comps)
    assert 1 in sizes and max(sizes) > 20 and len(sizes) > 5


def test_power_iteration_reads_its_cap_at_call_time(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_ITER", 1)
    with pytest.raises(NoConvergenceError, match="within 1 iterations"):
        spectral_radius([[1, 1], [1, 0]])


def test_random_matrices_match_numpy():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        rho, want = spectral_radius(a), numpy_radius(a)
        assert rho == pytest.approx(want, abs=1e-8)
        near = abs(want - round(want)) <= 1e-9
        assert (integer_radius(a, rho) is not None) == near


def _seeded_nonnegative(seed, count):
    """Seeded nonnegative integer matrices up to 6 x 6: dense and sparse
    ones (often reducible), and ones with equal row sums, whose radius is
    that sum, so integer radii are common."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n = rng.randint(1, 6)
        if t % 3 == 2:
            s = rng.randint(1, 4)
            a = [[0] * n for _ in range(n)]
            for row in a:
                for _ in range(s):
                    row[rng.randrange(n)] += 1
        else:
            p = 0.3 if t % 3 else 0.8
            a = [[rng.randint(1, 3) if rng.random() < p else 0 for _ in range(n)]
                 for _ in range(n)]
        out.append(a)
    return out


def test_integer_radius_matches_an_exact_oracle_at_every_k():
    """integer_radius(a, k) is k exactly when sympy's real-root count puts
    the radius at k, for every k in 0..ceil(rho) + 1."""
    reached = 0
    for a in _seeded_nonnegative(9, 150):
        top = math.ceil(numpy_radius(a) - 1e-9) + 1
        for k in range(top + 1):
            at = radius_sign(a, k) == 0
            assert integer_radius(a, float(k)) == (k if at else None), (a, k)
            reached += at
    assert reached > 60


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
    for build in (gamma_matrix, gamma_radius_closed):
        with pytest.raises(InputError, match="n must be >= 1"):
            build(0)
    assert gamma_radius_closed(4) == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-12)
    for n in range(1, 31):
        g = gamma_matrix(n)
        want = gamma_radius_closed(n)
        assert spectral_radius(g) == pytest.approx(want, abs=1e-9)
        assert numpy_radius(g) == pytest.approx(want, abs=1e-9)
        assert want >= math.sqrt(n) - 1e-12


def test_integer_radius_is_proven_exactly():
    # a leading minor of kI - B before D_n is not positive, or D_n < 0: rho > k
    a = [[2000000, 1], [1, 0]]  # rho = 10^6 + 5e-7
    assert integer_radius(a, spectral_radius(a)) is None
    assert integer_radius([[1, 1], [1, 1]], 1.0) is None
    # D_1 > 0 and det(kI - B) = 0: rho = k
    assert integer_radius([[1, 1], [1, 1]], 2.0) == 2
    # D_1 = 0: 0 is an eigenvalue but not the radius 3
    assert integer_radius([[1] * 3] * 3, 0.0) is None
    # every leading minor positive: every block is below k
    assert integer_radius([[0, 1], [1, 0]], 1.6) is None
    # integer eigenvalues below rho are not the radius
    pairs = list(itertools.combinations(range(5), 2))  # adjacent when disjoint
    petersen = [[int(not set(u) & set(v)) for v in pairs] for u in pairs]
    assert integer_radius(petersen, 1.0) is None  # eigenvalues 3, 1, -2
    assert integer_radius(petersen, 3.0) == 3
    k33 = [[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)]
    assert integer_radius(k33, 0.0) is None  # eigenvalues 3, 0, -3
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
