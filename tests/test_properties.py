"""Property-based tests for algebraic invariants.

Each property is a statement that must hold for *every* input in its
domain, so hypothesis drives randomized search over seeds and small
shapes rather than fixed examples.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fpq import exact
from fpq.engine import fpd_exact
from fpq.quiver import (
    dim_ext1,
    dual,
    euler_form,
    hom_dim,
    random_acyclic_quiver,
    random_representation,
    tensor_vertexwise,
)
from fpq.spectral import spectral_radius
from fpq.typea import OrientationWord, interval_rep

from oracles import numpy_radius

seeds = st.integers(min_value=0, max_value=10**6)
words = st.text(alphabet="><", min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_euler_form_counts_hom_minus_ext(seed):
    q = random_acyclic_quiver(4, seed)
    m = random_representation(q, 3, seed=seed + 1)
    n = random_representation(q, 3, seed=seed + 2)
    lhs = hom_dim(m, n) - dim_ext1(m, n)
    assert lhs == euler_form(q, m.dims, n.dims)


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_dual_swaps_hom_arguments(seed):
    q = random_acyclic_quiver(4, seed)
    m = random_representation(q, 3, seed=seed + 3)
    n = random_representation(q, 3, seed=seed + 4)
    assert hom_dim(m, n) == hom_dim(dual(n), dual(m))


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_tensor_dims_multiply_vertexwise(seed):
    q = random_acyclic_quiver(4, seed)
    m = random_representation(q, 3, seed=seed + 5)
    n = random_representation(q, 3, seed=seed + 6)
    t = tensor_vertexwise(m, n)
    assert t.dims == tuple(a * b for a, b in zip(m.dims, n.dims))


@settings(max_examples=25, deadline=None)
@given(seed=seeds, size=st.integers(min_value=1, max_value=5))
def test_spectral_radius_matches_numpy(seed, size):
    import random

    rng = random.Random(seed)
    a = [[rng.randint(0, 3) for _ in range(size)] for _ in range(size)]
    assert abs(spectral_radius(a) - numpy_radius(a)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=seeds, size=st.integers(min_value=2, max_value=5))
def test_spectral_radius_permutation_invariant(seed, size):
    import random

    rng = random.Random(seed)
    a = [[rng.randint(0, 3) for _ in range(size)] for _ in range(size)]
    perm = list(range(size))
    rng.shuffle(perm)
    b = [[a[perm[i]][perm[j]] for j in range(size)] for i in range(size)]
    assert abs(spectral_radius(a) - spectral_radius(b)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=seeds, size=st.integers(min_value=2, max_value=5))
def test_spectral_radius_monotone_in_principal_submatrix(seed, size):
    import random

    rng = random.Random(seed)
    a = [[rng.randint(0, 3) for _ in range(size)] for _ in range(size)]
    keep = sorted(rng.sample(range(size), rng.randint(1, size)))
    sub = [[a[i][j] for j in keep] for i in keep]
    assert spectral_radius(sub) <= spectral_radius(a) + 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=seeds, rows=st.integers(min_value=1, max_value=4),
       cols=st.integers(min_value=1, max_value=4))
def test_rref_is_idempotent(seed, rows, cols):
    import random

    rng = random.Random(seed)
    ncols = rng.randint(0, cols)  # later columns ride along
    given = [
        {j: x for j in range(cols) if (x := Fraction(rng.randint(-4, 4)))}
        for _ in range(rows)
    ]
    pivots, reduced, rest = exact.eliminate(given, ncols)
    again = [dict(row) for row in reduced + rest]
    assert exact.eliminate(again, ncols) == (pivots, reduced, rest)
    assert again == reduced + rest


@settings(max_examples=15, deadline=None)
@given(word=words, seed=seeds)
def test_interval_fpd_is_a_nonnegative_integer(word, seed):
    import random

    w = OrientationWord(word)
    q = w.to_quiver()
    rng = random.Random(seed)
    i = rng.randint(1, w.n)
    j = rng.randint(i, w.n)
    report = fpd_exact(interval_rep(w, (i, j), q))
    assert isinstance(report.value, int)
    assert report.value >= 0
