"""Quivers, representations, hom/ext spaces, and the Euler form."""

import math
import random
from fractions import Fraction

import pytest

from fpq import quiver as quiver_module
from fpq.errors import (
    BadArrowError,
    CyclicQuiverError,
    DuplicateLabelError,
    InputError,
    ShapeError,
    WrongQuiverError,
)
from fpq.quiver import (
    MAX_ARROWS,
    MAX_DIM,
    MAX_MAP_ENTRIES,
    MAX_VERTICES,
    Quiver,
    Representation,
    dim_ext1,
    dual,
    euler_form,
    hom_dim,
    identity_rep,
    opposite,
    random_acyclic_quiver,
    random_representation,
    simple,
    tensor_vertexwise,
    zero_rep,
)
from fpq.typea import OrientationWord, all_intervals, interval_rep
from oracles import ar_ext1, direct_sum, hom_basis, is_isomorphic, sympy_hom_dim

A2 = Quiver(2, [("a", 1, 2)])
S1 = simple(A2, 1)
S2 = simple(A2, 2)
M12 = Representation(A2, [1, 1], {"a": [[1]]})


def test_quiver_validation():
    with pytest.raises(CyclicQuiverError):
        Quiver(2, [("a", 1, 2), ("b", 2, 1)])
    with pytest.raises(CyclicQuiverError):
        Quiver(1, [("a", 1, 1)])
    with pytest.raises(BadArrowError):
        Quiver(2, [("a", 1, 3)])
    with pytest.raises(DuplicateLabelError):
        Quiver(3, [("a", 1, 2), ("a", 2, 3)])


def test_representation_shape_checks():
    with pytest.raises(ShapeError):
        Representation(A2, [1], {})
    with pytest.raises(ShapeError):
        Representation(A2, [1, 1], {"a": [[1], [2]]})
    with pytest.raises(InputError):
        Representation.from_dict({"dims": [1, 1], "maps": {"zz": [[1]]}}, A2)


def test_from_dict_rejects_sizes_past_the_input_limits():
    arrow = {"id": "a", "from": 1, "to": 2}
    assert Quiver.from_dict({"vertices": MAX_VERTICES}).n == MAX_VERTICES
    for data in ({"vertices": MAX_VERTICES + 1},
                 {"vertices": 2, "arrows": [arrow] * (MAX_ARROWS + 1)}):
        with pytest.raises(InputError, match="quiver too large"):
            Quiver.from_dict(data)
    side = math.isqrt(MAX_MAP_ENTRIES) + 1  # each dim allowed, the map not
    for dims in ([MAX_DIM + 1, 0], [side, side]):
        with pytest.raises(InputError, match="representation too large"):
            Representation.from_dict({"dims": dims}, A2)
    assert Representation.from_dict({"dims": [MAX_DIM, 0]}, A2).dims == (MAX_DIM, 0)


def test_hom_dimensions_on_the_two_vertex_line():
    """Frozen values for 1 -> 2: the projective M12 maps onto S2, and S1
    is its top."""
    assert hom_dim(S1, S1) == 1
    assert hom_dim(S1, S2) == 0
    assert hom_dim(S2, S1) == 0
    assert hom_dim(S1, M12) == 0
    assert hom_dim(M12, S1) == 1
    assert hom_dim(S2, M12) == 1
    assert hom_dim(M12, S2) == 0
    assert hom_dim(M12, M12) == 1


def test_ext_dimensions_on_the_two_vertex_line():
    assert dim_ext1(S1, S2) == 1
    assert dim_ext1(S2, S1) == 0
    assert dim_ext1(S1, M12) == 0
    assert dim_ext1(M12, S2) == 0
    assert dim_ext1(M12, M12) == 0


def test_hom_space_basis_commutes_with_arrows():
    big = direct_sum(M12, S1)  # Hom(M12, M12) + Hom(M12, S1) = 2
    basis = hom_basis(M12, big)
    assert len(basis) == hom_dim(M12, big) == 2
    a_m = M12.map_for("a")
    a_n = big.map_for("a")
    for blocks in basis:
        f1, f2 = (f.tolist() for f in blocks)  # one block per vertex
        lhs = [[sum(a_n[i][k] * f1[k][j] for k in range(len(f1)))
                for j in range(len(f1[0]))] for i in range(len(a_n))]
        rhs = [[sum(f2[i][k] * a_m[k][j] for k in range(len(a_m)))
                for j in range(len(a_m[0]))] for i in range(len(f2))]
        assert lhs == rhs


def test_euler_form_identity_random():
    for seed in range(40):
        q = random_acyclic_quiver(5, seed)
        m = random_representation(q, 3, seed=100 + seed)
        n = random_representation(q, 3, seed=200 + seed)
        lhs = hom_dim(m, n) - dim_ext1(m, n)
        assert lhs == euler_form(q, list(m.dims), list(n.dims))


def test_tensor_vertexwise_dims_and_unit():
    m = random_representation(A2, 3, seed=5)
    n = random_representation(A2, 3, seed=6)
    t = tensor_vertexwise(m, n)
    assert t.dims == tuple(a * b for a, b in zip(m.dims, n.dims))
    u = identity_rep(A2)
    assert tensor_vertexwise(u, m) == m
    assert tensor_vertexwise(m, u) == m


def test_tensor_requires_matching_quivers():
    other = Quiver(2, [("b", 1, 2)])
    with pytest.raises(WrongQuiverError):
        tensor_vertexwise(M12, simple(other, 1))


def test_dual_reverses_homs():
    q_op = opposite(A2)
    assert [(a.source, a.target) for a in q_op.arrows] == [(2, 1)]
    for x, y in [(S1, S2), (M12, S1), (S2, M12), (M12, M12)]:
        assert hom_dim(x, y) == hom_dim(dual(y), dual(x))
        assert dual(dual(x)) == x


def test_direct_sum_adds_hom_dims():
    s = direct_sum(S1, M12)
    assert s.dims == (2, 1)
    assert hom_dim(s, M12) == hom_dim(S1, M12) + hom_dim(M12, M12)


def test_is_isomorphic_basic():
    twisted = Representation(A2, [1, 1], {"a": [[-7]]})
    assert is_isomorphic(M12, twisted) is True
    assert is_isomorphic(M12, simple(A2, 1)) is False  # dims differ
    # same dims, but End has dimension 1 against 2: a proof of "no"
    assert is_isomorphic(M12, direct_sum(S1, S2)) is False
    assert is_isomorphic(zero_rep(A2), zero_rep(A2)) is True


def test_representation_roundtrip():
    m = random_representation(A2, 3, seed=9)
    back = Representation.from_dict(m.to_dict())
    assert back == m and back.quiver == A2


def fractional_representation(q, max_dim, seed):
    """Seeded random representation whose entries have denominators."""
    rng = random.Random(seed)
    dims = [rng.randint(0, max_dim) for _ in range(q.n)]
    maps = {
        a.id: [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 6))
             for _ in range(dims[a.source - 1])]
            for _ in range(dims[a.target - 1])
        ]
        for a in q.arrows
    }
    return Representation(q, dims, maps)


def test_hom_dim_matches_sympy_oracle_on_random_pairs():
    for seed in range(16):
        q = random_acyclic_quiver(6, 700 + seed)
        m = random_representation(q, 3, seed=800 + 2 * seed)
        n = random_representation(q, 3, seed=801 + 2 * seed)
        for x, y in [(m, n), (n, m), (m, m), (m, direct_sum(m, n))]:
            assert hom_dim(x, y) == sympy_hom_dim(x, y)


def test_ext1_matches_auslander_reiten_oracle():
    """dim_ext1 (hom minus the Euler form) against Hom(N, tau M) with tau
    built by reflection functors: an independent route to Ext^1."""
    pairs = []
    for seed in range(32):
        q = random_acyclic_quiver(5, 1200 + seed)
        pairs.append((random_representation(q, 2, seed=1300 + 2 * seed),
                      random_representation(q, 2, seed=1301 + 2 * seed)))
    w = OrientationWord("><>")
    q = w.to_quiver()
    intervals = [interval_rep(w, v, q) for v in all_intervals(w.n)]
    pairs.extend((m, n) for m in intervals for n in intervals)
    assert len(pairs) == 132
    for m, n in pairs:
        assert dim_ext1(m, n) == ar_ext1(m, n), (m.quiver, m.dims, n.dims)


def test_hom_dim_matches_sympy_oracle_on_tensors():
    """The two sides of the duality triples: Hom(M (x) N, X) and
    Hom(X*, M* (x) N*)."""
    for seed in range(8):
        q = random_acyclic_quiver(6, 900 + seed)
        m, n, x = (random_representation(q, 3, seed=950 + 3 * seed + k)
                   for k in range(3))
        t = tensor_vertexwise(m, n)
        assert hom_dim(t, x) == sympy_hom_dim(t, x)
        t_dual = tensor_vertexwise(dual(m), dual(n))
        assert hom_dim(dual(x), t_dual) == sympy_hom_dim(dual(x), t_dual)


def test_hom_dim_matches_sympy_oracle_with_denominators():
    for seed in range(12):
        q = random_acyclic_quiver(6, 1000 + seed)
        m = fractional_representation(q, 3, seed=1100 + 2 * seed)
        n = fractional_representation(q, 3, seed=1101 + 2 * seed)
        for x, y in [(m, n), (m, m), (direct_sum(m, n), m)]:
            assert hom_dim(x, y) == sympy_hom_dim(x, y)


def test_equal_content_means_equal_representations():
    q = random_acyclic_quiver(5, 3)
    a = random_representation(q, 3, seed=1200)
    b = random_representation(q, 3, seed=1200)
    assert a is not b
    assert a == b and hash(a) == hash(b) and a.key() == b.key()
    cache = quiver_module._HOM_DIM_CACHE
    d = hom_dim(a, a)
    size = len(cache)
    assert hom_dim(b, b) == d
    assert len(cache) == size  # b found a's entry
    assert {a, b} == {a}


def test_one_differing_entry_makes_representations_unequal():
    maps = {"a": [[1, 0], [0, 0]]}
    m = Representation(A2, [2, 2], maps)  # M12 + S1 + S2
    changed = Representation(A2, [2, 2], {"a": [[1, 0], [0, 1]]})  # M12 + M12
    assert m == Representation(A2, [2, 2], maps)
    assert m != changed and m.key() != changed.key()
    assert hom_dim(m, m) == 5
    assert hom_dim(changed, changed) == 4


def test_separately_built_equal_quivers_work_together():
    q1 = Quiver(3, [("a", 1, 2), ("b", 2, 3)])
    q2 = Quiver(3, [("a", 1, 2), ("b", 2, 3)])
    assert q1 is not q2 and q1 == q2 and hash(q1) == hash(q2)
    m = Representation(q1, [1, 1, 0], {"a": [[1]]})
    assert hom_dim(simple(q2, 2), m) == 1
    assert tensor_vertexwise(m, identity_rep(q2)) == m
    assert Representation(q2, [1, 1, 0], {"a": [[1]]}) == m
    other = Quiver(3, [("a", 1, 2), ("b", 3, 2)])
    assert other != q1
    with pytest.raises(WrongQuiverError):
        hom_dim(m, simple(other, 2))
    with pytest.raises(WrongQuiverError):
        direct_sum(m, simple(other, 2))


def test_building_a_representation_does_not_intern_it():
    table = quiver_module._REP_IDS
    q = random_acyclic_quiver(4, 11)
    before = len(table)
    m = random_representation(q, 3, seed=1300)
    tensor_vertexwise(m, m)
    assert len(table) == before
    m.key()
    assert len(table) == before + 1
