"""Quivers, representations, hom/ext spaces, and the Euler form."""

import copy
import gc
import json
import math
import random
from fractions import Fraction

import pytest

from fpq import quiver as quiver_module
from fpq.errors import (
    BadArrowError,
    CyclicQuiverError,
    DimensionGuardError,
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
    hom_row,
    identity_rep,
    opposite,
    random_acyclic_quiver,
    random_representation,
    simple,
    tensor_vertexwise,
    zero_rep,
)
from fpq.typea import OrientationWord, all_intervals, interval_rep
from oracles import (
    ar_ext1,
    direct_sum,
    hom_basis,
    is_canonical,
    is_isomorphic,
    sympy_hom_dim,
)

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
    with pytest.raises(BadArrowError, match="vertex count must be nonnegative"):
        Quiver(-1, [])


def test_representation_shape_checks():
    with pytest.raises(ShapeError):
        Representation(A2, [1], {})
    with pytest.raises(ShapeError):
        Representation(A2, [1, 1], {"a": [[1], [2]]})
    with pytest.raises(ShapeError, match="negative dimension"):
        Representation(A2, [-1, 1], {})
    with pytest.raises(ShapeError, match="one matrix per arrow required"):
        Representation(A2, [1, 1], [])
    with pytest.raises(InputError):
        Representation.from_dict({"dims": [1, 1], "maps": {"zz": [[1]]}}, A2)
    with pytest.raises(InputError, match="needs an embedded quiver"):
        Representation.from_dict({"dims": [1, 1]})
    with pytest.raises(InputError, match="vertex 3 outside 1..2"):
        simple(A2, 3)
    with pytest.raises(ShapeError, match="one entry per vertex"):
        euler_form(A2, [1], [1, 1])


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


def _rational_pairs(seed, count):
    """Seeded pairs over random acyclic quivers: dims in 0..2, so many
    vertices are zero-dimensional, and every entry p/q with |p| <= 3 and
    1 <= q <= 3."""
    rng = random.Random(seed)
    for k in range(count):
        q = random_acyclic_quiver(4, seed=seed + k)

        def rep():
            dims = [rng.randint(0, 2) for _ in range(q.n)]
            return Representation(q, dims, [
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(dims[a.source - 1])]
                 for _ in range(dims[a.target - 1])]
                for a in q.arrows
            ])

        yield rep(), rep()


def _well_formed(t):
    """Int dims in a tuple, one tuple of tuple rows per arrow, every entry
    (zeros included) canonical."""
    assert type(t.dims) is tuple and all(type(d) is int for d in t.dims)
    assert type(t.maps) is tuple and len(t.maps) == len(t.quiver.arrows)
    for mat in t.maps:
        assert type(mat) is tuple and all(type(row) is tuple for row in mat)
        assert all(is_canonical(v) for row in mat for v in row)


def test_trusted_builders_give_what_the_checked_constructor_builds():
    """tensor_vertexwise and dual return without re-validating their maps;
    the checked constructor rebuilds an equal representation from their
    dims and maps, on pairs with zero-dimensional vertices and p/q
    entries."""
    zero_vertex = False
    for m, n in _rational_pairs(41, 30):
        zero_vertex |= 0 in m.dims + n.dims
        for t in (tensor_vertexwise(m, n), dual(m)):
            assert Representation(t.quiver, t.dims, t.maps) == t
            _well_formed(t)
        assert dual(dual(m)) == m
    assert zero_vertex


def test_dual_builds_the_opposite_quiver_once():
    q = random_acyclic_quiver(4, seed=5)
    m = random_representation(q, 2, seed=6)
    assert dual(m).quiver is dual(m).quiver is opposite(q)
    assert opposite(opposite(q)) is q
    assert dual(dual(m)).quiver is q


def test_the_opposite_quiver_is_the_checked_reversed_quiver(monkeypatch):
    """opposite builds without validate_quiver what the checked
    constructor builds from the reversed arrows, down to the interned id."""
    for seed in range(8):
        q = random_acyclic_quiver(5, seed=seed)
        reversed_arrows = [(a.id, a.target, a.source) for a in q.arrows]
        want = Quiver(q.n, reversed_arrows)
        monkeypatch.setattr(quiver_module, "validate_quiver", None)
        op = opposite(q)
        monkeypatch.undo()
        assert op == want and op._ident() == want._ident()
        assert op.arrows == want.arrows and op.to_dict() == want.to_dict()
        assert [op.arrow_index(a.id) for a in op.arrows] == list(range(len(op.arrows)))
        assert opposite(op) is q and opposite(opposite(q)) is q


def test_a_cycle_is_still_listed_in_the_error(monkeypatch):
    """Arrows that all run up the vertex order skip the topological sort;
    any other quiver is sorted, and a cycle is reported as before."""
    monkeypatch.setattr(quiver_module.graphlib, "TopologicalSorter", None)
    assert random_acyclic_quiver(6, seed=3).n >= 2
    assert OrientationWord(">>>").to_quiver().n == 4
    monkeypatch.undo()
    cases = [
        ([("a", 1, 2), ("b", 2, 1)], "quiver has a directed cycle: [1, 2, 1]"),
        ([("a", 1, 2), ("b", 2, 3), ("c", 3, 1)],
         "quiver has a directed cycle: [1, 2, 3, 1]"),
        ([("x", 3, 1), ("y", 1, 2), ("z", 2, 3), ("w", 1, 3)],
         "quiver has a directed cycle: [1, 2, 3, 1]"),
    ]
    for arrows, message in cases:
        with pytest.raises(CyclicQuiverError) as err:
            Quiver(3, arrows)
        assert str(err.value) == message
    assert Quiver(3, [("a", 3, 1), ("b", 3, 2), ("c", 2, 1)]).n == 3
    with pytest.raises(BadArrowError):
        Quiver(2, [("a", 1, 2), ("b", 2, 3)])
    with pytest.raises(DuplicateLabelError):
        Quiver(3, [("a", 1, 2), ("a", 2, 3)])


def test_tensor_over_the_map_entry_limit_raises_before_allocating():
    """On A_2 the product's map has dims[2] * dims[1] entries: exactly
    MAX_MAP_ENTRIES is built, one more row is refused."""
    assert MAX_MAP_ENTRIES == 1000 * 1000
    wide = Representation(A2, [1000, 1], {})
    tall = Representation(A2, [1, 1000], {})
    assert tensor_vertexwise(wide, tall).dims == (1000, 1000)
    with pytest.raises(DimensionGuardError):
        tensor_vertexwise(Representation(A2, [1001, 1], {}), tall)


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


def test_an_integral_entry_is_an_int_however_it_is_given():
    """Fraction(4, 2), 2 and the JSON string "4/2" are one entry, the int
    2, and give one representation; "1/2" stays a Fraction; a JSON true
    is still not a number."""
    def from_json(text):
        return Representation.from_dict(json.loads(text), quiver=A2)

    built = [
        Representation(A2, [1, 1], {"a": [[Fraction(4, 2)]]}),
        Representation(A2, [1, 1], {"a": [[2]]}),
        from_json('{"dims": [1, 1], "maps": {"a": [["4/2"]]}}'),
    ]
    for m in built:
        assert m.maps == (((2,),),) and type(m.maps[0][0][0]) is int
    assert len({m.key() for m in built}) == 1
    half = from_json('{"dims": [1, 1], "maps": {"a": [["1/2"]]}}').maps[0][0][0]
    assert type(half) is Fraction and half == Fraction(1, 2)
    with pytest.raises(InputError) as info:
        from_json('{"dims": [1, 1], "maps": {"a": [[true]]}}')
    assert info.value.code == "bad_input"


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


# 1 -> 2 twice (a, b), 2 -> 3 (c) and 1 -> 3 (d)
PARALLEL = Quiver(3, [("a", 1, 2), ("b", 1, 2), ("c", 2, 3), ("d", 1, 3)])


def _seeded(dims, entries, seed):
    rng = random.Random(seed)
    return Representation(PARALLEL, dims, {
        a.id: [[rng.choice(entries) for _ in range(dims[a.source - 1])]
               for _ in range(dims[a.target - 1])]
        for a in PARALLEL.arrows
    })


def test_hom_row_matches_the_sympy_and_auslander_reiten_oracles(monkeypatch):
    """hom_row, cold and then from the memo, at every relative degree:
    sympy's nullity at 0, Hom(N, tau M) at 1 and 0 elsewhere, on seeded
    pairs over a quiver with parallel arrows, among them M zero at the
    source of a, b and d, M zero at the target of a and b but not at their
    source (the -N_a . f_s equations alone), all-zero maps and Fraction
    entries."""
    ints, zero = range(-2, 3), [0]
    fracs = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    cases = [([0, 2, 1], ints), ([2, 0, 1], ints), ([2, 2, 2], zero),
             ([2, 1, 2], fracs), ([1, 2, 1], ints), ([2, 2, 1], fracs)]
    reps = [_seeded(dims, entries, 3000 + k) for k, (dims, entries) in enumerate(cases)]
    reps += [random_representation(PARALLEL, 2, seed=3100 + k) for k in range(3)]
    monkeypatch.setattr(quiver_module, "HOM_MEMO", {})
    cols = [(n.key(), t, n) for n in reps for t in (-1, 0, 1, 2)]
    for m in reps:
        want = [sympy_hom_dim(m, n) if t == 0 else ar_ext1(m, n) if t == 1 else 0
                for _, t, n in cols]
        assert hom_row(m, cols, 0) == want, m.dims
        assert hom_row(m, [(b, t + 5, n) for b, t, n in cols], 5) == want
        assert [hom_dim(m, n) for n in reps] == want[1::4]
        assert [dim_ext1(m, n) for n in reps] == want[2::4]
    assert len(quiver_module.HOM_MEMO) == 2 * len(reps) ** 2


def test_hom_system_budget_weighs_equations_times_unknowns(monkeypatch):
    """On A_2 with dims [2, 3] against [4, 5] the system has 5 * 2 = 10
    equations in 4 * 2 + 5 * 3 = 23 unknowns: it is built at a budget of
    230 and refused, unremembered, at 229.  A system without equations
    passes any budget."""
    m, n = (Representation(A2, dims, {"a": [[1] * dims[0]] * dims[1]})
            for dims in ([2, 3], [4, 5]))
    monkeypatch.setattr(quiver_module, "HOM_MEMO", {})
    monkeypatch.setattr(quiver_module, "MAX_HOM_SYSTEM", 229)
    with pytest.raises(DimensionGuardError, match="10 equations in 23 unknowns"):
        hom_dim(m, n)
    assert quiver_module.HOM_MEMO == {}
    monkeypatch.setattr(quiver_module, "MAX_HOM_SYSTEM", 0)
    big = Representation(A2, [50, 0], {})
    assert hom_dim(big, big) == 2500
    monkeypatch.setattr(quiver_module, "MAX_HOM_SYSTEM", 230)
    assert hom_dim(m, n) == sympy_hom_dim(m, n)


def test_a_rank_past_the_hom_dimension_is_caught_as_negative_ext(monkeypatch):
    """Ext^1 = Hom - <dim m, dim n> can go negative only when the hom
    bookkeeping is wrong; a rank that over-counts by one makes it so."""
    from fpq import exact

    rank = exact.rank
    monkeypatch.setattr(exact, "rank", lambda rows, ncols: rank(rows, ncols) + 1)
    monkeypatch.setattr(quiver_module, "HOM_MEMO", {})
    with pytest.raises(ShapeError, match="negative ext dimension -1"):
        dim_ext1(M12, M12)


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
    assert copy.deepcopy(a) == a == copy.copy(a)
    cache = quiver_module.HOM_MEMO
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
    gc.collect()  # ids held only by garbage cycles (a quiver and its opposite) go now
    before = len(table)
    m = random_representation(q, 3, seed=1300)
    tensor_vertexwise(m, m)
    assert len(table) == before
    m.key()
    assert len(table) == before + 1


def test_intern_entries_die_with_their_last_holder():
    """The intern tables hold ids weakly: representations interned and
    measured (their duals over opposite quivers, which sit in reference
    cycles, too), then dropped with the memo entries they wrote, leave
    both tables at their earlier size."""
    reps, quivers = quiver_module._REP_IDS, quiver_module._QUIVER_IDS
    memo = quiver_module.HOM_MEMO
    memo.clear()
    gc.collect()
    before = len(reps), len(quivers)
    built = []
    for seed in range(20):
        q = random_acyclic_quiver(5, 1400 + seed)
        m, n = (random_representation(q, 2, seed=1500 + 2 * seed + k) for k in (0, 1))
        hom_dim(m, n)
        dim_ext1(dual(n), dual(m))
        built += [m, n]
    assert len(reps) >= before[0] + 40
    del built, q, m, n
    memo.clear()
    gc.collect()
    assert (len(reps), len(quivers)) == before


def test_a_memo_entry_outlives_the_objects_that_wrote_it(monkeypatch):
    """An equal pair built after the first pair died reads the first
    pair's entry: the memo key keeps the ids alive, so no hom system is
    set up again."""
    def pair():
        q = random_acyclic_quiver(5, 1600)
        return (random_representation(q, 3, seed=1601),
                random_representation(q, 3, seed=1602))

    a, b = pair()
    want = hom_dim(a, b)
    del a, b
    gc.collect()

    def refused(m, n):
        raise AssertionError("hom system set up again")

    monkeypatch.setattr(quiver_module, "_hom_system", refused)
    assert hom_dim(*pair()) == want
