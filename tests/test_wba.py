"""Coproducts on path algebras: axiom checks, module tensors, catalogs."""

import copy
import json
import random
from fractions import Fraction

import pytest

from fpq import exact, wba
from fpq.errors import (
    DimensionGuardError,
    FpqError,
    DuplicateLabelError,
    NotAQuiverActionError,
    StructureMismatchError,
    WrongQuiverError,
)
from fpq.quiver import (
    Quiver,
    Representation,
    identity_rep,
    random_representation,
    simple,
    tensor_vertexwise,
)
from fpq.typea import OrientationWord, all_orientations
from oracles import is_canonical, is_isomorphic, mat_mul, sympy_tensor_wba

K2 = Quiver(2, [])
KRON1 = wba.kronecker_quiver(1)
A2 = OrientationWord(">").to_quiver()


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def by_name(entries):
    return {s.name: s for s in entries}


def doubled_unit():
    """D(1) = e1(x)e1 + e2(x)e2 is idempotent, but D(e1) = 2 e1(x)e1 is not."""
    return wba.CoproductSpec(
        K2,
        {"e1": [("e1", "e1", 2)], "e2": [("e1", "e1", -1), ("e2", "e2", 1)]},
        {"e1": 1, "e2": 1},
        name="doubled-unit",
    )


def leaky_arrow():
    """D(1) = e1(x)e1 + e2(x)e2 has image M1(x)N1 + M2(x)N2, but the
    extra term a1(x)e1 of D(a1) sends M1(x)N1 into M2(x)N1."""
    return wba.CoproductSpec(
        A2,
        {
            "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)],
            "a1": [("a1", "a1", 1), ("a1", "e1", 1)],
        },
        {"e1": 1, "e2": 1, "a1": 1},
        name="leaky-arrow",
    )


def test_path_algebra_basis_order():
    q = OrientationWord(">>").to_quiver()
    alg = wba.PathAlgebra(q)
    keys = [alg.path_key(k) for k in range(len(alg))]
    assert keys == ["e1", "e2", "e3", "a1", "a2", "a1.a2"]
    a12 = alg.parse_path_key("a1.a2")
    assert alg.paths[a12] == (1, 3, ("a1", "a2"))
    assert alg.compose(alg.parse_path_key("a2"), alg.parse_path_key("a1")) == a12
    assert alg.compose(alg.parse_path_key("a1"), alg.parse_path_key("a2")) is None


def _doubled_chain(n, isolated=0):
    """n vertices in a line joined by two parallel arrows each, then
    isolated vertices: sum over lengths L of (n - L) * 2^L paths, plus one
    per isolated vertex."""
    arrows = [(f"{c}{v}", v, v + 1) for v in range(1, n) for c in "ab"]
    return Quiver(n + isolated, arrows)


def test_path_algebra_above_the_path_budget_is_refused():
    """The doubled chain of 10 vertices has 2036 paths; padded with
    isolated vertices to wba.MAX_PATHS it is built, one vertex more is a
    DimensionGuardError, and so is a 30-vertex chain, in a layer long
    before its 2^29 longest paths."""
    assert len(wba.PathAlgebra(_doubled_chain(10))) == 2036
    full = wba.PathAlgebra(_doubled_chain(10, wba.MAX_PATHS - 2036))
    assert len(full) == wba.MAX_PATHS
    message = f"^path algebra would have more than {wba.MAX_PATHS} paths$"
    for q in (_doubled_chain(10, wba.MAX_PATHS - 2035), _doubled_chain(30)):
        with pytest.raises(DimensionGuardError, match=message):
            wba.canonical_wba(q)


def test_axiom_check_above_its_path_budget_is_refused_before_any_law(monkeypatch):
    """check_axioms runs its laws on a path algebra of exactly
    wba.MAX_AXIOM_PATHS paths (the 5-vertex doubled chain, 57 paths,
    padded with isolated vertices) and refuses one more path, or the
    6-vertex doubled chain's 120, with a DimensionGuardError before any law
    is evaluated; the largest structure of the catalogs has far fewer."""
    ran = []
    monkeypatch.setattr(wba, "_AXIOMS", (("law", lambda spec: ran.append(spec.name)),))
    at_limit = wba.canonical_wba(_doubled_chain(5, wba.MAX_AXIOM_PATHS - 57))
    assert len(at_limit.algebra) == wba.MAX_AXIOM_PATHS
    assert wba.check_axioms(at_limit).ok and ran == ["canonical"]
    for n, isolated in ((5, wba.MAX_AXIOM_PATHS - 56), (6, 0)):
        spec = wba.canonical_wba(_doubled_chain(n, isolated))
        with pytest.raises(DimensionGuardError, match=f"^axiom check of {len(spec.algebra)}"
                           f" paths is above the limit of {wba.MAX_AXIOM_PATHS}$"):
            wba.check_axioms(spec)
    assert ran == ["canonical"]
    catalogs = wba.catalog_k2() + [s for w in (1, 2, 3) for s in wba.catalog_kronecker(w)]
    assert max(len(s.algebra) for s in catalogs) < wba.MAX_AXIOM_PATHS


def test_arrow_ids_may_not_shadow_trivial_paths():
    q = Quiver(2, [("e1", 1, 2)])
    with pytest.raises(DuplicateLabelError):
        wba.canonical_wba(q)


def test_two_vertex_catalog_passes_axioms():
    entries = by_name(wba.catalog_k2())
    assert set(entries) == {f"k2-{v}" for v in "abcde"}
    for name, spec in entries.items():
        report = wba.check_axioms(spec)
        assert report.ok, (name, report.failures)
        assert report.counit_consistent
    # the first four have grouplike-free unit comultiplication: Delta(1)=1(x)1
    assert all(entries[f"k2-{v}"].is_bialgebra() for v in "abcd")
    assert not entries["k2-e"].is_bialgebra()


@pytest.mark.parametrize("w", [1, 2, 3])
def test_kronecker_catalog_verdicts(w):
    entries = by_name(wba.catalog_kronecker(w))
    assert set(entries) == {f"kronecker{w}-{v}" for v in "abcde"}
    for v in "ace":
        report = wba.check_axioms(entries[f"kronecker{w}-{v}"])
        assert report.ok, (v, report.failures)
    for v in "bd":
        report = wba.check_axioms(entries[f"kronecker{w}-{v}"])
        assert [f["axiom"] for f in report.failures] == ["coassociativity"]
        assert "r1" in report.failures[0]["witness"]


def test_axiom_witnesses_name_the_first_failure_of_each_law():
    """kronecker1-e with D(r1) = e2(x)r1 and eps(r1) = 1 keeps the first
    sum of the counit product law, eps(xyz) = sum eps(x y') eps(y'' z),
    and breaks only the second, eps(xyz) = sum eps(x y'') eps(y' z)."""
    spec = wba.CoproductSpec(
        KRON1,
        {"e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)], "r1": [("e2", "r1", 1)]},
        {"e1": 1, "e2": 1, "r1": 1},
        name="one-sided-arrow",
    )
    assert wba.check_axioms(spec).failures == [
        {"axiom": "multiplicativity", "witness": "D(p*q) != D(p)D(q) at p=r1, q=e1"},
        {"axiom": "counit_right", "witness": "(id(x)eps)D != id at r1"},
        {"axiom": "counit_product_law",
         "witness": "eps(xyz) law fails at x=e2, y=r1, z=e1"},
    ]


def _unit_comultiplication_by_expansion(spec):
    """The weak-unit comultiplication law's witness with 1 written out as
    the sum of every trivial path in the outer legs."""
    alg, du = spec.algebra, spec.delta_unit
    middle = wba._coproduct_on_leg(spec, du, 0)
    trivials = list(alg.trivial.values())
    du_1 = {(u, v, t): c for (u, v), c in du.items() for t in trivials}
    one_du = {(t, u, v): c for (u, v), c in du.items() for t in trivials}
    if wba._mul(alg, du_1, one_du) != middle:
        return "(D(1)(x)1)(1(x)D(1)) != (D(x)id)D(1)"
    if wba._mul(alg, one_du, du_1) != middle:
        return "(1(x)D(1))(D(1)(x)1) != (D(x)id)D(1)"
    return None


def test_unit_comultiplication_witness_matches_the_expanded_unit():
    """The witness pairs the terms of D(1) directly; on the catalogs, the
    canonical structure on A2-A3 and corruptions of each, it names the
    same failure as the product with 1 expanded, and both messages occur."""
    specs = wba.catalog_k2() + [s for w in (1, 2) for s in wba.catalog_kronecker(w)]
    specs += [wba.canonical_wba(w.to_quiver()) for n in (2, 3) for w in all_orientations(n)]
    specs += [wba.perturb_spec(s, seed) for s in list(specs) for seed in range(12)]
    seen = set()
    for spec in specs:
        got = wba._unit_comultiplication_witness(spec)
        assert got == _unit_comultiplication_by_expansion(spec), spec.name
        seen.add(got)
    assert seen == {None, "(D(1)(x)1)(1(x)D(1)) != (D(x)id)D(1)",
                    "(1(x)D(1))(D(1)(x)1) != (D(x)id)D(1)"}


def test_coefficients_summed_on_one_pair_are_canonical():
    """1/2 + 1/2 on e1(x)e1 is stored as the int 1, whether the spec gives
    the term twice or perturb_spec adds the second half."""
    twice = wba.CoproductSpec(
        K2, {"e1": [("e1", "e1", "1/2")] * 2, "e2": [("e2", "e2", 1)]},
        {"e1": 1, "e2": 1},
    )
    half = wba.CoproductSpec(
        K2, {"e1": [("e1", "e1", "1/2")], "e2": [("e2", "e2", 1)]},
        {"e1": 1, "e2": 1},
    )
    bumped = wba.perturb_spec(half, 99)
    assert bumped.perturbation == "delta[e1] += 1/2 * e1(x)e1"
    for spec in (twice, bumped):
        assert spec.delta_gen["e1"] == {(0, 0): 1}
        assert all(is_canonical(c) for c in spec.delta_gen["e1"].values())


def _half_twisted_kronecker1():
    """kronecker1 with D(e1) = e1(x)e1 + 2 r1(x)e1 and D(r1) = r1(x)r1 +
    1/2 e2(x)r1, so D(r1)Q_1 = 2 r1(x)r1 is a product of Fractions."""
    return wba.CoproductSpec(KRON1, {
        "e1": [("e1", "e1", 1), ("r1", "e1", 2)], "e2": [("e2", "e2", 1)],
        "r1": [("r1", "r1", 1), ("e2", "r1", "1/2")],
    }, {"e1": 1, "e2": 1, "r1": 1})


def test_stored_coefficients_of_a_spec_are_canonical():
    """D(1), the vertex and arrow units, D of every path, the terms of
    both sides of each module check and the solved counit hold canonical
    coefficients, also where they are sums and products of Fractions: on the
    half-twisted kronecker1, a D(1) whose halves sum to 1, an A3 counit
    solved as 1 / (1/2), an A3 whose D(a1.a2) is (1/2) * 2 on a1.a2 (x)
    a1.a2, the canonical structure on A3-A4 and perturbations of each."""
    spec = _half_twisted_kronecker1()
    r1 = spec.algebra.arrow_path["r1"]
    assert spec.arrow_units == [{(r1, r1): 2}]
    assert type(spec.arrow_units[0][(r1, r1)]) is int
    split = wba.CoproductSpec(
        K2, {"e1": [("e1", "e1", "1/2")], "e2": [("e1", "e1", "1/2"), ("e2", "e2", 1)]},
        {"e1": 1, "e2": 1},
    )
    assert type(split.delta_unit[(0, 0)]) is int
    a3 = OrientationWord(">>").to_quiver()
    halved = wba.CoproductSpec(a3, {
        "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)], "e3": [("e3", "e3", 1)],
        "a1": [("a1", "a1", "1/2")], "a2": [("a2", "a2", 1)],
    }, {"e1": 1, "e2": 1, "e3": 1, "a1": 2, "a2": 1})
    assert halved.counit_consistent
    assert type(halved.eps(halved.algebra.parse_path_key("a1.a2"))) is int
    inverse = wba.CoproductSpec(a3, {
        "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)], "e3": [("e3", "e3", 1)],
        "a1": [("a1", "a1", "1/2")], "a2": [("a2", "a2", 2)],
    }, {"e1": 1, "e2": 1, "e3": 1, "a1": 2, "a2": "1/2"})
    long = inverse.algebra.parse_path_key("a1.a2")
    assert inverse.delta(long) == {(long, long): 1}
    assert type(inverse.delta(long)[(long, long)]) is int
    specs = [spec, split, halved, inverse] + [
        wba.canonical_wba(w.to_quiver()) for n in (3, 4) for w in all_orientations(n)]
    specs += [wba.perturb_spec(s, seed) for s in list(specs) for seed in range(20)]
    checked = 0
    for s in specs:
        elements = [s.delta_unit, *s.vertex_units, *s.arrow_units]
        elements += [s.delta(k) for k in range(len(s.algebra))]
        assert all(is_canonical(c) for x in elements for c in x.values()), s.name
        assert all(is_canonical(t[0]) for check in s.module_checks for side in check[2:]
                   for t in side), s.name
        assert all(is_canonical(s.eps(k)) for k in range(len(s.algebra))), s.name
        checked += len(s.module_checks)
    assert checked > 100


def test_counit_consistency_is_read_off_the_counit_solve():
    """counit_consistent, decided by the consistency of the counit system,
    agrees with evaluating both counit laws, on the two-vertex and
    Kronecker 1-3 catalogs, the canonical structure on A2-A4 and on a
    4-vertex quiver with a path of length 3, and 60 perturbations of
    each; most perturbations break the laws."""
    square = Quiver(4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 1, 3)])
    base = wba.catalog_k2() + [s for w in (1, 2, 3) for s in wba.catalog_kronecker(w)]
    base += [wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)]
    base.append(wba.canonical_wba(square))
    verdicts = []
    for spec in base:
        for s in [spec] + [wba.perturb_spec(spec, seed) for seed in range(60)]:
            laws = s._counit_witness(0) is None and s._counit_witness(1) is None
            assert s.counit_consistent == laws, (s.name, getattr(s, "perturbation", ""))
            verdicts.append(laws)
    assert len(verdicts) == 2135 and verdicts.count(False) > 1500


def test_canonical_structure_is_grouplike_with_unit_counit():
    q = OrientationWord(">>").to_quiver()
    spec = wba.canonical_wba(q)
    assert wba.check_axioms(spec).ok
    alg = spec.algebra
    for k in range(len(alg)):
        assert spec.delta(k) == {(k, k): 1}
        assert spec.eps(k) == 1  # forced on long paths by the counit law
    assert not spec.is_bialgebra()
    assert spec.counit_consistent
    # counit[a1] += 1/2 leaves the counit law no solution: long paths get 0
    bad = wba.perturb_spec(spec, 0)
    assert bad.perturbation == "counit[a1] += 1/2"
    assert not bad.counit_consistent
    assert bad.eps(alg.parse_path_key("a1.a2")) == 0
    assert not wba.check_axioms(bad).describe()["counit_extension_consistent"]


def test_tensor_matches_componentwise_for_the_canonical_structure():
    for word in (">", "><", "<<>"):
        q = OrientationWord(word).to_quiver()
        spec = wba.canonical_wba(q)
        for seed in range(6):
            m = random_representation(q, 2, seed=seed)
            x = random_representation(q, 2, seed=100 + seed)
            assert wba.tensor_wba(spec, m, x) == tensor_vertexwise(m, x)


def test_tensor_on_the_two_vertex_algebra():
    """Simples under structure (a): S1 is idempotent and absorbs S2 from
    the left into S2."""
    spec = by_name(wba.catalog_k2())["k2-a"]
    s1, s2 = simple(K2, 1), simple(K2, 2)
    assert wba.tensor_wba(spec, s1, s1) == s1
    assert wba.tensor_wba(spec, s1, s2) == s2
    assert wba.tensor_wba(spec, s2, s1) == s2
    assert wba.tensor_wba(spec, s2, s2) == s2


def test_tensor_rejects_foreign_representations():
    spec = by_name(wba.catalog_k2())["k2-a"]
    other = Quiver(2, [("r1", 1, 2)])
    with pytest.raises(WrongQuiverError):
        wba.tensor_wba(spec, simple(other, 1), simple(other, 2))


def test_tensor_square_above_the_budget_is_refused_after_the_zero_shortcut():
    spec = by_name(wba.catalog_kronecker(1))["kronecker1-a"]
    big = Representation(KRON1, [2500, 2501], [exact.zeros(2501, 2500)])
    one = Representation(KRON1, [1, 0], [exact.zeros(0, 1)])
    with pytest.raises(DimensionGuardError, match="^tensor square would have"
                       " dimension above 5000$"):
        wba.tensor_wba(spec, one, big)
    empty = Representation(KRON1, [0, 0], [[]])
    assert wba.tensor_wba(spec, big, empty).dims == (0, 0)


def test_tensor_rejects_structures_that_do_not_act():
    spec = by_name(wba.catalog_kronecker(1))["kronecker1-a"]
    s1, s2 = simple(KRON1, 1), simple(KRON1, 2)
    with pytest.raises(NotAQuiverActionError, match="arrow r1 is not supported"):
        wba.tensor_wba(wba.perturb_spec(spec, 4), s2, s2)
    with pytest.raises(StructureMismatchError, match="does not act idempotently"):
        wba.tensor_wba(wba.perturb_spec(spec, 6), s1, s1)
    k2_s1 = simple(K2, 1)
    with pytest.raises(NotAQuiverActionError, match="e1 is not idempotent"):
        wba.tensor_wba(doubled_unit(), k2_s1, k2_s1)
    ident = identity_rep(A2)
    with pytest.raises(
        NotAQuiverActionError,
        match=r"^D\(a1\) does not preserve the image of the D\(1\) action$",
    ):
        wba.tensor_wba(leaky_arrow(), ident, ident)
    # adding e1(x)r1 to D(e2) moves D(1) itself, and D(e1) leaves its image
    corrupt = wba.perturb_spec(by_name(wba.catalog_kronecker(1))["kronecker1-e"], 2)
    assert corrupt.perturbation == "delta[e2] += 1 * e1(x)r1"
    ident = identity_rep(KRON1)
    with pytest.raises(
        NotAQuiverActionError,
        match=r"^D\(e1\) does not preserve the image of the D\(1\) action$",
    ):
        wba.tensor_wba(corrupt, ident, ident)
    # D(a1) also carries a1.a2 (x) a1.a2, so a1 acts from vertex 1 into
    # vertex 3: on the first row just past its (2, 1) block
    q = OrientationWord(">>").to_quiver()
    overreach = wba.CoproductSpec(
        q,
        {
            "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)],
            "e3": [("e3", "e3", 1)], "a2": [("a2", "a2", 1)],
            "a1": [("a1", "a1", 1), ("a1.a2", "a1.a2", 1)],
        },
        {key: 1 for key in ("e1", "e2", "e3", "a1", "a2")},
    )
    ident = identity_rep(q)
    with pytest.raises(
        NotAQuiverActionError,
        match=r"action of arrow a1 is not supported on the \(2, 1\) block",
    ):
        wba.tensor_wba(overreach, ident, ident)


def test_primitive_arrows_act_by_the_leibniz_rule():
    """Under kronecker{w}-a, D(1) = 1 (x) 1 and D(r) = e1 (x) r + r (x) e1:
    vertex 1 of M (x) N is M1 (x) N1, vertex 2 is the rest, and r sends
    x (x) y to x (x) ry + rx (x) y.  The tensor must be isomorphic to that
    representation, built here by hand (vertex 2 ordered M1 (x) N2,
    M2 (x) N1, M2 (x) N2)."""
    for w in (1, 2):
        spec = by_name(wba.catalog_kronecker(w))[f"kronecker{w}-a"]
        q = spec.quiver
        for k in range(8):
            m = random_representation(q, 2, seed=300 + 2 * k)
            x = random_representation(q, 2, seed=301 + 2 * k)
            (m1, m2), (n1, n2) = m.dims, x.dims
            maps = {
                a.id: [
                    *exact.kron(identity(m1), x.map_for(a.id), (m1, m1), (n2, n1)),
                    *exact.kron(m.map_for(a.id), identity(n1), (m2, m1), (n1, n1)),
                    *exact.zeros(m2 * n2, m1 * n1),
                ]
                for a in q.arrows
            }
            expected = Representation(
                q, [m1 * n1, m1 * n2 + m2 * n1 + m2 * n2], maps
            )
            assert is_isomorphic(wba.tensor_wba(spec, m, x), expected) is True, (w, k)


def test_tensor_vertex_dims_are_traces_of_the_unit_coproduct():
    """dim (M (x) N)_v is the trace of D(e_v) on the componentwise tensor
    product: only the terms c * e_i (x) e_j contribute, c dim M_i dim N_j
    each, since a path of positive length acts nilpotently."""
    specs = wba.catalog_k2() + [
        spec for w in (1, 2, 3) for spec in wba.catalog_kronecker(w)
    ]
    assert len(specs) == 20
    for spec in specs:
        q, alg = spec.quiver, spec.algebra
        for k in range(20):
            m = random_representation(q, 3, seed=2 * k)
            x = random_representation(q, 3, seed=2 * k + 1)
            dims = []
            for v in range(1, q.n + 1):
                trace = 0
                for (i, j), c in spec.delta_gen[f"e{v}"].items():
                    (si, _, ids_i), (sj, _, ids_j) = alg.paths[i], alg.paths[j]
                    if not ids_i and not ids_j:
                        trace += c * m.dims[si - 1] * x.dims[sj - 1]
                dims.append(trace)
            assert list(wba.tensor_wba(spec, m, x).dims) == dims, (spec.name, k)


def test_tensor_of_corrupted_structures_raises_only_named_errors():
    """On every catalog structure and the canonical one on A2..A4, each
    with one coefficient perturbed, tensor_wba either raises one of its
    two named errors or returns a representation whose vertex v has
    dimension tr D(e_v)D(1), the rank of the idempotent e_v acting on the
    image of D(1).  Only trivial-path terms have a trace, and e_i (x) e_j
    times e_k (x) e_l vanishes unless i = k and j = l.  Without the
    corruption D(e_v)D(1) = D(e_v), as in the test above; with it, the
    plain trace of D(e_v) can even be negative."""
    specs = wba.catalog_k2() + [
        spec for w in (1, 2, 3) for spec in wba.catalog_kronecker(w)
    ]
    specs += [
        wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)
    ]
    returned = 0
    for spec in specs:
        for seed in range(10):
            bad = wba.perturb_spec(spec, seed)
            q, alg = bad.quiver, bad.algebra
            for k in range(3):
                m = random_representation(q, 2, seed=100 * seed + 2 * k)
                x = random_representation(q, 2, seed=100 * seed + 2 * k + 1)
                try:
                    t = wba.tensor_wba(bad, m, x)
                except (NotAQuiverActionError, StructureMismatchError):
                    continue
                dims = []
                for v in range(1, q.n + 1):
                    trace = 0
                    for (i, j), c in bad.delta_gen[f"e{v}"].items():
                        (si, _, ids_i), (sj, _, ids_j) = alg.paths[i], alg.paths[j]
                        if not ids_i and not ids_j:
                            unit = bad.delta_unit.get((i, j), 0)
                            trace += c * unit * m.dims[si - 1] * x.dims[sj - 1]
                    dims.append(trace)
                assert list(t.dims) == dims, (spec.name, bad.perturbation, k)
                returned += 1
    assert returned > 500


def _rational_rep(q, rng, total):
    """Vertex dimensions summing to at most total; every map entry is p/q
    with |p| <= 3 and 1 <= q <= 3."""
    dims = None
    while dims is None or sum(dims) > total:
        dims = [rng.randint(0, 2) for _ in range(q.n)]
    maps = [
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
          for _ in range(dims[a.source - 1])]
         for _ in range(dims[a.target - 1])]
        for a in q.arrows
    ]
    return Representation(q, dims, maps)


def _failed_check(error):
    """The oracle's name for the check a tensor_wba error reports."""
    if isinstance(error, StructureMismatchError):
        return "unit"
    for kind, text in (
        ("image", "does not preserve the image of the D(1) action"),
        ("idempotent", "is not idempotent"),
        ("block", "is not supported on the"),
    ):
        if text in str(error):
            return kind
    raise AssertionError(f"unexpected error {error!r}")


def test_tensor_matches_the_sympy_reference_on_rational_entries():
    """tensor_wba against oracles.sympy_tensor_wba on seeded pairs whose
    map entries are p/q with q <= 3, over every catalog structure, the
    canonical structure on every orientation of A2..A4 and three one-
    coefficient corruptions of each, plus the two hand-built structures
    that fail the image and idempotency checks: either both fail at the
    same check, or both return the same dimensions and the same maps."""
    base = wba.catalog_k2() + [
        spec for w in (1, 2, 3) for spec in wba.catalog_kronecker(w)
    ]
    base += [
        wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)
    ]
    specs = [(spec, 3) for spec in base]
    specs += [(wba.perturb_spec(spec, seed), 1) for spec in base for seed in (2, 3, 5)]
    specs += [(doubled_unit(), 3), (leaky_arrow(), 3)]
    rng = random.Random(13)
    returned, failed, fractional = 0, {}, 0
    for spec, pairs in specs:
        q = spec.quiver
        for _ in range(pairs):
            m, x = _rational_rep(q, rng, 4), _rational_rep(q, rng, 4)
            fractional += sum(
                v.denominator > 1 for r in (m, x) for mat in r.maps for row in mat for v in row
            )
            try:
                want = sympy_tensor_wba(spec, m, x)
            except ValueError as e:
                with pytest.raises((NotAQuiverActionError, StructureMismatchError)) as got:
                    wba.tensor_wba(spec, m, x)
                assert _failed_check(got.value) == str(e), (spec.name, m, x)
                failed[str(e)] = failed.get(str(e), 0) + 1
                continue
            t = wba.tensor_wba(spec, m, x)
            maps = {a.id: [list(row) for row in t.map_for(a.id)] for a in q.arrows}
            assert (list(t.dims), maps) == want, (spec.name, m, x)
            returned += 1
    assert fractional > 150
    assert returned > 150
    assert set(failed) == {"unit", "image", "idempotent", "block"}, failed


def test_the_benchmark_structures_prove_every_tensor_check_in_the_square():
    """The canonical structure on every A2-A4 orientation and all k2 and
    Kronecker catalog entries satisfy tensor_wba's four checks as
    identities in A (x) A, so no product through them repeats one."""
    specs = [wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)]
    specs += wba.catalog_k2() + [s for w in (1, 2, 3) for s in wba.catalog_kronecker(w)]
    assert [s.name for s in specs if s.module_checks] == []


def test_identities_refuted_in_the_square_are_checked_on_the_module():
    """kronecker2-a with r2(x)r2 added to D(e2): D(1) = 1(x)1 + r2(x)r2 is
    not idempotent in A (x) A, so tensor_wba checks it on each module.
    Where M's r2 acts as zero the extra term does too, and the product is
    kronecker2-a's, as the sympy reference finds; where both r2 act, D(1)
    is not idempotent there either."""
    base = by_name(wba.catalog_kronecker(2))["kronecker2-a"]
    data = base.to_dict()
    data["delta"]["e2"].append(["r2", "r2", "1"])
    spec = wba.CoproductSpec.from_dict(data)
    assert [c[1] for c in spec.module_checks][:1] == [
        "the coproduct of 1 does not act idempotently on the tensor square"
    ]
    q = spec.quiver
    rng = random.Random(41)
    nonzero = 0
    for _ in range(10):
        m, x = _rational_rep(q, rng, 4), _rational_rep(q, rng, 4)
        m = Representation(q, m.dims, [m.map_for("r1"), exact.zeros(m.dims[1], m.dims[0])])
        t = wba.tensor_wba(spec, m, x)
        maps = {a.id: [list(row) for row in t.map_for(a.id)] for a in q.arrows}
        assert (list(t.dims), maps) == sympy_tensor_wba(spec, m, x), (m, x)
        assert t == wba.tensor_wba(base, m, x)
        nonzero += any(v for mat in t.maps for row in mat for v in row)
    assert nonzero >= 3
    ident = identity_rep(q)
    with pytest.raises(StructureMismatchError, match="does not act idempotently"):
        wba.tensor_wba(spec, ident, ident)


def test_tensor_matches_the_sympy_reference_where_the_vertex_basis_is_not_unit_columns():
    """On kronecker1 with D(e1) = e1(x)e1 + t r1(x)e1, D(e2) = e2(x)e2 and
    D(r1) = r1(x)r1 + s e2(x)r1, tensor_wba's four checks hold in A (x) A,
    but Q_1 = e1(x)e1 + t r1(x)e1 mixes M1(x)N1 into M2(x)N1, so the vertex
    basis W_1 is not a set of unit columns, and D(r1)Q_1 = (1 + st) r1(x)r1
    is not D(r1): the map must go through D(r1)Q_1.  Seeded rational pairs
    against the sympy reference, some of them with a nonzero map."""
    rng = random.Random(43)
    nonzero = 0
    for t, s in ((1, 1), (-1, 2), (Fraction(1, 2), Fraction(-2, 3)), (1, -1)):
        spec = wba.CoproductSpec(KRON1, {
            "e1": [("e1", "e1", 1), ("r1", "e1", t)], "e2": [("e2", "e2", 1)],
            "r1": [("r1", "r1", 1), ("e2", "r1", s)],
        }, {"e1": 1, "e2": 1, "r1": 1})
        r1 = spec.algebra.arrow_path["r1"]
        assert spec.module_checks == []
        assert spec.arrow_units == [{(r1, r1): 1 + s * t} if 1 + s * t else {}]
        for _ in range(8):
            m, x = _rational_rep(KRON1, rng, 4), _rational_rep(KRON1, rng, 4)
            got = wba.tensor_wba(spec, m, x)
            maps = {a.id: [list(row) for row in got.map_for(a.id)] for a in KRON1.arrows}
            assert (list(got.dims), maps) == sympy_tensor_wba(spec, m, x), (t, s, m, x)
            nonzero += any(v for mat in got.maps for row in mat for v in row)
    assert nonzero >= 3


def _on_the_elimination_route(spec):
    """A copy of spec on which tensor_wba eliminates act(Q_v) at every
    vertex.  It keeps spec's slots and term tables: spec.read_paths already
    holds every path of length two or more in the arrow units and the
    vertex units, which are all that route reads besides the module
    checks, and spec.unit_terms and arrow_terms list every vertex's and
    arrow's terms on the whole tensor square."""
    forced = copy.copy(spec)
    forced.vertex_pairs = [None] * spec.quiver.n
    forced.arrow_blocks = [None] * len(spec.quiver.arrows)
    forced.eliminated = list(range(1, spec.quiver.n + 1))
    return forced


def _outcome(spec, m, x):
    """tensor_wba's dims and maps with each entry's type, or its error."""
    try:
        t = wba.tensor_wba(spec, m, x)
    except FpqError as exc:
        return type(exc), str(exc)
    return t.dims, [[(type(v), v) for v in row] for mat in t.maps for row in mat]


def _offsets(rep):
    return [sum(rep.dims[:v]) for v in range(len(rep.dims) + 1)]


def test_vertex_bases_read_off_the_dims_are_the_eliminated_ones():
    """On every k2, Kronecker and canonical A2-A4 structure each Q_v is a
    sum of e_x (x) e_y with coefficient 1, its pairs grouped by x, and
    tensor_wba reads vertex v's basis off the dims: the indices k*dn + l,
    k in M's block x and l in N's block y, sorted, where _layout, in one
    pass over the vertices, puts entry (k, l) of M_x (x) N_y; on the whole
    tensor square, every pair (x, y) x-major, which is where _act works,
    _layout puts it at k*dn + l itself.
    On seeded rational pairs, many with zero-dimensional vertices, those
    are the pivots exact.eliminate finds on act(Q_v)'s rows, whose reduced
    rows are the unit rows at them, with no rest; the product is the elimination
    route's, entry types included, and the sympy reference's."""
    specs = wba.catalog_k2() + [s for w in (1, 2, 3) for s in wba.catalog_kronecker(w)]
    specs += [wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)]
    rng = random.Random(47)
    zero_dims = nonzero = 0
    for spec in specs:
        q = spec.quiver
        assert all(pairs is not None for pairs in spec.vertex_pairs), spec.name
        square = [(i, tuple(range(1, q.n + 1))) for i in range(1, q.n + 1)]
        for _ in range(3):
            m, x = _rational_rep(q, rng, 4), _rational_rep(q, rng, 4)
            zero_dims += m.dims.count(0) + x.dims.count(0)
            dn, om, on = x.total_dim(), _offsets(m), _offsets(x)
            pm, pn = wba._slot_maps(spec, m), wba._slot_maps(spec, x)
            places, dims = wba._layout([square], m.dims, x.dims)
            assert dims == [m.total_dim() * dn]
            whole = places[0], dims[0]
            laid_out = [(square, range(m.total_dim() * dn))]
            for v, (pairs, unit) in enumerate(zip(spec.vertex_pairs, spec.vertex_units), 1):
                flat = [(i, j) for i, ys in pairs for j in ys]
                assert flat == sorted(flat)
                assert unit == {(i - 1, j - 1): 1 for i, j in flat}
                read = sorted(k * dn + l for i, j in flat for k in range(om[i - 1], om[i])
                              for l in range(on[j - 1], on[j]))
                rows = list(wba._act(pm, pn, whole, spec.unit_terms[v - 1]).values())
                assert exact.eliminate(rows, m.total_dim() * dn) == (
                    read, [{p: 1} for p in read], []), spec.name
                laid_out.append((pairs, read))
            places, dims = wba._layout([pairs for pairs, _ in laid_out] + [None],
                                       m.dims, x.dims)
            assert places[-1] is None and dims[-1] == 0
            for (pairs, read), layout, dim in zip(laid_out, places, dims):
                flat = [(i, j) for i, ys in pairs for j in ys]
                assert dim == len(read) and len(layout) == len(flat)
                for (i, j), (start, step) in zip(flat, layout):
                    for k in range(m.dims[i - 1]):
                        for l in range(x.dims[j - 1]):
                            p = (om[i - 1] + k) * dn + on[j - 1] + l
                            assert read[start + k * step + l] == p, spec.name
            assert _outcome(spec, m, x) == _outcome(_on_the_elimination_route(spec), m, x)
            t = wba.tensor_wba(spec, m, x)
            maps = {a.id: [list(row) for row in t.map_for(a.id)] for a in q.arrows}
            assert (list(t.dims), maps) == sympy_tensor_wba(spec, m, x), (spec.name, m, x)
            nonzero += any(v for mat in t.maps for row in mat for v in row)
    assert zero_dims >= 150 and nonzero >= 20, (zero_dims, nonzero)


def test_terms_are_listed_only_while_a_spec_is_built(monkeypatch):
    """tensor_wba reads every term list off the spec: on the corrupted A2
    structure of the CI smoke job, with three module checks and vertices 1
    and 2 eliminated, seeded products run _act (counted) but never _terms,
    which building a spec does run."""
    spec = wba.perturb_spec(wba.canonical_wba(A2), 2)
    assert len(spec.module_checks) == 3 and spec.eliminated == [1, 2]
    calls = {"_terms": 0, "_act": 0}
    for name in calls:
        def counted(*args, real=getattr(wba, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(wba, name, counted)
    rng = random.Random(72)
    outcomes = {_outcome(spec, _rational_rep(A2, rng, 3), _rational_rep(A2, rng, 3))[0]
                for _ in range(12)}
    assert calls["_terms"] == 0 and calls["_act"] >= 12, calls
    assert NotAQuiverActionError in outcomes and len(outcomes) > 1, outcomes
    wba.perturb_spec(spec, 3)
    assert calls["_terms"] > 0


def test_corrupted_structures_take_both_routes_with_the_same_outcomes():
    """Of the corruptions in the WBA_SET digest (perturb_spec 0..24 of the
    canonical structures on A2-A4 and of the Kronecker catalogs), some keep
    every Q_v a sum of e_x (x) e_y with coefficient 1 and some do not; of
    the latter, some have an arrow with one end read off the dims and the
    other eliminated, which tensor_wba reads on sparse rows, eliminating
    both ends.  On two seeded pairs each, tensor_wba's product or error is
    the one it gives with every vertex eliminated."""
    specs = [wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)]
    specs += [spec for w in (1, 2, 3) for spec in wba.catalog_kronecker(w)]
    routes = {"pairs": 0, "elimination": 0, "mixed-arrow products": 0}
    for k, spec in enumerate(specs):
        for seed in range(25):
            bad = wba.perturb_spec(spec, seed)
            routes["elimination" if None in bad.vertex_pairs else "pairs"] += 1
            ends = [[bad.vertex_pairs[v - 1] is None for v in (a.source, a.target)]
                    for a in bad.quiver.arrows]
            mixed = [a for a, (s, t) in zip(bad.quiver.arrows, ends) if s != t]
            for a in mixed:
                i = bad.quiver.arrow_index(a.id)
                assert bad.arrow_blocks[i] is None
                assert {a.source, a.target} <= set(bad.eliminated)
            forced = _on_the_elimination_route(bad)
            for j in range(2):
                m = random_representation(bad.quiver, 3, 1000 * k + 2 * j)
                x = random_representation(bad.quiver, 3, 1000 * k + 2 * j + 1)
                assert _outcome(bad, m, x) == _outcome(forced, m, x), bad.perturbation
                routes["mixed-arrow products"] += bool(mixed)
    assert routes["pairs"] >= 400 and routes["elimination"] >= 100, routes
    assert routes["mixed-arrow products"] >= 150, routes


def test_blocks_on_a_path_of_length_two_match_the_sympy_reference():
    """On A3 '>>' with D(e2) = e2(x)e2 + e3(x)e2 and D(a1) = a1(x)a1 +
    c a1.a2(x)a1, every Q_v is a sum of e_x (x) e_y, so both arrows are
    built from Kronecker blocks, and D(a1)Q_1 has the term c a1.a2(x)a1 from
    pair (1, 1) of Q_1 to pair (3, 2) of Q_2, whose M-side map is the
    product of M's two arrow maps.  On seeded pairs with every dimension 1
    or 2 and integer or p/q entries, tensor_wba's product, entry types
    included, is the elimination route's and the sympy reference's, most
    with that block nonzero."""
    q = OrientationWord(">>").to_quiver()
    rng = random.Random(59)

    def factor(denominators):
        dims = [rng.randint(1, 2) for _ in range(q.n)]
        return Representation(q, dims, [
            [[Fraction(rng.randint(-3, 3), rng.choice(denominators))
              for _ in range(dims[a.source - 1])] for _ in range(dims[a.target - 1])]
            for a in q.arrows])

    long_blocks = 0
    for c in (1, -2, Fraction(1, 2), Fraction(-2, 3)):
        spec = wba.CoproductSpec(q, {
            "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1), ("e3", "e2", 1)],
            "e3": [("e3", "e3", 1)], "a1": [("a1", "a1", 1), ("a1.a2", "a1", c)],
            "a2": [("a2", "a2", 1)],
        }, {key: 1 for key in ("e1", "e2", "e3", "a1", "a2")})
        long_path = spec.algebra.parse_path_key("a1.a2")
        assert None not in spec.vertex_pairs and spec.module_checks == []
        assert spec.read_paths == [long_path]
        assert spec.slot[long_path] == len(q.arrows) + q.n  # past the maps and the dims
        a1 = spec.slot[spec.algebra.arrow_path["a1"]]
        assert (c, spec.slot[long_path], a1, 0, 1) in spec.arrow_blocks[0]
        forced = _on_the_elimination_route(spec)
        for k in range(8):
            m, x = (factor((1,) if k % 2 else (1, 2, 3)) for _ in range(2))
            assert _outcome(spec, m, x) == _outcome(forced, m, x), (c, m, x)
            t = wba.tensor_wba(spec, m, x)
            maps = {a.id: [list(row) for row in t.map_for(a.id)] for a in q.arrows}
            assert (list(t.dims), maps) == sympy_tensor_wba(spec, m, x), (c, m, x)
            path = mat_mul(m.map_for("a2"), m.map_for("a1"))
            long_blocks += any(v for row in path for v in row) and any(
                v for row in x.map_for("a1") for v in row)
    assert long_blocks >= 20, long_blocks


def test_tensor_entries_are_canonical_on_integer_inputs():
    """What tensor_wba returns holds canonical entries, ints where integral,
    also where an elimination divides by a pivot other than 1: with
    2 r2(x)e2 added to D(e1) of kronecker2-e, integer factors give a map
    entry -1/2."""
    kron2 = by_name(wba.catalog_kronecker(2))
    corrupt = wba.perturb_spec(kron2["kronecker2-e"], 5)
    assert corrupt.perturbation == "delta[e1] += 2 * r2(x)e2"
    cases = [(corrupt, 500, 501)]
    for spec in list(kron2.values()) + [wba.canonical_wba(OrientationWord("><").to_quiver())]:
        cases += [(spec, seed, 50 + seed) for seed in range(4)]
    entries = []
    for spec, i, j in cases:
        m = random_representation(spec.quiver, 2, seed=i)
        x = random_representation(spec.quiver, 2, seed=j)
        t = wba.tensor_wba(spec, m, x)
        entries += [v for mat in t.maps for row in mat for v in row]
    assert all(is_canonical(v) for v in entries)
    assert Fraction(-1, 2) in entries


def test_trusted_output_is_what_the_checked_constructor_builds():
    """tensor_wba returns without re-validating its maps.  On seeded
    pairs with integer and with p/q entries, the checked constructor
    rebuilds an equal representation from its dims and maps, every dim is
    an int and every entry, zeros included, canonical."""
    kron2 = by_name(wba.catalog_kronecker(2))
    specs = list(kron2.values()) + [
        wba.canonical_wba(OrientationWord(w).to_quiver()) for w in ("><", ">>>")
    ]
    specs.append(wba.perturb_spec(kron2["kronecker2-e"], 5))
    rng = random.Random(29)
    entries = []
    for spec in specs:
        q = spec.quiver
        for k in range(4):
            pairs = [
                (random_representation(q, 2, seed=10 * k),
                 random_representation(q, 2, seed=10 * k + 1)),
                (_rational_rep(q, rng, 4), _rational_rep(q, rng, 4)),
            ]
            for m, x in pairs:
                t = wba.tensor_wba(spec, m, x)
                assert Representation(q, t.dims, t.maps) == t, (spec.name, k)
                assert type(t.dims) is tuple and all(type(d) is int for d in t.dims)
                assert type(t.maps) is tuple and len(t.maps) == len(q.arrows)
                assert all(
                    type(mat) is tuple and all(type(row) is tuple for row in mat)
                    for mat in t.maps
                )
                entries += [v for mat in t.maps for row in mat for v in row]
    assert all(is_canonical(v) for v in entries)
    assert 0 in entries
    assert any(v.denominator > 1 for v in entries)


def test_terms_that_cancel_on_the_tensor_square_leave_no_stored_zero():
    """D(r1) = e1(x)r1 + r1(x)e1 - r2(x)e1 on the 2-arrow Kronecker quiver:
    where M's two arrows act alike, the last two terms cancel entry by
    entry, and tensor_wba must still match the sympy reference instead of
    keeping the cancelled entries as stored zeros."""
    q = wba.kronecker_quiver(2)
    spec = wba.CoproductSpec(
        q,
        {
            "e1": [("e1", "e1", 1)],
            "e2": [("e2", "e2", 1), ("e1", "e2", 1), ("e2", "e1", 1)],
            "r1": [("e1", "r1", 1), ("r1", "e1", 1), ("r2", "e1", -1)],
            "r2": [("e1", "r2", 1), ("r2", "e1", 1)],
        },
        {"e1": 1, "e2": 0, "r1": 0, "r2": 0},
    )
    rng = random.Random(37)
    for _ in range(6):
        m1, m2 = rng.randint(1, 2), rng.randint(1, 2)
        r = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m1)]
             for _ in range(m2)]
        m, x = Representation(q, [m1, m2], [r, r]), _rational_rep(q, rng, 4)
        t = wba.tensor_wba(spec, m, x)
        maps = {a.id: [list(row) for row in t.map_for(a.id)] for a in q.arrows}
        assert (list(t.dims), maps) == sympy_tensor_wba(spec, m, x)


def _int_rep(q, rng, total, scale=1):
    """Vertex dimensions summing to at most total; every map entry is an
    int scale * p with |p| <= 3."""
    dims = None
    while dims is None or sum(dims) > total:
        dims = [rng.randint(0, 2) for _ in range(q.n)]
    return Representation(q, dims, [
        [[scale * rng.randint(-3, 3) for _ in range(dims[a.source - 1])]
         for _ in range(dims[a.target - 1])] for a in q.arrows])


def _typed_outcomes(spec, m, x):
    """(tensor_wba's, the sympy reference's) outcome: (dims, {arrow id:
    rows of (type, value)}), the reference's entries typed as their
    canonical entries, or the name of the first check that fails (see
    sympy_tensor_wba)."""
    try:
        t = wba.tensor_wba(spec, m, x)
        got = (list(t.dims), {a.id: [[(type(v), v) for v in row] for row in t.map_for(a.id)]
                              for a in spec.quiver.arrows})
    except StructureMismatchError:
        got = "unit"
    except NotAQuiverActionError as exc:
        got = next(kind for word, kind in (("preserve", "image"), ("idempotent", "idempotent"),
                                           ("supported", "block")) if word in str(exc))
    try:
        dims, ref = sympy_tensor_wba(spec, m, x)
        want = (dims, {aid: [[(type(exact.frac(v)), v) for v in row] for row in mat]
                       for aid, mat in ref.items()})
    except ValueError as exc:
        want = str(exc)
    return got, want


def test_read_and_freeze_rules_match_the_sympy_reference():
    """tensor_wba reads an arrow's map in place and a trivial path's
    identity as its dimension, and freezes a row as summed when the spec's
    block coefficients and the factors' maps are all ints.  On
    int x int, int x p/q and p/q x p/q pairs, many with zero-dimensional
    vertices, over kronecker1-3 (a)-(e), whose (a)-(d) arrows are blocks
    kron(I, N_r) + kron(M_r, I), and canonical A2-A4, the product is the
    sympy reference's, entry types included, and every map is a tuple of
    height row tuples of width entries, () at height 0 and ((),) * height
    at width 0, both of which occur."""
    specs = [s for w in (1, 2, 3) for s in wba.catalog_kronecker(w)]
    specs += [wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)]
    rng = random.Random(67)
    trivial_blocks = zero_dims = nonzero = zero_heights = zero_widths = 0
    for spec in specs:
        assert spec.integral_blocks and None not in spec.arrow_blocks, spec.name
        arrows = len(spec.quiver.arrows)
        dims_slots = range(arrows, arrows + spec.quiver.n)  # the trivial paths' slots
        trivial_blocks += any(k in dims_slots for b in spec.arrow_blocks for t in b
                              for k in t[1:3])
        for kinds in (("int", "int"), ("int", "p/q"), ("p/q", "p/q"), ("p/q", "int")):
            m, x = (_int_rep(spec.quiver, rng, 4) if kind == "int"
                    else _rational_rep(spec.quiver, rng, 4) for kind in kinds)
            zero_dims += m.dims.count(0) + x.dims.count(0)
            got, want = _typed_outcomes(spec, m, x)
            assert got == want, (spec.name, kinds, m, x)
            nonzero += any(v for mat in got[1].values() for row in mat for _, v in row)
            t = wba.tensor_wba(spec, m, x)
            for a, mat in zip(spec.quiver.arrows, t.maps):
                height, width = t.dims[a.target - 1], t.dims[a.source - 1]
                assert type(mat) is tuple and len(mat) == height
                assert all(type(row) is tuple and len(row) == width for row in mat)
                zero_heights += height == 0 < width
                zero_widths += width == 0 < height
    assert trivial_blocks == 12 and zero_dims >= 200 and nonzero >= 25, (
        trivial_blocks, zero_dims, nonzero)
    assert zero_heights >= 20 and zero_widths >= 20, (zero_heights, zero_widths)


def test_a_fraction_coefficient_that_int_factors_make_integral_gives_ints():
    """D(r1) = 1/2 r1(x)r1 with eps(r1) = 2 on the 1-arrow Kronecker
    quiver: a block coefficient is a Fraction, so no row is frozen as
    summed, and with M's entries even every product entry is integral.
    Each must come out an int, as the sympy reference's canonical entry."""
    spec = wba.CoproductSpec(KRON1, {
        "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)],
        "r1": [("r1", "r1", Fraction(1, 2))],
    }, {"e1": 1, "e2": 1, "r1": 2})
    assert not spec.integral_blocks and spec.module_checks == []
    assert spec.arrow_blocks == [[(Fraction(1, 2), 0, 0, 0, 0)]]  # r1's slot is 0
    assert wba.check_axioms(spec).ok
    rng = random.Random(71)
    nonzero = 0
    for _ in range(30):
        m, x = _int_rep(KRON1, rng, 4, scale=2), _int_rep(KRON1, rng, 4)
        got, want = _typed_outcomes(spec, m, x)
        assert got == want, (m, x)
        assert all(t is int for mat in got[1].values() for row in mat for t, _ in row)
        nonzero += any(v for mat in got[1].values() for row in mat for _, v in row)
    assert nonzero >= 3, nonzero


def test_a_refuted_check_on_a_path_of_length_two_reads_its_slot():
    """D(a1) = a1(x)a1 + a1.a2(x)a1.a2 on A3 '>>' fails the arrow-block
    check in A (x) A, and that check reads a1.a2, whose slot lies past
    the arrow maps and the dims.  On seeded int and p/q pairs, many with
    zero-dimensional vertices, tensor_wba's product or failed check is the
    sympy reference's, entry types included: the check fails exactly
    where a1.a2 acts as nonzero on both factors."""
    q = OrientationWord(">>").to_quiver()
    spec = wba.CoproductSpec(q, {
        "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)], "e3": [("e3", "e3", 1)],
        "a1": [("a1", "a1", 1), ("a1.a2", "a1.a2", 1)], "a2": [("a2", "a2", 1)],
    }, {key: 1 for key in ("e1", "e2", "e3", "a1", "a2")})
    long_path = spec.algebra.parse_path_key("a1.a2")
    assert [check[1] for check in spec.module_checks] == [
        "action of arrow a1 is not supported on the (2, 1) block"]
    assert spec.read_paths == [long_path] and spec.slot[long_path] == len(q.arrows) + q.n
    rng = random.Random(79)

    def factor(low, denominators):
        dims = [rng.randint(low, 2) for _ in range(q.n)]
        return Representation(q, dims, [
            [[Fraction(rng.randint(-3, 3), rng.choice(denominators))
              for _ in range(dims[a.source - 1])] for _ in range(dims[a.target - 1])]
            for a in q.arrows])

    outcomes = {"block": 0, "product": 0}
    for k in range(60):
        m, x = (factor(int(k % 3 > 0), (1,) if k % 2 else (1, 2, 3)) for _ in range(2))
        got, want = _typed_outcomes(spec, m, x)
        assert got == want, (m, x)
        acts = [any(v for row in mat_mul(r.map_for("a2"), r.map_for("a1")) for v in row)
                if r.dims[0] and r.dims[2] else False for r in (m, x)]
        assert (got == "block") == all(acts), (m, x)
        outcomes["block" if got == "block" else "product"] += 1
    assert outcomes["block"] >= 15 and outcomes["product"] >= 15, outcomes


def test_identity_blocks_on_k2_match_the_sympy_reference():
    """Every term of a k2 vertex unit is c e_x (x) e_y, a block kron(I, I)
    that reads both of its slots as dimensions.  Over the k2 catalog and
    its perturb_spec corruptions 0..24, some refuted in A (x) A and some
    without pairs, so that _act adds such blocks on the whole square,
    tensor_wba's dims or failed check on seeded int x p/q pairs are the
    sympy reference's, and the same with every vertex eliminated."""
    rng = random.Random(83)
    acted = failed = 0
    for spec in wba.catalog_k2():
        for seed in range(-1, 25):
            s = spec if seed < 0 else wba.perturb_spec(spec, seed)
            acted += bool(s.module_checks or s.eliminated)
            m, x = _int_rep(K2, rng, 4), _rational_rep(K2, rng, 4)
            got, want = _typed_outcomes(s, m, x)
            assert got == want, (s.name, seed, m, x)
            assert _outcome(s, m, x) == _outcome(_on_the_elimination_route(s), m, x)
            failed += isinstance(got, str)
    assert acted >= 30 and failed >= 10, (acted, failed)


def test_fraction_coefficients_that_sum_to_an_integer_give_ints():
    """D(r1) = 1/2 r1(x)r1 + 1/2 r2(x)r2 on the 2-arrow Kronecker quiver
    puts both blocks on the same pairs, so with M's r1 and r2 maps equal
    and N's equal each entry is a sum of two Fraction halves that comes
    out integral, and must be an int.  With unequal int maps some entries
    are halves.  Either way the product is the sympy reference's, entry
    types included."""
    q = wba.kronecker_quiver(2)
    spec = wba.CoproductSpec(q, {
        "e1": [("e1", "e1", 1)], "e2": [("e2", "e2", 1)],
        "r1": [("r1", "r1", Fraction(1, 2)), ("r2", "r2", Fraction(1, 2))],
        "r2": [("r2", "r2", 1)],
    }, {"e1": 1, "e2": 1, "r1": 1, "r2": 1})
    assert not spec.integral_blocks and spec.module_checks == []
    rng = random.Random(97)
    halves = nonzero = 0
    for k in range(30):
        pair = []
        for _ in range(2):
            dims = [rng.randint(1, 2) for _ in range(q.n)]
            r1 = [[rng.randint(-3, 3) for _ in range(dims[0])] for _ in range(dims[1])]
            r2 = r1 if k % 2 else [[rng.randint(-3, 3) for _ in range(dims[0])]
                                   for _ in range(dims[1])]
            pair.append(Representation(q, dims, [r1, r2]))
        got, want = _typed_outcomes(spec, *pair)
        assert got == want, pair
        entries = [(t, v) for row in got[1]["r1"] for t, v in row]
        if k % 2:
            assert all(t is int for t, _ in entries), pair
            nonzero += any(v for _, v in entries)
        else:
            halves += any(t is Fraction for t, _ in entries)
    assert nonzero >= 8 and halves >= 4, (nonzero, halves)


def test_path_actions_are_products_of_arrow_maps():
    """Each path's map, from its source's space to its target's, read by
    slot: on every path of A4 '>>>' (lengths up to 3) and of the 3-arrow
    Kronecker quiver, with p/q entries, under a grouplike structure whose
    D(e_s) also carries p (x) p for each longer path p from s, so that its
    read_paths are every longer path.  A trivial path e_v's slot is
    len(arrows) + v - 1 and reads its dimension, standing for the
    identity; an arrow's is its place in the quiver's arrows and reads the
    representation's own matrix, not a copy; a longer path's lies past
    both, in read_paths order, and reads the dense product of its arrow
    maps, integral values held as ints.  _path_map gives the same maps."""
    rng = random.Random(31)
    for q, lengths in (
        (OrientationWord(">>>").to_quiver(), {0, 1, 2, 3}),
        (wba.kronecker_quiver(3), {0, 1}),
    ):
        alg = wba.PathAlgebra(q)
        assert {len(ids) for _, _, ids in alg.paths} == lengths
        keys = alg.generator_keys()
        delta = {key: [(key, key, 1)] for key in keys}
        longer = [k for k, (_, _, ids) in enumerate(alg.paths) if len(ids) > 1]
        for k in longer:
            delta[f"e{alg.paths[k][0]}"].append((alg.path_key(k), alg.path_key(k), 1))
        spec = wba.CoproductSpec(q, delta, dict.fromkeys(keys, 1))
        assert spec.read_paths == longer
        arrows = len(q.arrows)
        for _ in range(6):
            dims = [rng.randint(1, 3) for _ in range(q.n)]
            maps = [
                [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                  for _ in range(dims[a.source - 1])]
                 for _ in range(dims[a.target - 1])]
                for a in q.arrows
            ]
            rep = Representation(q, dims, maps)
            read = wba._slot_maps(spec, rep)
            assert len(read) == len(spec.slot) == arrows + q.n + len(longer)
            for k, (s, t, ids) in enumerate(alg.paths):
                slot = spec.slot[k]
                if not ids:
                    assert slot == arrows + s - 1
                    assert wba._path_map(alg, rep, k) == read[slot] == dims[s - 1]
                    continue
                if len(ids) == 1:
                    assert q.arrows[slot].id == ids[0]
                    assert read[slot] is rep.map_for(ids[0])
                else:
                    assert slot == arrows + q.n + longer.index(k)
                block = identity(dims[s - 1])
                for aid in ids:
                    block = mat_mul(rep.map_for(aid), block)
                assert [list(row) for row in read[slot]] == block, (s, t, ids)
                got = [list(row) for row in wba._path_map(alg, rep, k)]
                assert got == block, (s, t, ids)
                assert len(got) == dims[t - 1]
                assert all(type(x) is int for row in got for x in row if x.denominator == 1)


def test_discreteness_reports():
    q = OrientationWord(">").to_quiver()
    assert wba.is_discrete(wba.canonical_wba(q))["discrete"] is True
    entries = by_name(wba.catalog_kronecker(1))
    report = wba.is_discrete(entries["kronecker1-a"])
    assert report["discrete"] is False
    assert (report["witness"]["i"], report["witness"]["j"]) == (1, 2)


def test_stored_units_are_two_sided_units():
    """U (x) M and M (x) U are isomorphic to M for the stored unit U of
    every catalog structure, M running over the vertex simples, the
    identity representation and three seeded samples."""
    specs = wba.catalog_k2() + [
        spec for w in (1, 2, 3) for spec in wba.catalog_kronecker(w)
    ]
    assert len(specs) == 20
    for spec in specs:
        q, u = spec.quiver, spec.unit
        samples = [simple(q, v) for v in range(1, q.n + 1)]
        samples.append(identity_rep(q))
        samples += [random_representation(q, 2, seed=1 + 7 * k) for k in range(3)]
        for k, m in enumerate(samples):
            assert is_isomorphic(wba.tensor_wba(spec, u, m), m) is True, (spec.name, k)
            assert is_isomorphic(wba.tensor_wba(spec, m, u), m) is True, (spec.name, k)


def entries_k1(v):
    return by_name(wba.catalog_kronecker(1))[f"kronecker1-{v}"]


def _raw_delta(spec):
    alg = spec.algebra
    return {
        key: {
            (alg.path_key(u), alg.path_key(w)): c
            for (u, w), c in spec.delta_gen[key].items()
        }
        for key in alg.generator_keys()
    }


def test_json_roundtrip_preserves_the_structure():
    spec = entries_k1("a")
    data = spec.to_dict()
    text = json.dumps(data)
    back = wba.CoproductSpec.from_dict(json.loads(text))
    assert back.delta_gen == spec.delta_gen
    assert back.eps_gen == spec.eps_gen
    assert back.unit == spec.unit
    assert wba.check_axioms(back).ok


def test_perturbation_is_deterministic_and_detected():
    spec = entries_k1("a")
    bad1 = wba.perturb_spec(spec, 7)
    bad2 = wba.perturb_spec(spec, 7)
    assert bad1.perturbation == bad2.perturbation
    assert bad1.delta_gen == bad2.delta_gen
    flagged = 0
    accepted = 0
    for seed in range(40):
        bad = wba.perturb_spec(spec, seed)
        report = wba.check_axioms(bad)
        expected_valid = wba.deformation_preserves_axioms(
            spec, bad.perturbation_info
        )
        assert report.ok == expected_valid, (seed, bad.perturbation)
        flagged += 0 if report.ok else 1
        accepted += 1 if report.ok else 0
    assert flagged >= 35  # almost every single-coefficient change breaks something


def test_the_valid_deformation_family_is_real():
    """Adding r(x)r to the arrow coproduct of structure (a) gives a genuine
    bialgebra that no axiom rejects; the recognizer knows the family."""
    spec = entries_k1("a")
    raw = _raw_delta(spec)
    raw = {
        k: [[l, r, str(c)] for (l, r), c in sorted(t.items())]
        for k, t in raw.items()
    }
    raw["r1"].append(["r1", "r1", "1"])
    counit = {k: str(c) for k, c in spec.eps_gen.items()}
    deformed = wba.CoproductSpec(KRON1, raw, counit, name="deformed")
    report = wba.check_axioms(deformed)
    assert report.ok and deformed.is_bialgebra()
    info = {"kind": "delta", "generator": "r1", "pair": ("r1", "r1"), "shift": "1"}
    assert wba.deformation_preserves_axioms(spec, info)
    # the crossed slots are NOT in the family and genuinely fail
    entries2 = by_name(wba.catalog_kronecker(2))
    spec2 = entries2["kronecker2-a"]
    info_bad = {"kind": "delta", "generator": "r1", "pair": ("r1", "r2"), "shift": "1"}
    assert not wba.deformation_preserves_axioms(spec2, info_bad)
    # nor is a structure whose shared vertex idempotent is not grouplike
    data = spec.to_dict()
    data["delta"]["e1"] = [["e1", "e1", "2"]]
    assert not wba.deformation_preserves_axioms(wba.CoproductSpec.from_dict(data), info)


def test_discrete_structure_on_the_two_vertex_algebra():
    entries = by_name(wba.catalog_k2())
    report = wba.is_discrete(entries["k2-e"])
    assert report["discrete"] is True
