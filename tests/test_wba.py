"""Coproducts on path algebras: axiom checks, module tensors, catalogs."""

import json
import random
from fractions import Fraction

import pytest

from fpq import exact, wba
from fpq.errors import (
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
from oracles import is_isomorphic, mat_mul, sympy_tensor_wba

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
                a.id: exact.kron(
                    identity(m1), x.map_for(a.id), (m1, m1), (n2, n1)
                )
                + exact.kron(
                    m.map_for(a.id), identity(n1), (m2, m1), (n1, n1)
                )
                + exact.zeros(m2 * n2, m1 * n1)
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


def test_tensor_entries_are_fractions_on_integer_inputs():
    """Integral entries run as ints inside tensor_wba; what it returns
    holds Fractions only, also where an elimination divides by a pivot
    other than 1: with 2 r2(x)e2 added to D(e1) of kronecker2-e, integer
    factors give a map entry -1/2."""
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
    assert all(type(v) is Fraction for v in entries)
    assert Fraction(-1, 2) in entries


def test_trusted_output_is_what_the_checked_constructor_builds():
    """tensor_wba returns without re-validating its maps.  On seeded
    pairs with integer and with p/q entries, the checked constructor
    rebuilds an equal representation from its dims and maps, every dim is
    an int and every entry, zeros included, a Fraction."""
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
    assert all(type(v) is Fraction for v in entries)
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


def test_path_actions_are_products_of_arrow_maps():
    """Each path's action is built from its prefix's; on every path of
    A4 '>>>' (lengths up to 3) and of the 3-arrow Kronecker quiver, with
    p/q entries, it must equal the dense product of its arrow maps placed
    at its (target, source) block, integral values held as ints."""
    rng = random.Random(31)
    for q, lengths in (
        (OrientationWord(">>>").to_quiver(), {0, 1, 2, 3}),
        (wba.kronecker_quiver(3), {0, 1}),
    ):
        alg = wba.PathAlgebra(q)
        assert {len(ids) for _, _, ids in alg.paths} == lengths
        for _ in range(6):
            dims = [rng.randint(1, 3) for _ in range(q.n)]
            maps = [
                [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                  for _ in range(dims[a.source - 1])]
                 for _ in range(dims[a.target - 1])]
                for a in q.arrows
            ]
            rep = Representation(q, dims, maps)
            offs = [sum(dims[:v]) for v in range(q.n + 1)]
            got = wba._path_entries(alg, rep)
            assert len(got) == len(alg)
            for (s, t, ids), entries in zip(alg.paths, got):
                block = identity(dims[s - 1])
                for aid in ids:
                    block = mat_mul(rep.map_for(aid), block)
                want = {
                    (r + offs[t - 1], c + offs[s - 1]): x
                    for r, row in enumerate(block) for c, x in enumerate(row) if x
                }
                assert {(r, c): x for r, c, x in entries} == want, (s, t, ids)
                assert len(entries) == len(want)
                assert all(type(x) is int for _, _, x in entries if x.denominator == 1)


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


def test_discrete_structure_on_the_two_vertex_algebra():
    entries = by_name(wba.catalog_k2())
    report = wba.is_discrete(entries["k2-e"])
    assert report["discrete"] is True
