"""Coproducts on path algebras: axiom checks, module tensors, catalogs."""

import json
import re

import pytest

from fpq import exact, wba
from fpq.errors import (
    DuplicateLabelError,
    NotAQuiverActionError,
    StructureMismatchError,
    UnitNotFoundError,
    WrongQuiverError,
)
from fpq.quiver import (
    Quiver,
    Representation,
    identity_rep,
    is_isomorphic,
    random_representation,
    simple,
    tensor_vertexwise,
)
from fpq.typea import OrientationWord

K2 = Quiver(2, [])
KRON1 = wba.kronecker_quiver(1)


def by_name(entries):
    return {s.name: s for s in entries}


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
    # D(1) = e1(x)e1 + e2(x)e2 is idempotent, but D(e1) = 2 e1(x)e1 is not
    doubled = wba.CoproductSpec(
        K2,
        {"e1": [("e1", "e1", 2)], "e2": [("e1", "e1", -1), ("e2", "e2", 1)]},
        {"e1": 1, "e2": 1},
    )
    k2_s1 = simple(K2, 1)
    with pytest.raises(NotAQuiverActionError, match="e1 is not idempotent"):
        wba.tensor_wba(doubled, k2_s1, k2_s1)


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
                    exact.identity(m1), x.map_for(a.id), (m1, m1), (n2, n1)
                )
                + exact.kron(
                    m.map_for(a.id), exact.identity(n1), (m2, m1), (n1, n1)
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


def test_discreteness_reports():
    q = OrientationWord(">").to_quiver()
    assert wba.is_discrete(wba.canonical_wba(q))["discrete"] is True
    entries = by_name(wba.catalog_kronecker(1))
    report = wba.is_discrete(entries["kronecker1-a"])
    assert report["discrete"] is False
    assert (report["witness"]["i"], report["witness"]["j"]) == (1, 2)


def test_equivalences_between_catalog_entries():
    entries = by_name(wba.catalog_k2())
    assert wba.equivalent_structures(entries["k2-a"], entries["k2-c"])["equivalent"]
    assert wba.equivalent_structures(entries["k2-b"], entries["k2-d"])["equivalent"]
    assert wba.equivalent_structures(entries["k2-a"], entries["k2-a"])["equivalent"]
    assert not wba.equivalent_structures(entries["k2-a"], entries["k2-e"])[
        "equivalent"
    ]


def test_units_verify_for_the_kronecker_catalog():
    entries = by_name(wba.catalog_kronecker(2))
    for v in "ace":
        spec = entries[f"kronecker{2}-{v}"]
        assert wba.check_unit(spec)["ok"], v
    found = wba.find_unit(entries["kronecker2-a"])
    assert list(found.dims) == list(entries["kronecker2-a"].unit.dims)
    stripped = wba.CoproductSpec(
        KRON1,
        {k: [[l, r, str(c)] for (l, r), c in sorted(t.items())]
         for k, t in _raw_delta(entries_k1("a")).items()},
        {k: str(c) for k, c in entries_k1("a").eps_gen.items()},
        name="no-unit",
    )
    with pytest.raises(UnitNotFoundError):
        wba.check_unit(stripped)


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
