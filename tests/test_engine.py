"""The dimension engine against brute-force and closed-form oracles."""

import pytest

from fpq import engine, wba
from fpq.bricks import DerivedObject, band_family, maximal_brick_sets
from fpq.errors import (
    DimensionGuardError,
    IncompleteListError,
    InputError,
    StructureMismatchError,
)
from fpq.quiver import (
    Quiver,
    random_representation,
    simple,
)
from fpq.typea import (
    OrientationWord,
    all_indecomposables,
    all_intervals,
    all_orientations,
    closed_form_fpd,
    interval_rep,
)
from oracles import brute_force_fpd, numpy_radius

KRON = Quiver(2, [("r1", 1, 2), ("r2", 1, 2)])


def test_interval_dimensions_match_closed_form_exhaustively():
    for n in (2, 3):
        for w in all_orientations(n):
            q = w.to_quiver()
            for v in all_intervals(n):
                m = interval_rep(w, v, q)
                for shift in (-1, 0, 1, 2):
                    got = engine.fpd_exact(m, shift=shift).value
                    assert got == closed_form_fpd(w, v, shift), (w.dirs, v, shift)


def test_interval_dimensions_match_brute_force():
    """Maximal-set search equals the all-subsets supremum."""
    for n in (2, 3):
        for w in all_orientations(n):
            q = w.to_quiver()
            for v in all_intervals(n):
                m = interval_rep(w, v, q)
                for shift in (0, 1):
                    got = float(engine.fpd_exact(m, shift=shift).value)
                    want = brute_force_fpd(m, w, shift=shift)
                    assert got == pytest.approx(want, abs=1e-8)


def test_random_objects_match_brute_force():
    """Decomposable tensoring objects, where no closed form applies."""
    for word in ("><", "<>", ">><"):
        w = OrientationWord(word)
        q = w.to_quiver()
        for seed in range(6):
            m = random_representation(q, 2, seed=seed)
            for shift in (0, 1):
                got = float(engine.fpd_exact(m, shift=shift).value)
                want = brute_force_fpd(m, w, shift=shift)
                assert got == pytest.approx(want, abs=1e-8), (word, seed, shift)


def test_mixed_shift_brick_sets_do_not_beat_module_sets():
    """Brick sets drawn from several shifts at once never exceed the
    supremum over plain module brick sets."""
    w = OrientationWord("><")
    q = w.to_quiver()
    base = [interval_rep(w, v, q) for v in all_intervals(w.n)]
    pool = [
        DerivedObject(r, s) for r in base for s in (-1, 0, 1, 2)
    ]
    structure = engine.vertexwise()
    for seed in (0, 3):
        m = random_representation(q, 2, seed=seed)
        exact_value = float(engine.fpd_exact(m).value)
        best = 0.0
        for clique in maximal_brick_sets(pool):
            members = [pool[i] for i in clique]
            a = engine.adjacency(members, m, 0, structure)
            best = max(best, numpy_radius(a))
        assert best == pytest.approx(exact_value, abs=1e-8)


def test_exact_report_contents():
    w = OrientationWord("<>")
    q = w.to_quiver()
    m = interval_rep(w, (2, 2), q)
    report = engine.fpd_exact(m)
    assert report.value == 2 and isinstance(report.value, int)
    assert report.mode == "exact" and report.shift == 0
    assert report.structure == "vertexwise"
    assert report.extra["integral"] is True
    assert report.extra["candidates"] == 6
    labels = [x["label"] for x in report.extra["witness"]]
    assert len(labels) == len(report.extra["adjacency"])
    assert numpy_radius(report.extra["adjacency"]) == pytest.approx(2.0, abs=1e-9)
    d = report.describe()
    assert d["field"] == "Q" and d["value"] == 2
    supplied = engine.fpd_exact(m, indecomposables=all_indecomposables(w, q))
    assert supplied.describe() == d


def test_out_of_range_shifts_are_zero():
    w = OrientationWord(">>")
    m = interval_rep(w, (1, 2), w.to_quiver())
    for shift in (-2, 2, 5):
        report = engine.fpd_exact(m, shift=shift)
        assert report.value == 0 and report.extra["integral"] is True


def test_non_chain_quivers_need_candidates():
    s1 = simple(KRON, 1)
    with pytest.raises(IncompleteListError):
        engine.fpd_exact(s1)
    report = engine.fpd_exact(s1, indecomposables=[s1, simple(KRON, 2)])
    assert report.value == 1
    with pytest.raises(InputError):
        engine.fpd_exact(s1, indecomposables=[DerivedObject(s1, 1)])


def test_lower_bound_floor_is_max_vertex_dimension():
    w = OrientationWord("><")
    q = w.to_quiver()
    for seed in range(5):
        m = random_representation(q, 3, seed=seed)
        report = engine.fpd_lower_bound(m)
        assert report.value == max(m.dims)
        assert float(report.value) <= float(engine.fpd_exact(m).value) + 1e-9


def test_kronecker_band_family_diverges():
    m = simple(KRON, 1)
    report = engine.fpd_lower_bound(m, family=band_family(KRON), budget=6)
    sizes = [e["size"] for e in report.extra["family_sequence"]]
    radii = [e["radius"] for e in report.extra["family_sequence"]]
    assert sizes == [1, 2, 3, 4, 5, 6]
    for s, r in zip(sizes, radii):
        assert r == pytest.approx(s, abs=1e-9)
    assert report.divergent is True
    assert report.value == 6
    a = report.extra["adjacency"]
    assert all(x == 1 for row in a for x in row)


def test_short_band_runs_are_not_flagged_divergent():
    m = simple(KRON, 1)
    report = engine.fpd_lower_bound(m, family=band_family(KRON), budget=2)
    assert report.divergent is False


def test_bad_family_size_is_rejected():
    m = simple(KRON, 1)
    fam = band_family(KRON)
    with pytest.raises(InputError):
        engine.fpd_lower_bound(m, family=lambda size: fam(size + 1), budget=3)


def test_curvature_closed_form_vs_empirical():
    w = OrientationWord("><")
    q = w.to_quiver()
    for seed in range(8):
        m = random_representation(q, 2, seed=seed)
        closed = engine.fpv_closed_form(m)
        assert closed == max(m.dims)
        report = engine.fpv_empirical(m, n_max=6)
        assert report["value"] == closed
        assert len(report["per_vertex"]) == q.n


def test_curvature_closed_form_needs_componentwise_structure():
    q = OrientationWord(">").to_quiver()
    structure = engine.from_weak_bialgebra(wba.canonical_wba(q))
    with pytest.raises(StructureMismatchError):
        engine.fpv_closed_form(simple(q, 1), structure=structure)


def test_curvature_guard_aborts_runaway_powers():
    from fpq.quiver import Representation

    q = OrientationWord(">").to_quiver()
    m = Representation(q, [2, 2], {"a1": [[1, 0], [0, 1]]})
    with pytest.raises(DimensionGuardError):
        engine.fpv_empirical(m, n_max=10, guard=16)


def test_coproduct_structure_reproduces_componentwise_dimension():
    w = OrientationWord("><")
    q = w.to_quiver()
    structure = engine.from_weak_bialgebra(wba.canonical_wba(q))
    m = interval_rep(w, (1, 2), q)
    assert engine.fpd_exact(m, structure=structure).value == engine.fpd_exact(m).value
