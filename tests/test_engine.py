"""The dimension engine against brute-force and closed-form oracles."""

import pytest

from fpq import bricks, engine, quiver, wba
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
    tensor_vertexwise,
)
from fpq.spectral import integer_radius
from fpq.typea import (
    OrientationWord,
    all_indecomposables,
    all_intervals,
    all_orientations,
    closed_form_fpd,
    interval_rep,
)
from oracles import brute_force_brick_sets, brute_force_fpd, numpy_radius, twisted_hom

KRON = Quiver(2, [("r1", 1, 2), ("r2", 1, 2)])


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


def test_ties_keep_the_earliest_maximal_set():
    """The witness and adjacency are those of the first maximal set, in
    enumeration order, whose radius is the largest; a brute-force scan over
    the oracle's maximal sets finds the same set, and ties do occur."""
    ties = 0
    for n in (2, 3, 4):
        for w in all_orientations(n):
            q = w.to_quiver()
            objs = all_indecomposables(w, q)
            sets = brute_force_brick_sets([(x.rep, 0) for x in objs])
            for v in all_intervals(n):
                m = interval_rep(w, v, q)
                tensored = [tensor_vertexwise(m, x.rep) for x in objs]
                for shift in (0, 1):
                    subs = [[[twisted_hom(objs[i].rep, tensored[j], shift)
                              for j in s] for i in s] for s in sets]
                    radii = [numpy_radius(a) for a in subs]
                    top = [k for k, r in enumerate(radii) if r > max(radii) - 1e-9]
                    ties += len(top) > 1
                    report = engine.fpd_exact(m, shift=shift).extra
                    assert report["witness"] == [objs[i].describe() for i in sets[top[0]]]
                    assert report["adjacency"] == subs[top[0]]
    assert ties > 50


def test_a_cached_proof_gives_the_same_value_and_integral(monkeypatch):
    """fpd_exact on three Kronecker bands and fpd_lower_bound on the band
    family up to size 3 reach the same all-ones witness matrix; whichever
    runs second reads its integer proof from the radius cache and reports
    what it reports on an empty cache."""
    m = simple(KRON, 1)
    bands = band_family(KRON)(3)

    def exact():
        report = engine.fpd_exact(m, indecomposables=bands)
        return report.extra["adjacency"], report.value, report.extra["integral"]

    def lower():
        report = engine.fpd_lower_bound(m, family=band_family(KRON), budget=3)
        return report.extra["adjacency"], report.value, report.extra["integral"]

    monkeypatch.setattr(engine, "_RADIUS_CACHE", {})
    want_exact = exact()
    engine._RADIUS_CACHE.clear()
    want_lower = lower()
    assert want_exact == want_lower == ([[1] * 3] * 3, 3, True)
    for first, second, want in ((exact, lower, want_lower), (lower, exact, want_exact)):
        engine._RADIUS_CACHE.clear()
        first()
        proved = []

        def counting(a, r):
            proved.append(a)
            return integer_radius(a, r)

        monkeypatch.setattr(engine, "integer_radius", counting)
        got = second()
        monkeypatch.setattr(engine, "integer_radius", integer_radius)
        assert got == want and isinstance(got[1], int)
        assert want[0] not in proved  # the witness's proof came from the cache


def test_capped_caches_stay_under_their_caps_and_rebuild_the_same(monkeypatch):
    """An A6 sweep under small caps keeps the index memo, each index's
    tensored lists, the radius cache and the one hom and Ext^1 memo at or
    under their caps, every value matches the closed form, and an evicted
    index is rebuilt to the same report.  The memo is emptied in place, and
    quiver.hom_row is the one function that names it (see
    test_api.test_one_function_reads_and_writes_the_hom_memo)."""
    monkeypatch.setattr(bricks, "_INDEXES", {})
    monkeypatch.setattr(bricks, "MAX_INDEXES", 4)
    monkeypatch.setattr(bricks, "MAX_TENSORED", 3)
    monkeypatch.setattr(engine, "_RADIUS_CACHE", {})
    monkeypatch.setattr(engine, "MAX_RADII", 50)
    monkeypatch.setattr(quiver, "MAX_HOM_PAIRS", 300)
    memo = quiver.HOM_MEMO
    memo.clear()
    first, emptied, last = None, False, 0
    for w in all_orientations(6):
        q = w.to_quiver()
        for v in all_intervals(6):
            m = interval_rep(w, v, q)
            for shift in (0, 1):
                report = engine.fpd_exact(m, shift=shift)
                assert report.value == closed_form_fpd(w, v, shift)
                first = first or (m, shift, report.describe())
                assert len(bricks._INDEXES) <= 4
                assert len(engine._RADIUS_CACHE) <= 50
                assert all(len(i._tensored) <= 3 for i in bricks._INDEXES.values())
                assert len(memo) <= 300
                emptied = emptied or len(memo) < last
                last = len(memo)
    assert emptied
    assert quiver.HOM_MEMO is memo and not hasattr(bricks, "HOM_MEMO")
    m, shift, want = first
    assert ("<<<<<", m.quiver) not in bricks._INDEXES
    assert engine.fpd_exact(m, shift=shift).describe() == want


def test_one_tensored_list_serves_both_shifts():
    """fpd_exact tensors M with each candidate once per structure, however
    many shifts ask; the answers are the vertexwise ones."""
    calls = []

    def counted(m, x):
        calls.append(x)
        return tensor_vertexwise(m, x)

    structure = engine.TensorStructure("counted", counted)
    w = OrientationWord("><>")
    m = random_representation(w.to_quiver(), 2, seed=4)
    for shift in (0, 1, 0, 1):
        got = engine.fpd_exact(m, shift=shift, structure=structure)
        assert got.value == engine.fpd_exact(m, shift=shift).value
    assert len(calls) == len(all_indecomposables(w))
