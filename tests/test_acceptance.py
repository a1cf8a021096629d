"""Acceptance suite: the package's ten headline guarantees.

Each test states one end-to-end guarantee at its advertised scale and
tolerance, so ``pytest -v tests/test_acceptance.py`` prints one verdict
line per guarantee.  Where the naive expectation is genuinely wrong (a
catalog coproduct that is not coassociative, a coefficient change that
provably preserves every axiom), the literal statement is kept as a
strict xfail and a companion test pins down the corrected behavior.
"""

import math

import pytest

from fpq.bricks import DerivedObject, band_family, certify_brick_set, \
    maximal_brick_sets
from fpq.engine import adjacency, fpd_exact, fpd_lower_bound, \
    fpv_closed_form, fpv_empirical, vertexwise
from fpq.quiver import dim_ext1, dual, euler_form, hom_dim, \
    random_acyclic_quiver, random_representation, simple, tensor_vertexwise
from fpq.spectral import gamma_matrix, gamma_radius_closed, spectral_radius
from fpq.typea import OrientationWord, all_intervals, all_orientations, \
    closed_form_fpd, interval_rep
from fpq import wba


def orientations_up_to(n_max, n_min=2):
    for n in range(n_min, n_max + 1):
        for w in all_orientations(n):
            yield w


def full_catalog():
    specs = list(wba.catalog_k2())
    for w in (1, 2, 3):
        specs.extend(wba.catalog_kronecker(w))
    return specs


def test_criterion_01_interval_dimensions_match_closed_form():
    """Exact dimension of every interval at every shift in -2..3 equals the
    sink/source/flow closed form on every A_n orientation, n <= 6, with the
    computed spectral radius within 1e-6 of that integer."""
    checked = 0
    for w in orientations_up_to(6):
        q = w.to_quiver()
        for v in all_intervals(w.n):
            m = interval_rep(w, v, q)
            for shift in range(-2, 4):
                report = fpd_exact(m, shift=shift)
                want = closed_form_fpd(w, v, shift)
                assert report.value == want, (w.dirs, v, shift)
                a = report.extra["adjacency"]
                rho = 0.0 if a is None else spectral_radius(a)
                assert abs(rho - want) <= 1e-6, (w.dirs, v, shift)
                checked += 1
    assert checked == sum(
        2 ** (n - 1) * n * (n + 1) // 2 * 6 for n in range(2, 7)
    )


def test_criterion_02_euler_form_counts_hom_minus_ext():
    """dim Hom - dim Ext^1 = <dim M, dim N> exactly for 200 seeded pairs
    over 10 random acyclic quivers with n <= 6 and vertex dims <= 4."""
    pairs = 0
    for qs in range(10):
        q = random_acyclic_quiver(6, qs)
        for k in range(20):
            m = random_representation(q, 4, seed=1000 * qs + 2 * k)
            n = random_representation(q, 4, seed=1000 * qs + 2 * k + 1)
            assert hom_dim(m, n) - dim_ext1(m, n) == \
                euler_form(q, m.dims, n.dims)
            pairs += 1
    assert pairs == 200


def test_criterion_03_canonical_coproduct_gives_vertexwise_tensor():
    """The grouplike coproduct on trivial paths induces exactly the
    componentwise tensor: structural equality on 50 seeded pairs per
    orientation of A_n, n <= 4."""
    for w in orientations_up_to(4):
        q = w.to_quiver()
        spec = wba.canonical_wba(q)
        for k in range(50):
            m = random_representation(q, 3, seed=400 + 2 * k)
            x = random_representation(q, 3, seed=401 + 2 * k)
            assert wba.tensor_wba(spec, m, x) == tensor_vertexwise(m, x)


@pytest.mark.xfail(
    strict=True,
    reason="the two-term arrow coproducts of the b/d catalog entries are "
    "genuinely non-coassociative, and a seeded coefficient change can land "
    "in a family that provably preserves every axiom; the companion test "
    "pins down the corrected behavior",
)
def test_criterion_04_axiom_checker_literal():
    """Literal reading: every catalog structure passes every axiom check and
    all 100 seeded single-coefficient corruptions are flagged."""
    specs = full_catalog()
    all_pass = all(wba.check_axioms(s).ok for s in specs)
    passing = [s for s in specs if wba.check_axioms(s).ok]
    all_flagged = True
    for k in range(100):
        bad = wba.perturb_spec(passing[k % len(passing)], 23 + k)
        all_flagged = all_flagged and not wba.check_axioms(bad).ok
    assert all_pass and all_flagged


def test_criterion_04_axiom_checker_behavior():
    """Corrected reading: the checker reports exactly the coassociativity
    failure of the b/d arrow coproducts and nothing else on the catalogs,
    and flags a seeded single-coefficient corruption precisely when the
    change falls outside the provably axiom-preserving family."""
    bad_names = {f"kronecker{w}-{t}" for w in (1, 2, 3) for t in "bd"}
    specs = full_catalog()
    assert len(specs) == 20
    for spec in specs:
        got = [f["axiom"] for f in wba.check_axioms(spec).failures]
        want = ["coassociativity"] if spec.name in bad_names else []
        assert got == want, spec.name
    passing = [s for s in specs if wba.check_axioms(s).ok]
    flagged = 0
    for k in range(100):
        spec = passing[k % len(passing)]
        bad = wba.perturb_spec(spec, 23 + k)
        report = wba.check_axioms(bad)
        preserved = wba.deformation_preserves_axioms(
            spec, bad.perturbation_info
        )
        assert report.ok == (preserved is True), (k, bad.perturbation)
        flagged += 0 if report.ok else 1
    assert flagged >= 95


def test_criterion_05_kronecker_band_family_diverges():
    """On the two-arrow Kronecker quiver the band modules form certified
    brick sets of every size 1..12 whose adjacency for S(1) (x) - is
    all-ones with radius |T| within 1e-9, and the lower-bound engine
    reports divergence."""
    q = wba.kronecker_quiver(2)
    m = simple(q, 1)
    gen = band_family(q)
    for size in range(1, 13):
        members = gen(size)
        ok, cert = certify_brick_set(members)
        assert ok
        assert all(
            cert[i][j] == (1 if i == j else 0)
            for i in range(size) for j in range(size)
        )
        a = adjacency(members, m, 0, vertexwise())
        assert all(entry == 1 for row in a for entry in row)
        assert abs(spectral_radius(a) - size) <= 1e-9
    report = fpd_lower_bound(m, family=gen, budget=12)
    assert report.divergent is True
    assert report.value == 12


def test_criterion_06_gamma_matrix_radius():
    """spectral_radius of the n-th star-shaped 0/1 matrix equals
    (1 + sqrt(4n-3))/2 within 1e-9 for n <= 50 and is always >= sqrt(n)."""
    for n in range(1, 51):
        rho = spectral_radius(gamma_matrix(n))
        assert abs(rho - gamma_radius_closed(n)) <= 1e-9
        assert rho >= math.sqrt(n) - 1e-9
        assert abs(gamma_radius_closed(n) - (1 + math.sqrt(4 * n - 3)) / 2) \
            <= 1e-12


def test_criterion_07_curvature_closed_form():
    """Empirical curvature at n_max = 10 equals the closed form (max vertex
    dimension) exactly for 50 seeded representations spread over all A_n
    orientations with n <= 4 and dims <= 3."""
    words = list(orientations_up_to(4))
    for k in range(50):
        w = words[k % len(words)]
        q = w.to_quiver()
        m = random_representation(q, 3, seed=700 + k)
        closed = fpv_closed_form(m)
        empirical = fpv_empirical(m, n_max=10)
        assert empirical["value"] == closed
        assert closed == max(m.dims)


def test_criterion_08_exact_value_dominates_vertex_dimensions():
    """Every exact dimension report for an unshifted module on a type A
    quiver is at least the largest vertex dimension (the vertex-simple
    singleton brick sets certify that floor)."""
    for w in orientations_up_to(4):
        q = w.to_quiver()
        for v in all_intervals(w.n):
            report = fpd_exact(interval_rep(w, v, q))
            assert report.value >= 1
    words = list(orientations_up_to(4))
    for k in range(30):
        w = words[k % len(words)]
        q = w.to_quiver()
        m = random_representation(q, 3, seed=800 + k)
        if max(m.dims) == 0:
            continue
        report = fpd_exact(m)
        assert report.value >= max(m.dims), (w.dirs, m.dims)


def _fpd_through_opposite(m, word, q):
    """sup over maximal brick sets of the radius of [dim Hom(M (x) X_j, X_i)]:
    the dimension of M (x) - read as a functor on the opposite category."""
    objs = [interval_rep(word, v, q) for v in all_intervals(word.n)]
    best = 0.0
    for clique in maximal_brick_sets([DerivedObject(r, 0) for r in objs]):
        a = [
            [hom_dim(tensor_vertexwise(m, objs[j]), objs[i]) for j in clique]
            for i in clique
        ]
        best = max(best, spectral_radius(a))
    return best


def test_criterion_09_duality():
    """Hom duality dim Hom(M (x) N, X) = dim Hom(X*, M* (x) N*) on 100
    seeded triples, and for every interval on every A_n orientation with
    n <= 5 the opposite-category dimension of M (x) - equals the exact
    dimension of the dual interval over the opposite quiver."""
    for k in range(100):
        q = random_acyclic_quiver(5, 900 + k)
        m = random_representation(q, 3, seed=3 * k)
        n = random_representation(q, 3, seed=3 * k + 1)
        x = random_representation(q, 3, seed=3 * k + 2)
        assert hom_dim(tensor_vertexwise(m, n), x) == \
            hom_dim(dual(x), tensor_vertexwise(dual(m), dual(n)))
    for w in orientations_up_to(5):
        q = w.to_quiver()
        for v in all_intervals(w.n):
            m = interval_rep(w, v, q)
            lhs = _fpd_through_opposite(m, w, q)
            rhs = fpd_exact(dual(m)).value
            assert abs(lhs - rhs) <= 1e-9, (w.dirs, v)


def test_criterion_10_discreteness():
    """The grouplike structure is discrete on every tested quiver, while the
    deformed arrow coproduct on each Kronecker quiver is non-discrete with
    witnessing pair (S(1), S(2))."""
    quivers = [w.to_quiver() for w in orientations_up_to(4)]
    quivers.extend(wba.kronecker_quiver(w) for w in (1, 2, 3))
    quivers.extend(random_acyclic_quiver(5, seed) for seed in (0, 1, 2))
    for q in quivers:
        verdict = wba.is_discrete(wba.canonical_wba(q))
        assert verdict["discrete"] is True
        assert verdict["witness"] is None
    for w in (1, 2, 3):
        spec = next(
            s for s in wba.catalog_kronecker(w) if s.name.endswith("-a")
        )
        verdict = wba.is_discrete(spec)
        assert verdict["discrete"] is False
        assert verdict["witness"]["i"] == 1
        assert verdict["witness"]["j"] == 2
