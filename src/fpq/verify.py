"""Seeded property suites: the package's guarantees as checkable cases.

Each suite is a function of its sizes that returns (key, thunk) pairs; a
thunk returns (ok, detail).  ``run`` evaluates a suite and returns its
results sorted by key, so ``fpq verify`` and the acceptance tests check the
same cases.  ``SUITES`` maps each name to (function, help, sizes), each size a
(flag, minimum, default) triple that ``fpq verify`` makes an option of (any
int when the minimum is None); ``run`` takes every size explicitly.
"""

import functools
import re

from . import engine
from .bricks import band_family, hom_matrix
from .errors import FpqError
from .quiver import (
    dim_ext1,
    dual,
    euler_form,
    hom_dim,
    random_acyclic_quiver,
    random_representation,
    simple,
    tensor_vertexwise,
)
from .spectral import gamma_matrix, gamma_radius_closed, spectral_radius
from .typea import (
    all_intervals,
    all_orientations,
    closed_form_fpd,
    interval_index,
    interval_rep,
    orientation_of,
)


def closed_form(*, n):
    cases = []
    for size in range(2, n + 1):
        for w in all_orientations(size):
            q = w.to_quiver()
            for v in all_intervals(size):
                for shift in range(-2, 4):
                    key = f"n={size} w={w.dirs} v={v[0]},{v[1]} shift={shift}"

                    def thunk(w=w, q=q, v=v, shift=shift):
                        m = interval_rep(w, v, q)
                        got = engine.fpd_exact(m, shift=shift).value
                        want = closed_form_fpd(w, v, shift)
                        return got == want, {"computed": got, "closed_form": want}

                    cases.append((key, thunk))
    return cases


def euler(*, pairs, quivers, max_dim, seed):
    cases = []
    drawn = [random_acyclic_quiver(6, seed + k) for k in range(quivers)]
    for k in range(pairs):
        key = f"pair={k:04d}"

        def thunk(k=k):
            q = drawn[k % len(drawn)]
            m = random_representation(q, max_dim, seed=seed + 1000 + 2 * k)
            n = random_representation(q, max_dim, seed=seed + 1001 + 2 * k)
            h = hom_dim(m, n)
            e = dim_ext1(m, n)
            form = euler_form(q, list(m.dims), list(n.dims))
            return h - e == form, {"hom": h, "ext": e, "euler_form": form}

        cases.append((key, thunk))
    return cases


def opposite_fpd(m):
    """Dimension of M (x) - viewed as a functor on the opposite category:
    sup over maximal brick sets of the spectral radius of the reversed
    adjacency [dim Hom(M (x) X_j, X_i)]_ij.  Reversing every hom is the
    same as dualizing, so this must agree with the plain dimension of
    M* (x) - over the opposite quiver."""
    index = interval_index(orientation_of(m.quiver), m.quiver)
    tensored = index.tensored(m, tensor_vertexwise, 0)
    full = list(zip(*hom_matrix(tensored, index.objs)))
    return engine.best_brick_set(index, full)[0]


def duality(*, triples, n, max_dim, seed):
    cases = []
    for k in range(triples):
        key = f"triple={k:04d}"

        def thunk(k=k):
            q = random_acyclic_quiver(6, seed + 500 + k)
            m = random_representation(q, max_dim, seed=seed + 3 * k)
            y = random_representation(q, max_dim, seed=seed + 3 * k + 1)
            x = random_representation(q, max_dim, seed=seed + 3 * k + 2)
            lhs = hom_dim(tensor_vertexwise(m, y), x)
            rhs = hom_dim(dual(x), tensor_vertexwise(dual(m), dual(y)))
            return lhs == rhs, {"hom": lhs, "dual_hom": rhs}

        cases.append((key, thunk))
    for size in range(2, n + 1):
        for w in all_orientations(size):
            q = w.to_quiver()
            for v in all_intervals(size):
                key = f"interval n={size} w={w.dirs} v={v[0]},{v[1]}"

                def thunk(w=w, q=q, v=v):
                    m = interval_rep(w, v, q)
                    a = opposite_fpd(m)
                    b = engine.fpd_exact(dual(m)).value
                    return a == b, {"opposite_fpd": a, "dual_fpd": b}

                cases.append((key, thunk))
    return cases


def canonical_tensor(*, n, pairs, max_dim, seed):
    from . import wba

    cases = []
    for size in range(2, n + 1):
        for w in all_orientations(size):
            q = w.to_quiver()
            spec = wba.canonical_wba(q)
            for k in range(pairs):
                key = f"n={size} w={w.dirs} pair={k:03d}"

                def thunk(q=q, spec=spec, k=k):
                    m = random_representation(q, max_dim, seed=seed + 2 * k)
                    x = random_representation(q, max_dim, seed=seed + 2 * k + 1)
                    t1 = wba.tensor_wba(spec, m, x)
                    t2 = tensor_vertexwise(m, x)
                    return t1 == t2, {"dims": list(t1.dims)}

                cases.append((key, thunk))
    return cases


def _expected_axiom_failures(name):
    """Structures whose displayed coproduct is genuinely not coassociative
    on the arrows; the checker is expected to say exactly that."""
    if re.match(r"^kronecker[0-9]+-[bd]$", name):
        return ["coassociativity"]
    return []


def wba_axioms(*, w_max, corruptions, seed):
    from . import wba

    specs = list(wba.catalog_k2())
    for w in range(1, w_max + 1):
        specs.extend(wba.catalog_kronecker(w))
    cases = []
    for spec in specs:
        key = f"axioms {spec.name}"

        def thunk(spec=spec):
            report = wba.check_axioms(spec)
            got = [f["axiom"] for f in report.failures]
            want = _expected_axiom_failures(spec.name)
            return got == want, {
                "failures": report.failures,
                "expected": want,
                "bialgebra": report.bialgebra,
            }

        cases.append((key, thunk))
    # The axioms cases check that exactly these structures pass.
    passing = [s for s in specs if not _expected_axiom_failures(s.name)]
    for k in range(corruptions):
        spec = passing[k % len(passing)]
        key = f"corruption={k:03d} {spec.name}"

        def thunk(spec=spec, k=k):
            bad = wba.perturb_spec(spec, seed + k)
            report = wba.check_axioms(bad)
            still_valid = wba.deformation_preserves_axioms(
                spec, bad.perturbation_info
            )
            return report.ok == still_valid, {
                "perturbation": bad.perturbation,
                "failures": [f["axiom"] for f in report.failures],
                "provably_still_valid": still_valid,
            }

        cases.append((key, thunk))
    return cases


def kronecker_divergence(*, size):
    from . import wba

    q = wba.kronecker_quiver(2)
    report = functools.cache(lambda: engine.fpd_lower_bound(
        simple(q, 1), family=band_family(q), budget=size))

    def radius(k):
        r = report().extra["family_sequence"][k - 1]["radius"]
        return abs(r - k) <= 1e-9, {"radius": r}

    def all_ones():
        adj = report().extra.get("adjacency") or []
        return bool(adj) and all(x == 1 for row in adj for x in row), {"size": len(adj)}

    cases = [(f"size={k:02d}", lambda k=k: radius(k)) for k in range(1, size + 1)]
    cases.append(("adjacency all-ones", all_ones))
    cases.append(
        ("divergent flag", lambda: (report().divergent, {"value": report().value}))
    )
    return cases


def gamma(*, n_max, tol):
    cases = []
    for n in range(1, n_max + 1):
        key = f"n={n:02d}"

        def thunk(n=n):
            rho = spectral_radius(gamma_matrix(n))
            want = gamma_radius_closed(n)
            ok = abs(rho - want) <= tol and rho >= n ** 0.5 - 1e-12
            return ok, {"radius": rho, "closed_form": want}

        cases.append((key, thunk))
    return cases


def fpv(*, n, count, max_dim, n_max, seed):
    combos = []
    for size in range(2, n + 1):
        combos.extend(all_orientations(size))
    cases = []
    for k in range(count):
        w = combos[k % len(combos)]
        key = f"rep={k:03d} w={w.dirs}"

        def thunk(w=w, k=k):
            q = w.to_quiver()
            m = random_representation(q, max_dim, seed=seed + k)
            closed = engine.fpv_closed_form(m)
            emp = engine.fpv_empirical(m, n_max=n_max)
            return closed == emp["value"], {
                "closed_form": closed,
                "empirical": emp["value"],
            }

        cases.append((key, thunk))
    return cases


SUITES = {
    "closed-form": (closed_form, "interval dimensions vs the closed form",
                    [("--n", 2, 4)]),
    "euler": (euler, "hom - ext vs the Euler form",
              [("--pairs", 0, 200), ("--quivers", 1, 10), ("--max-dim", 0, 4),
               ("--seed", None, 7)]),
    "duality": (duality, "hom duality and dual-interval dimensions",
                [("--triples", 0, 100), ("--n", 1, 5), ("--max-dim", 0, 3),
                 ("--seed", None, 11)]),
    "canonical-tensor": (canonical_tensor,
                         "canonical coproduct vs componentwise tensor",
                         [("--n", 2, 4), ("--pairs", 0, 50), ("--max-dim", 0, 3),
                          ("--seed", None, 3)]),
    "wba-axioms": (wba_axioms, "catalog axiom reports and corruptions",
                   [("--w-max", 0, 3), ("--corruptions", 0, 100),
                    ("--seed", None, 23)]),
    "kronecker-divergence": (kronecker_divergence,
                             "band-module lower bounds grow without bound",
                             [("--size", 3, 12)]),
    "gamma": (gamma, "hub-matrix radii vs the closed form",
              [("--n-max", 1, 50), ("--tol", 0, 1e-9)]),
    "fpv": (fpv, "empirical curvature vs the closed form",
            [("--n", 2, 4), ("--count", 0, 50), ("--max-dim", 0, 3),
             ("--n-max", 1, 10), ("--seed", None, 17)]),
}


def run(name, **sizes):
    """Evaluate suite name at sizes and return (key, ok, detail) sorted by
    key.  An FpqError fails only the case that raised it."""
    results = []
    for key, thunk in SUITES[name][0](**sizes):
        try:
            ok, detail = thunk()
        except FpqError as exc:
            ok, detail = False, {"error": exc.payload()}
        results.append((key, bool(ok), detail))
    return sorted(results, key=lambda r: r[0])
