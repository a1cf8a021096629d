"""Command-line front end: JSON in, JSON out.

Every command reads quivers, representations, matrices, and coproduct
structures from JSON files (or the inline descriptors ``typeA:<word>`` and
``interval:i,j``), writes a single JSON report to stdout or ``--out``, and
exits 0 on success, 1 on a domain error (the report is then a structured
``{"error": ...}`` object), or 2 on a usage error, including malformed
JSON, which is reported with its line and column.

Reports embed the invoking configuration under ``"config"`` and are
serialized deterministically (sorted keys, floats at 12 significant
digits, exact integers as integers), so identical invocations produce
byte-identical output.  ``verify`` runs a named property suite and exits
nonzero if any case fails; cases are reported in canonical key order.
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import engine, wba
from .bricks import DerivedObject, band_family, brick_set, maximal_brick_sets
from .errors import FpqError, InputError, WrongQuiverError
from .quiver import (
    Quiver,
    Representation,
    dim_ext1,
    dual,
    euler_form,
    hom_dim,
    random_acyclic_quiver,
    random_representation,
    simple,
    tensor_vertexwise,
)
from .spectral import as_integer, gamma_matrix, gamma_radius_closed, spectral_radius
from .typea import (
    OrientationWord,
    all_indecomposables,
    all_intervals,
    all_orientations,
    closed_form_fpd,
    interval_rep,
    orientation_of,
)


class UsageError(Exception):
    """Bad invocation (malformed descriptor or JSON); exits 2 like argparse."""


_TYPEA = re.compile(r"^typeA:(.*)$")
_INTERVAL = re.compile(r"^interval:([0-9]+),([0-9]+)$")
_CATALOG_ENTRY = re.compile(r"^(k2|kronecker([0-9]+))-([a-e])$")
_CATALOG_NAME = re.compile(r"^(k2|kronecker:([0-9]+))$")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
        ) from exc


def _load_quiver(desc):
    m = _TYPEA.match(desc)
    if m:
        return OrientationWord(m.group(1).strip("\"'")).to_quiver()
    return Quiver.from_dict(_read_json(desc))


def _load_object(desc, quiver):
    m = _INTERVAL.match(desc)
    if m:
        if quiver is None:
            raise UsageError("interval:i,j needs --quiver")
        word = orientation_of(quiver)
        return interval_rep(word, (int(m.group(1)), int(m.group(2))), quiver)
    data = _read_json(desc)
    if not isinstance(data, dict):
        raise InputError(f"{desc}: a representation must be a JSON object")
    if isinstance(data.get("quiver"), str):
        data = dict(data)
        data["quiver"] = _read_json(data["quiver"])
    if "quiver" not in data and quiver is not None:
        return Representation.from_dict(data, quiver=quiver)
    rep = Representation.from_dict(data)
    if quiver is not None and rep.quiver.key() != quiver.key():
        raise WrongQuiverError(
            "the representation is over a different quiver than --quiver"
        )
    return rep


def _catalog(name):
    m = _CATALOG_NAME.match(name)
    if not m:
        raise UsageError(f"catalog name must be k2 or kronecker:w, got {name!r}")
    if m.group(1) == "k2":
        return wba.catalog_k2()
    return wba.catalog_kronecker(int(m.group(2)))


def _load_spec(desc, quiver=None):
    """A CoproductSpec from 'canonical', a catalog entry name (k2-a,
    kronecker2-e, ...), or a JSON file."""
    if desc == "canonical":
        if quiver is None:
            raise UsageError("structure 'canonical' needs --quiver")
        return wba.canonical_wba(quiver)
    m = _CATALOG_ENTRY.match(desc)
    if m:
        family = (
            wba.catalog_k2() if m.group(1) == "k2"
            else wba.catalog_kronecker(int(m.group(2)))
        )
        return family["abcde".index(m.group(3))]
    return wba.CoproductSpec.from_dict(_read_json(desc))


def _load_structure(desc, quiver):
    if desc in (None, "vertexwise"):
        return engine.vertexwise()
    inner = desc[4:] if desc.startswith("wba:") else desc
    spec = _load_spec(inner, quiver)
    if quiver is not None and spec.quiver.key() != quiver.key():
        raise WrongQuiverError(
            "the coproduct structure lives on a different quiver than --quiver"
        )
    return engine.from_weak_bialgebra(spec)


def _normalize(obj):
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else str(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(x) for x in obj]
    return obj


def _config(args):
    out = {}
    for k, v in vars(args).items():
        if k in ("func", "out") or v is None:
            continue
        out[k] = v if isinstance(v, (str, int, float, bool, list)) else str(v)
    return out


def _emit(data, args):
    text = json.dumps(_normalize(data), sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_hom(args):
    q = _load_quiver(args.quiver) if args.quiver else None
    left = _load_object(args.left, q)
    right = _load_object(args.right, q or left.quiver)
    return {"dim": hom_dim(left, right), "config": _config(args)}, 0


def _cmd_ext(args):
    q = _load_quiver(args.quiver) if args.quiver else None
    left = _load_object(args.left, q)
    right = _load_object(args.right, q or left.quiver)
    return {"dim": dim_ext1(left, right), "config": _config(args)}, 0


def _cmd_tensor(args):
    q = _load_quiver(args.quiver) if args.quiver else None
    left = _load_object(args.left, q)
    right = _load_object(args.right, q or left.quiver)
    structure = _load_structure(args.structure, q or left.quiver)
    t = structure.tensor(left, right)
    return {
        "representation": t.to_dict(),
        "structure": structure.name,
        "config": _config(args),
    }, 0


def _band_args(args, quiver):
    if args.band_path1 or args.band_path2:
        if not (args.band_path1 and args.band_path2):
            raise UsageError("--band-path1 and --band-path2 go together")
        return band_family(
            quiver, args.band_path1.split(","), args.band_path2.split(",")
        )
    if args.band_family:
        return band_family(quiver)
    return None


def _cmd_fpd(args):
    q = _load_quiver(args.quiver)
    m = _load_object(args.object, q)
    structure = _load_structure(args.structure, q)
    candidates = None
    if args.candidates:
        data = _read_json(args.candidates)
        if not isinstance(data, list):
            raise InputError(f"{args.candidates}: candidates must be a JSON list")
        candidates = [_parse_candidate(entry, q) for entry in data]
    if args.mode == "exact":
        report = engine.fpd_exact(
            m,
            shift=args.shift,
            structure=structure,
            indecomposables=candidates,
            cap=args.cap,
            tol=args.tol,
        )
    else:
        family = _band_args(args, q)
        report = engine.fpd_lower_bound(
            m,
            shift=args.shift,
            structure=structure,
            family=family,
            budget=args.budget,
            tol=args.tol,
        )
    data = report.describe()
    data["config"] = _config(args)
    return data, 0


def _parse_candidate(entry, quiver):
    if isinstance(entry, str):
        return _load_object(entry, quiver)
    if not isinstance(entry, dict):
        raise InputError("a candidate must be a representation object or a string")
    if "quiver" not in entry:
        return Representation.from_dict(entry, quiver=quiver)
    return Representation.from_dict(entry)


def _cmd_fpv(args):
    q = _load_quiver(args.quiver)
    m = _load_object(args.object, q)
    structure = _load_structure(args.structure, q)
    data = {"config": _config(args), "structure": structure.name}
    if structure.is_vertexwise:
        data["closed_form"] = engine.fpv_closed_form(m, structure)
    empirical = engine.fpv_empirical(m, structure, n_max=args.n_max)
    data["empirical"] = empirical
    data["value"] = data.get("closed_form", empirical["value"])
    return data, 0


def _cmd_bricks(args):
    q = _load_quiver(args.quiver)
    word = orientation_of(q)
    try:
        shifts = [int(s) for s in args.shifts.split(",")] if args.shifts else [0]
    except ValueError:
        raise UsageError(
            f"--shifts must be comma-joined integers, got {args.shifts!r}"
        ) from None
    intervals = all_indecomposables(word, q)
    objs = [
        DerivedObject(x.rep, shift, label=x.label)
        for shift in shifts
        for x in intervals
    ]
    entries = []
    for clique in maximal_brick_sets(objs, cap=args.cap):
        entry = brick_set([objs[k] for k in clique]).describe()
        entry["size"] = len(clique)
        entries.append(entry)
    return {
        "candidates": len(objs),
        "count": len(entries),
        "sets": entries,
        "config": _config(args),
    }, 0


def _cmd_spectral(args):
    rows = _read_json(args.matrix)
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise InputError("matrix JSON must be an array of arrays")
    radius = spectral_radius(rows, tol=args.tol)
    rounded = as_integer(radius)
    return {
        "radius": radius,
        "value": rounded if rounded is not None else radius,
        "integral": rounded is not None,
        "size": len(rows),
        "config": _config(args),
    }, 0


def _spec_from_args(args):
    q = _load_quiver(args.quiver) if getattr(args, "quiver", None) else None
    if getattr(args, "spec", None):
        spec = _load_spec(args.spec, q)
    elif getattr(args, "structure", None):
        spec = _load_spec(args.structure, q)
    else:
        raise UsageError("give --spec FILE or --structure NAME")
    if q is not None and spec.quiver.key() != q.key():
        raise WrongQuiverError("structure and --quiver disagree")
    return spec


def _cmd_wba_check(args):
    if args.catalog:
        reports = [
            dict(wba.check_axioms(s).describe()) for s in _catalog(args.catalog)
        ]
        return {"reports": reports, "config": _config(args)}, 0
    spec = _spec_from_args(args)
    data = wba.check_axioms(spec).describe()
    data["config"] = _config(args)
    return data, 0


def _cmd_wba_catalog(args):
    structures = []
    for spec in _catalog(args.name):
        entry = spec.to_dict()
        entry["axioms"] = wba.check_axioms(spec).describe()
        structures.append(entry)
    return {"structures": structures, "config": _config(args)}, 0


def _cmd_wba_tensor(args):
    spec = _spec_from_args(args)
    q = spec.quiver
    left = _load_object(args.left, q)
    right = _load_object(args.right, q)
    t = wba.tensor_wba(spec, left, right)
    return {
        "representation": t.to_dict(),
        "structure": spec.name,
        "config": _config(args),
    }, 0


def _cmd_wba_discrete(args):
    spec = _spec_from_args(args)
    data = wba.is_discrete(spec)
    data["config"] = _config(args)
    return data, 0


# ---------------------------------------------------------------------------
# verify suites


def _run_cases(cases):
    """Evaluate (key, thunk) pairs and return (key, ok, detail) sorted by
    key."""
    results = []
    for key, thunk in cases:
        try:
            ok, detail = thunk()
        except FpqError as exc:
            ok, detail = False, {"error": exc.payload()}
        results.append((key, bool(ok), detail))
    return sorted(results, key=lambda r: r[0])


def _suite_closed_form(args):
    cases = []
    for n in range(2, args.n + 1):
        for w in all_orientations(n):
            q = w.to_quiver()
            for v in all_intervals(n):
                for shift in range(-2, 4):
                    key = f"n={n} w={w.dirs} v={v[0]},{v[1]} shift={shift}"

                    def thunk(w=w, q=q, v=v, shift=shift):
                        m = interval_rep(w, v, q)
                        got = engine.fpd_exact(m, shift=shift).value
                        want = closed_form_fpd(w, v, shift)
                        return got == want, {"computed": got, "closed_form": want}

                    cases.append((key, thunk))
    return cases


def _suite_euler(args):
    cases = []
    quivers = [
        random_acyclic_quiver(6, args.seed + k) for k in range(max(args.quivers, 1))
    ]
    for k in range(args.pairs):
        key = f"pair={k:04d}"

        def thunk(k=k):
            q = quivers[k % len(quivers)]
            m = random_representation(q, args.max_dim, seed=args.seed + 1000 + 2 * k)
            n = random_representation(q, args.max_dim, seed=args.seed + 1001 + 2 * k)
            h = hom_dim(m, n)
            e = dim_ext1(m, n)
            form = euler_form(q, list(m.dims), list(n.dims))
            return h - e == form, {"hom": h, "ext": e, "euler_form": form}

        cases.append((key, thunk))
    return cases


def _opposite_fpd(m):
    """Dimension of M (x) - viewed as a functor on the opposite category:
    sup over maximal brick sets of the spectral radius of the reversed
    adjacency [dim Hom(M (x) X_j, X_i)]_ij.  Reversing every hom is the
    same as dualizing, so this must agree with the plain dimension of
    M* (x) - over the opposite quiver."""
    objs = all_indecomposables(orientation_of(m.quiver), m.quiver)
    tensored = [tensor_vertexwise(m, x.rep) for x in objs]
    full = [[hom_dim(t, x.rep) for t in tensored] for x in objs]
    best = engine.best_brick_set(objs, full)[0]
    exact = as_integer(best)
    return exact if exact is not None else best


def _suite_duality(args):
    cases = []
    for k in range(args.triples):
        key = f"triple={k:04d}"

        def thunk(k=k):
            q = random_acyclic_quiver(6, args.seed + 500 + k)
            m = random_representation(q, args.max_dim, seed=args.seed + 3 * k)
            n = random_representation(q, args.max_dim, seed=args.seed + 3 * k + 1)
            x = random_representation(q, args.max_dim, seed=args.seed + 3 * k + 2)
            lhs = hom_dim(tensor_vertexwise(m, n), x)
            rhs = hom_dim(dual(x), tensor_vertexwise(dual(m), dual(n)))
            return lhs == rhs, {"hom": lhs, "dual_hom": rhs}

        cases.append((key, thunk))
    for n in range(2, args.n + 1):
        for w in all_orientations(n):
            q = w.to_quiver()
            for v in all_intervals(n):
                key = f"interval n={n} w={w.dirs} v={v[0]},{v[1]}"

                def thunk(w=w, q=q, v=v):
                    m = interval_rep(w, v, q)
                    a = _opposite_fpd(m)
                    b = engine.fpd_exact(dual(m)).value
                    return a == b, {"opposite_fpd": a, "dual_fpd": b}

                cases.append((key, thunk))
    return cases


def _suite_canonical_tensor(args):
    cases = []
    for n in range(2, args.n + 1):
        for w in all_orientations(n):
            q = w.to_quiver()
            spec = wba.canonical_wba(q)
            for k in range(args.pairs):
                key = f"n={n} w={w.dirs} pair={k:03d}"

                def thunk(q=q, spec=spec, k=k):
                    m = random_representation(q, args.max_dim, seed=args.seed + 2 * k)
                    x = random_representation(
                        q, args.max_dim, seed=args.seed + 2 * k + 1
                    )
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


def _suite_wba_axioms(args):
    specs = list(wba.catalog_k2())
    for w in range(1, args.w_max + 1):
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
    passing = [s for s in specs if wba.check_axioms(s).ok]
    for k in range(args.corruptions):
        spec = passing[k % len(passing)]
        key = f"corruption={k:03d} {spec.name}"

        def thunk(spec=spec, k=k):
            bad = wba.perturb_spec(spec, args.seed + k)
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


def _suite_kronecker_divergence(args):
    q = wba.kronecker_quiver(2)
    m = simple(q, 1)
    report = engine.fpd_lower_bound(m, family=band_family(q), budget=args.size)
    sequence = report.extra["family_sequence"]
    cases = []
    for entry in sequence:
        key = f"size={entry['size']:02d}"
        ok = abs(entry["radius"] - entry["size"]) <= 1e-9
        cases.append((key, lambda ok=ok, e=entry: (ok, {"radius": e["radius"]})))
    adj = report.extra.get("adjacency") or []
    all_ones = bool(adj) and all(x == 1 for row in adj for x in row)
    cases.append(
        ("adjacency all-ones", lambda ok=all_ones: (ok, {"size": len(adj)}))
    )
    cases.append(
        (
            "divergent flag",
            lambda ok=report.divergent: (ok, {"value": report.value}),
        )
    )
    return cases


def _suite_gamma(args):
    cases = []
    for n in range(1, args.n_max + 1):
        key = f"n={n:02d}"

        def thunk(n=n):
            rho = spectral_radius(gamma_matrix(n))
            want = gamma_radius_closed(n)
            ok = abs(rho - want) <= args.tol and rho >= n ** 0.5 - 1e-12
            return ok, {"radius": rho, "closed_form": want}

        cases.append((key, thunk))
    return cases


def _suite_fpv(args):
    combos = []
    for n in range(2, args.n + 1):
        for w in all_orientations(n):
            combos.append(w)
    cases = []
    for k in range(args.count):
        w = combos[k % len(combos)]
        key = f"rep={k:03d} w={w.dirs}"

        def thunk(w=w, k=k):
            q = w.to_quiver()
            m = random_representation(q, args.max_dim, seed=args.seed + k)
            closed = engine.fpv_closed_form(m)
            emp = engine.fpv_empirical(m, n_max=args.n_max)
            return closed == emp["value"], {
                "closed_form": closed,
                "empirical": emp["value"],
            }

        cases.append((key, thunk))
    return cases


_SUITES = {
    "closed-form": _suite_closed_form,
    "euler": _suite_euler,
    "duality": _suite_duality,
    "canonical-tensor": _suite_canonical_tensor,
    "wba-axioms": _suite_wba_axioms,
    "kronecker-divergence": _suite_kronecker_divergence,
    "gamma": _suite_gamma,
    "fpv": _suite_fpv,
}


def _cmd_verify(args):
    results = _run_cases(_SUITES[args.suite](args))
    failures = [r for r in results if not r[1]]
    data = {
        "suite": args.suite,
        "cases": [
            {"key": key, "ok": ok, "detail": detail} for key, ok, detail in results
        ],
        "passes": len(results) - len(failures),
        "failures": len(failures),
        "config": _config(args),
    }
    return data, 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low):
    """An argparse type: an integer no smaller than low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _tolerance(text):
    """An argparse type: a finite float no smaller than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _add_quiver_opt(p, required=False):
    p.add_argument(
        "--quiver",
        required=required,
        help="quiver JSON file, or typeA:<word> with a word over '><'",
    )


def _add_structure_opt(p):
    p.add_argument(
        "--structure",
        default="vertexwise",
        help="vertexwise (default), canonical, a catalog entry like"
        " kronecker2-a, or wba:<entry-or-spec.json>",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpq",
        description="Frobenius-Perron dimensions of quiver representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="dim Hom between two representations")
    _add_quiver_opt(p)
    p.add_argument("--left", required=True, help="rep JSON file or interval:i,j")
    p.add_argument("--right", required=True, help="rep JSON file or interval:i,j")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("ext", help="dim Ext^1 between two representations")
    _add_quiver_opt(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ext)

    p = sub.add_parser("tensor", help="tensor product of two representations")
    _add_quiver_opt(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_structure_opt(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("fpd", help="Frobenius-Perron dimension of M (x) -")
    _add_quiver_opt(p, required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--shift", type=int, default=0)
    _add_structure_opt(p)
    p.add_argument("--mode", choices=("exact", "lower"), default="exact")
    p.add_argument("--candidates", help="JSON list of candidate representations")
    p.add_argument("--cap", type=int, default=10 ** 6)
    p.add_argument("--budget", type=int, default=12)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--band-family", action="store_true",
                   help="lower mode: grow band modules on the two-arrow quiver")
    p.add_argument("--band-path1", help="comma-joined arrow ids of the first path")
    p.add_argument("--band-path2", help="comma-joined arrow ids of the second path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fpd)

    p = sub.add_parser("fpv", help="Frobenius-Perron curvature of M (x) -")
    _add_quiver_opt(p, required=True)
    p.add_argument("--object", required=True)
    _add_structure_opt(p)
    p.add_argument("--n-max", type=_int_at_least(1), default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fpv)

    p = sub.add_parser("bricks", help="brick-set reports")
    bsub = p.add_subparsers(dest="bricks_command", required=True)
    pe = bsub.add_parser("enumerate", help="maximal brick sets of interval modules")
    _add_quiver_opt(pe, required=True)
    pe.add_argument("--shifts", default="0", help="comma-joined shifts, e.g. 0,1")
    pe.add_argument("--cap", type=int, default=10 ** 6)
    pe.add_argument("--out")
    pe.set_defaults(func=_cmd_bricks)

    p = sub.add_parser("spectral", help="spectral radius of a nonnegative matrix")
    p.add_argument("--matrix", required=True, help="JSON array of arrays")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("wba", help="weak bialgebra structures on path algebras")
    wsub = p.add_subparsers(dest="wba_command", required=True)

    pc = wsub.add_parser("check", help="run the axiom checker")
    pc.add_argument("--spec", help="coproduct spec JSON file")
    pc.add_argument("--structure", help="catalog entry name or 'canonical'")
    pc.add_argument("--catalog", help="check a whole catalog: k2 or kronecker:w")
    _add_quiver_opt(pc)
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_wba_check)

    pg = wsub.add_parser("catalog", help="emit a catalog with axiom reports")
    pg.add_argument("--name", required=True, help="k2 or kronecker:w")
    pg.add_argument("--out")
    pg.set_defaults(func=_cmd_wba_catalog)

    pt = wsub.add_parser("tensor", help="tensor two representations through a coproduct")
    pt.add_argument("--spec")
    pt.add_argument("--structure")
    _add_quiver_opt(pt)
    pt.add_argument("--left", required=True)
    pt.add_argument("--right", required=True)
    pt.add_argument("--out")
    pt.set_defaults(func=_cmd_wba_tensor)

    pd = wsub.add_parser("discrete", help="test the simple-pair tensor rule")
    pd.add_argument("--spec")
    pd.add_argument("--structure")
    _add_quiver_opt(pd)
    pd.add_argument("--out")
    pd.set_defaults(func=_cmd_wba_discrete)

    p = sub.add_parser("verify", help="run a property suite; nonzero exit on failure")
    vsub = p.add_subparsers(dest="suite", required=True)

    pv = vsub.add_parser("closed-form", help="interval dimensions vs the closed form")
    pv.add_argument("--n", type=int, default=4)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pv = vsub.add_parser("euler", help="hom - ext vs the Euler form")
    pv.add_argument("--pairs", type=int, default=200)
    pv.add_argument("--quivers", type=int, default=10)
    pv.add_argument("--max-dim", type=_int_at_least(0), default=4)
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pv = vsub.add_parser("duality", help="hom duality and dual-interval dimensions")
    pv.add_argument("--triples", type=int, default=100)
    pv.add_argument("--n", type=int, default=5)
    pv.add_argument("--max-dim", type=_int_at_least(0), default=3)
    pv.add_argument("--seed", type=int, default=11)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pv = vsub.add_parser(
        "canonical-tensor", help="canonical coproduct vs componentwise tensor"
    )
    pv.add_argument("--n", type=int, default=4)
    pv.add_argument("--pairs", type=int, default=50)
    pv.add_argument("--max-dim", type=_int_at_least(0), default=3)
    pv.add_argument("--seed", type=int, default=3)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pv = vsub.add_parser("wba-axioms", help="catalog axiom reports and corruptions")
    pv.add_argument("--w-max", type=int, default=3)
    pv.add_argument("--corruptions", type=int, default=100)
    pv.add_argument("--seed", type=int, default=23)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pv = vsub.add_parser(
        "kronecker-divergence", help="band-module lower bounds grow without bound"
    )
    pv.add_argument("--size", type=int, default=12)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pv = vsub.add_parser("gamma", help="hub-matrix radii vs the closed form")
    pv.add_argument("--n-max", type=int, default=50)
    pv.add_argument("--tol", type=_tolerance, default=1e-9)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pv = vsub.add_parser("fpv", help="empirical curvature vs the closed form")
    pv.add_argument("--n", type=_int_at_least(2), default=4)
    pv.add_argument("--count", type=int, default=50)
    pv.add_argument("--max-dim", type=_int_at_least(0), default=3)
    pv.add_argument("--n-max", type=_int_at_least(1), default=10)
    pv.add_argument("--seed", type=int, default=17)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        data, code = args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"fpq: {exc}\n")
        return 2
    except FpqError as exc:
        _emit({"error": exc.payload()}, args)
        return 1
    _emit(data, args)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
