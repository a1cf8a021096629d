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
byte-identical output.  ``verify`` runs a named property suite from
``fpq.verify`` and exits nonzero if any case fails; cases are reported in
canonical key order.
"""

import argparse
import json
import math
import re
import sys

from . import engine, verify
from .bricks import (
    BrickSet,
    DerivedObject,
    band_family,
    index_of,
    maximal_brick_sets,
)
from .errors import FpqError, InputError, WrongQuiverError
from .quiver import Quiver, Representation, dim_ext1, hom_dim
from .spectral import integer_radius, spectral_radius
from .typea import OrientationWord, all_indecomposables, interval_rep, orientation_of


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
    except ValueError as exc:  # bytes that are not UTF-8, an int past the digit limit
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _int(digits):
    """A descriptor's digit string as an int; a usage error past Python's
    limit on the digits an int conversion reads."""
    try:
        return int(digits)
    except ValueError:
        raise UsageError(f"a number of {len(digits)} digits is too long to read") from None


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
        return interval_rep(word, (_int(m.group(1)), _int(m.group(2))), quiver)
    return _object(_read_json(desc), quiver, desc)


def _object(data, quiver, where):
    """A representation from JSON data read at where (a file, or a list of
    candidates holding it), over its embedded quiver (an object or a file
    name), else over quiver."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: a representation must be a JSON object")
    if isinstance(data.get("quiver"), str):
        data = dict(data)
        data["quiver"] = _read_json(data["quiver"])
    if "quiver" not in data and quiver is not None:
        return Representation.from_dict(data, quiver=quiver)
    rep = Representation.from_dict(data)
    if quiver is not None and rep.quiver != quiver:
        raise WrongQuiverError(
            "the representation is over a different quiver than --quiver"
        )
    return rep


def _catalog(name):
    from . import wba

    m = _CATALOG_NAME.match(name)
    if not m:
        raise UsageError(f"catalog name must be k2 or kronecker:w, got {name!r}")
    if m.group(1) == "k2":
        return wba.catalog_k2()
    return wba.catalog_kronecker(_int(m.group(2)))


def _load_spec(desc, quiver):
    """A CoproductSpec from 'canonical', a catalog entry name (k2-a,
    kronecker2-e, ...), or a JSON file, over quiver unless it is None."""
    from . import wba

    if desc == "canonical":
        if quiver is None:
            raise UsageError("structure 'canonical' needs --quiver")
        return wba.canonical_wba(quiver)
    m = _CATALOG_ENTRY.match(desc)
    if m:
        w = m.group(2)  # None for k2
        entries = _catalog("k2" if w is None else f"kronecker:{w}")
        name = desc if w is None else f"kronecker{int(w)}-{m.group(3)}"  # 01 is 1
        spec = next(spec for spec in entries if spec.name == name)
    else:
        spec = wba.CoproductSpec.from_dict(_read_json(desc))
    if quiver is not None and spec.quiver != quiver:
        raise WrongQuiverError(
            "the coproduct structure lives on a different quiver than --quiver"
        )
    return spec


def _load_structure(desc, quiver):
    if desc in (None, "vertexwise"):
        return engine.vertexwise()
    inner = desc[4:] if desc.startswith("wba:") else desc
    return engine.from_weak_bialgebra(_load_spec(inner, quiver))


_LEAVES = (int, str, bool, type(None))


def _normalize(obj):
    if type(obj) in _LEAVES:
        return obj
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
    out = args.out
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _pair(args, quiver):
    """The --left and --right objects, over quiver, else the right one over
    the left one's quiver."""
    left = _load_object(args.left, quiver)
    return left, _load_object(args.right, quiver or left.quiver)


def _cmd_dim(args):
    q = _load_quiver(args.quiver) if args.quiver else None
    dim = hom_dim if args.command == "hom" else dim_ext1
    return {"dim": dim(*_pair(args, q))}, 0


def _cmd_tensor(args):
    q = _load_quiver(args.quiver) if args.quiver else None
    left, right = _pair(args, q)
    structure = _load_structure(args.structure, q or left.quiver)
    t = structure.tensor(left, right)
    return {"representation": t.to_dict(), "structure": structure.name}, 0


def _band_args(args, quiver):
    if args.band_path1 or args.band_path2:
        if not (args.band_path1 and args.band_path2):
            raise UsageError("--band-path1 and --band-path2 go together")
        if args.band_family:
            raise UsageError("give --band-family or the band paths, not both")
        return band_family(
            quiver, args.band_path1.split(","), args.band_path2.split(",")
        )
    if args.band_family:
        return band_family(quiver)
    return None


def _cmd_fpd(args):
    other = ("band_family", "band_path1", "band_path2", "budget") if args.mode == "exact" \
        else ("candidates", "cap")
    given = {k: v for k, v in vars(args).items() if type(v) is not _Default}
    unread = [f"--{k.replace('_', '-')}" for k in other
              if given.get(k) not in (None, False)]
    if unread:
        raise UsageError(f"--mode {args.mode} does not read {', '.join(unread)}")
    q = _load_quiver(args.quiver)
    m = _load_object(args.object, q)
    structure = _load_structure(args.structure, q)
    candidates = None
    if args.candidates:
        data = _read_json(args.candidates)
        if not isinstance(data, list):
            raise InputError(f"{args.candidates}: candidates must be a JSON list")
        candidates = [_load_object(entry, q) if isinstance(entry, str)
                      else _object(entry, q, args.candidates) for entry in data]
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
    return report.describe(), 0


def _cmd_fpv(args):
    q = _load_quiver(args.quiver)
    m = _load_object(args.object, q)
    structure = _load_structure(args.structure, q)
    data = {"structure": structure.name}
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
        shifts = [int(s) for s in args.shifts.split(",")]
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
    hom = index_of(objs).hom
    entries = []
    for clique in maximal_brick_sets(objs, cap=args.cap):
        certificate = [[hom[i][j] for j in clique] for i in clique]
        entry = BrickSet([objs[k] for k in clique], certificate).describe()
        entry["size"] = len(clique)
        entries.append(entry)
    return {"candidates": len(objs), "count": len(entries), "sets": entries}, 0


def _cmd_spectral(args):
    rows = _read_json(args.matrix)
    radius = spectral_radius(rows, tol=args.tol)
    rounded = integer_radius(rows, radius)
    return {
        "radius": radius,
        "value": rounded if rounded is not None else radius,
        "integral": rounded is not None,
        "size": len(rows),
    }, 0


def _spec_from_args(args):
    if args.spec is not None and args.structure is not None:
        raise UsageError("give --spec FILE or --structure NAME, not both")
    q = _load_quiver(args.quiver) if args.quiver else None
    if not (args.spec or args.structure):
        raise UsageError("give --spec FILE or --structure NAME")
    return _load_spec(args.spec or args.structure, q)


def _cmd_wba_check(args):
    from . import wba

    if args.catalog is not None:
        unread = [f"--{k}" for k in ("spec", "structure", "quiver")
                  if getattr(args, k) is not None]
        if unread:
            raise UsageError(f"--catalog does not read {', '.join(unread)}")
        return {"reports": [wba.check_axioms(s).describe() for s in _catalog(args.catalog)]}, 0
    return wba.check_axioms(_spec_from_args(args)).describe(), 0


def _cmd_wba_catalog(args):
    from . import wba

    structures = []
    for spec in _catalog(args.name):
        entry = spec.to_dict()
        entry["axioms"] = wba.check_axioms(spec).describe()
        structures.append(entry)
    return {"structures": structures}, 0


def _cmd_wba_tensor(args):
    from . import wba

    spec = _spec_from_args(args)
    t = wba.tensor_wba(spec, *_pair(args, spec.quiver))
    return {"representation": t.to_dict(), "structure": spec.name}, 0


def _cmd_wba_discrete(args):
    from . import wba

    return wba.is_discrete(_spec_from_args(args)), 0


def _cmd_verify(args):
    names = [flag[2:].replace("-", "_") for flag, _, _ in verify.SUITES[args.suite][2]]
    sizes = {k: getattr(args, k) for k in names}
    results = verify.run(args.suite, **sizes)
    if not results:
        given = ", ".join(
            f"--{k.replace('_', '-')} {v}"
            for k, v in sorted(sizes.items())
            if type(v) is int and k != "seed"
        )
        raise UsageError(f"verify {args.suite}: no case to check at {given}")
    failures = [r for r in results if not r[1]]
    data = {
        "suite": args.suite,
        "cases": [
            {"key": key, "ok": ok, "detail": detail} for key, ok, detail in results
        ],
        "passes": len(results) - len(failures),
        "failures": len(failures),
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


class _Default(int):
    """An option's default, which a mode that does not read the option
    accepts; the same value given on the command line is a plain int."""


def _size_type(minimum, default):
    """The argparse type of a verify size (flag, minimum, default)."""
    if minimum is None:
        return int
    return _tolerance if isinstance(default, float) else _int_at_least(minimum)


_QUIVER = ("--quiver", dict(
    help="quiver JSON file, or typeA:<word> with a word over '><'"))
_NEEDS_QUIVER = ("--quiver", dict(_QUIVER[1], required=True))
_PAIR = [("--left", dict(required=True)), ("--right", dict(required=True))]
_STRUCTURE = ("--structure", dict(
    default="vertexwise", help="vertexwise (default), canonical, a catalog entry"
    " like kronecker2-a, or wba:<entry-or-spec.json>"))
_CAP = ("--cap", dict(type=_int_at_least(1), default=_Default(10 ** 6)))
_TOL = ("--tol", dict(type=_tolerance, default=1e-10))
_SPEC = [("--spec", {}), ("--structure", {}), _QUIVER]

# A leaf is (help, options, handler), each option a (flag, add_argument
# keywords) pair; every leaf also takes --out, last.  A group is (help,
# dest, subtree); _config records each dest in the report.
_COMMANDS = {
    "hom": ("dim Hom between two representations", [
        _QUIVER,
        ("--left", dict(required=True, help="rep JSON file or interval:i,j")),
        ("--right", dict(required=True, help="rep JSON file or interval:i,j")),
    ], _cmd_dim),
    "ext": ("dim Ext^1 between two representations", [_QUIVER, *_PAIR], _cmd_dim),
    "tensor": ("tensor product of two representations",
               [_QUIVER, *_PAIR, _STRUCTURE], _cmd_tensor),
    "fpd": ("Frobenius-Perron dimension of M (x) -", [
        _NEEDS_QUIVER,
        ("--object", dict(required=True)),
        ("--shift", dict(type=int, default=0)),
        _STRUCTURE,
        ("--mode", dict(choices=("exact", "lower"), default="exact")),
        ("--candidates", dict(help="JSON list of candidate representations")),
        _CAP,
        ("--budget", dict(type=_int_at_least(1), default=_Default(12))),
        _TOL,
        ("--band-family", dict(
            action="store_true",
            help="lower mode: grow band modules on the two-arrow quiver")),
        ("--band-path1", dict(help="comma-joined arrow ids of the first path")),
        ("--band-path2", dict(help="comma-joined arrow ids of the second path")),
    ], _cmd_fpd),
    "fpv": ("Frobenius-Perron curvature of M (x) -", [
        _NEEDS_QUIVER,
        ("--object", dict(required=True)),
        _STRUCTURE,
        ("--n-max", dict(type=_int_at_least(1), default=10)),
    ], _cmd_fpv),
    "bricks": ("brick-set reports", "bricks_command", {
        "enumerate": ("maximal brick sets of interval modules", [
            _NEEDS_QUIVER,
            ("--shifts", dict(default="0", help="comma-joined shifts, e.g. 0,1")),
            _CAP,
        ], _cmd_bricks),
    }),
    "spectral": ("spectral radius of a nonnegative matrix", [
        ("--matrix", dict(required=True, help="JSON array of arrays")),
        _TOL,
    ], _cmd_spectral),
    "wba": ("weak bialgebra structures on path algebras", "wba_command", {
        "check": ("run the axiom checker", [
            ("--spec", dict(help="coproduct spec JSON file")),
            ("--structure", dict(help="catalog entry name or 'canonical'")),
            ("--catalog", dict(help="check a whole catalog: k2 or kronecker:w")),
            _QUIVER,
        ], _cmd_wba_check),
        "catalog": ("emit a catalog with axiom reports", [
            ("--name", dict(required=True, help="k2 or kronecker:w")),
        ], _cmd_wba_catalog),
        "tensor": ("tensor two representations through a coproduct",
                   [*_SPEC, *_PAIR], _cmd_wba_tensor),
        "discrete": ("test the simple-pair tensor rule", _SPEC, _cmd_wba_discrete),
    }),
    "verify": ("run a property suite; nonzero exit on failure", "suite", {
        name: (help_text, [
            (flag, dict(type=_size_type(minimum, default), default=default))
            for flag, minimum, default in sizes
        ], _cmd_verify)
        for name, (_, help_text, sizes) in verify.SUITES.items()
    }),
}


def _add_commands(parent, dest, tree, argv):
    """Add tree's commands to parent under dest.  When argv[0] names one,
    that one alone is built, the only one parse_args then reads (building
    them all costs a command more than parsing does), and the metavar
    keeps every name in the usage line its errors print."""
    named = argv[:1] if argv and argv[0] in tree else None
    sub = parent.add_subparsers(
        dest=dest, required=True, metavar="{" + ",".join(tree) + "}" if named else None
    )
    for name in named or tree:
        help_text, middle, last = tree[name]
        p = sub.add_parser(name, help=help_text)
        if isinstance(last, dict):  # a group: middle is its dest
            _add_commands(p, middle, last, argv[1:] if named else None)
            continue
        for flag, keywords in [*middle, ("--out", {})]:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=last)


def build_parser(argv=None):
    """The fpq parser; given argv, only the subcommands it names are built."""
    parser = argparse.ArgumentParser(
        prog="fpq",
        description="Frobenius-Perron dimensions of quiver representations.",
    )
    _add_commands(parser, "command", _COMMANDS, argv)
    return parser


def run(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        try:
            data, code = args.func(args)
            data["config"] = _config(args)
        except FpqError as exc:
            data, code = {"error": exc.payload()}, 1
        _emit(data, args)
    except UsageError as exc:
        sys.stderr.write(f"fpq: {exc}\n")
        return 2
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
