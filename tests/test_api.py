"""Every public name of the package is used by the package itself."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import fpq

# fpq.__all__ as it was while fpq/__init__ imported fpq.wba eagerly.
EXPORTS = {
    "Arrow", "AxiomReport", "BadArrowError", "BadPathsError", "BrickSet",
    "CapExceededError", "CoproductSpec", "CyclicQuiverError", "DerivedObject",
    "DimensionGuardError", "DuplicateLabelError", "FpdReport", "FpqError",
    "IncompleteListError", "InputError", "IntervalKind", "NoConvergenceError",
    "NotAQuiverActionError", "NotTypeAError", "OrientationWord", "PathAlgebra",
    "Quiver", "Representation", "ShapeError", "StructureMismatchError",
    "TensorStructure", "WrongQuiverError", "adjacency", "all_indecomposables",
    "all_intervals", "all_orientations", "band_family", "band_kronecker",
    "band_two_paths", "brick_set", "bricks", "canonical_wba", "catalog_k2",
    "catalog_kronecker", "check_axioms", "classify", "closed_form_fpd",
    "compatibility_graph", "dim_ext1", "dual", "engine",
    "errors", "euler_form", "exact", "fpd_exact", "fpd_lower_bound",
    "fpv_closed_form", "fpv_empirical", "from_weak_bialgebra", "gamma_matrix",
    "gamma_radius_closed", "hom_dim", "hom_matrix", "identity_rep",
    "integer_radius", "interval_rep", "is_discrete", "kronecker_quiver",
    "maximal_brick_sets", "opposite", "orientation_of", "perturb_spec",
    "quiver", "random_acyclic_quiver", "random_representation", "simple",
    "spectral", "spectral_radius", "tensor_vertexwise", "tensor_wba", "typea",
    "vertexwise", "wba", "zero_rep",
}


def _modules():
    """(file name, syntax tree) of every module but __init__."""
    for path in sorted(Path(fpq.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _loads(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _loaded_names():
    return set().union(*(_loads(tree) for _, tree in _modules()))


def test_every_export_has_a_caller_in_the_package():
    public = {
        name for name in fpq.__all__
        if not inspect.ismodule(getattr(fpq, name))
    }
    unused = public - _loaded_names()
    assert not unused, sorted(unused)


def test_every_method_has_a_caller_in_the_package():
    """Every method but the dunders is loaded as an attribute somewhere in
    the package, and every module function, public or private, is loaded
    by name or as an attribute: a function only the tests call does not
    belong in the library."""
    attributes = {
        node.attr for _, tree in _modules() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    loaded, unused = _loaded_names(), []
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{name}: {node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and item.name not in attributes
                ]
            elif isinstance(node, ast.FunctionDef):
                if node.name not in loaded:
                    unused.append(f"{name}: {node.name}")
    assert not unused, unused


def test_every_import_is_used_in_its_module():
    unused = []
    for name, tree in _modules():
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_the_trusted_constructor_has_three_callers():
    """Representation._trusted skips every check, so only tensor_wba,
    tensor_vertexwise and dual, whose output has the right shapes and types
    by construction from checked representations, may reach it; every
    other builder goes through Representation(...)."""
    sites = []
    for name, tree in _modules():
        owner = {}  # node -> innermost enclosing function (the walk is breadth-first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        calls = {
            node.func for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        for node in ast.walk(tree):
            if getattr(node, "attr", getattr(node, "id", None)) == "_trusted":
                sites.append((name, owner.get(node), node in calls))
    assert sorted(sites) == [
        ("quiver.py", "dual", True),
        ("quiver.py", "tensor_vertexwise", True),
        ("wba.py", "tensor_wba", True),
    ]


def test_only_the_trusted_builders_skip_the_constructor():
    """cls.__new__ builds an object without its checked __init__; only
    Representation._trusted and quiver.opposite, which reverses the arrows
    of a checked quiver, may call it."""
    sites = []
    for name, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                sites += [
                    (name, func.name) for node in ast.walk(func)
                    if isinstance(node, ast.Attribute) and node.attr == "__new__"
                ]
    assert sorted(sites) == [("quiver.py", "_trusted"), ("quiver.py", "opposite")]


def test_only_the_cap_and_clear_helper_empties_a_table():
    """quiver.remember holds the one cap-and-clear rule of the memos: no
    other code in the package calls .clear()."""
    sites = []
    for name, tree in _modules():
        owner = {}  # node -> innermost enclosing function (the walk is breadth-first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        sites += [
            (name, owner.get(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "clear"
        ]
    assert sites == [("quiver.py", "remember")]


def test_one_function_reads_and_writes_the_hom_memo():
    """HOM_MEMO is named in the package only where quiver.py defines it and
    inside quiver.hom_row, so its key format and every hit and miss live
    in that one function."""
    sites = []
    for name, tree in _modules():
        owner = {}  # node -> innermost enclosing function (the walk is breadth-first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and "HOM_MEMO" in (node.name, node.asname):
                sites.append((name, "import"))
            elif getattr(node, "attr", getattr(node, "id", None)) == "HOM_MEMO":
                sites.append((name, owner.get(node, type(node.ctx).__name__)))
    assert sorted(set(sites)) == [("quiver.py", "Store"), ("quiver.py", "hom_row")]
    assert sites.count(("quiver.py", "Store")) == 1


def test_importing_the_cli_leaves_wba_unloaded():
    """A fresh `import fpq.cli` does not load fpq.wba; the package still
    exports the same names, the weak-bialgebra ones resolved on first use."""
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    code = ("import sys, fpq.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('fpq')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "fpq.cli" in proc.stdout and "fpq.wba" not in proc.stdout
    assert fpq.tensor_wba is fpq.wba.tensor_wba
    assert set(fpq.__all__) == EXPORTS
