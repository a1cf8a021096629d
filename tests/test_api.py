"""Every public name of the package is used by the package itself."""

import ast
import inspect
from pathlib import Path

import fpq


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


def test_the_trusted_constructor_has_one_caller():
    """Representation._trusted skips every check, so only tensor_wba,
    whose output has the right shapes and types by construction, may
    reach it; every other builder goes through Representation(...)."""
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
    assert sites == [("wba.py", "tensor_wba", True)]
