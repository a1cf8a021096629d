"""The lines of src/fpq that no in-process tier-1 test runs.

Run from anywhere, with the test extras installed::

    python tests/linecov.py

It runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, records every line run by a frame whose code lives
in src/fpq, and prints each executable line that did not run.  A line is
executable when a statement (a docstring excepted) starts its header
there and the header compiles to bytecode; a statement ran when any line
of its header ran.  The script exits 1 when a line that did not run is
missing from ALLOWLIST, when an ALLOWLIST entry names no line that stayed
unrun (it ran in process, or its text is gone), so the list cannot go
stale, when an entry names a test its file does not define, or when a
test fails.  It uses only the standard library besides pytest itself; it
is not part of tier-1 (tier-1 takes about three times as long under it).
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fpq"

# The statements only child processes reach, which the tracer does not
# follow: (module, the statement's lines stripped and joined by spaces) ->
# the test that reaches it.
_DIGITS = "tests/test_cli.py::test_output_entry_past_the_digit_limit_is_a_dimension_guard"
ALLOWLIST = {
    ("cli.py", "sys.exit(run())"): _DIGITS,  # cli.main, run as python -m fpq.cli
    ("cli.py", "main()"): _DIGITS,  # the __main__ guard
    ("quiver.py", 'raise DimensionGuardError( f"a map entry has more than'
                  ' {sys.get_int_max_str_digits()} digits," f" Python\'s limit on'
                  ' converting an int to a string") from None'): _DIGITS,
    ("exact.py", 'raise ValueError(f"decimal exponent {power} is too large")'):
        "tests/test_cli.py::test_decimal_exponent_past_the_digit_limit_is_bad_input",
    ("wba.py", 'raise DimensionGuardError(f"path algebra would have more than'
               ' {MAX_PATHS} paths")'):
        "tests/test_cli.py::test_kronecker_catalog_above_the_path_budget_is_refused"
        "_before_its_arrows",
}


def _headers(tree):
    """(reported line, first line, last line) of every statement header of
    tree but the docstrings.  A decorated def starts at its first
    decorator; a compound statement's header ends where its first inner
    statement begins."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        end = max(node.lineno, inner[0].lineno - 1) if inner else node.end_lineno
        out.append((node.lineno, start, end))
    return out


def _code_lines(code):
    """Every line some instruction of code, or of a code object nested in
    it, is attributed to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable(source, name="<module>"):
    """{line: (span, text)} of source's executable statements, each keyed
    by the line its statement is reported at (a def's own line, not a
    decorator's), span the header lines whose run counts as the
    statement's and text those lines stripped and joined by spaces."""
    compiled = _code_lines(compile(source, name, "exec"))
    lines = source.splitlines()
    out = {}
    for line, start, end in _headers(ast.parse(source)):
        span = set(range(start, end + 1))
        if span & compiled:
            out[line] = (span, " ".join(s.strip() for s in lines[start - 1:end]))
    return out


def audit(sources, hits, allowlist):
    """(unlisted, stale, unrun) of modules whose sources are
    {module: text}, given hits {module: lines run} and an allowlist keyed
    by (module, statement text as executable gives it).  unrun is every
    (module, line, text) whose statement did not run; unlisted, those of
    them the allowlist does not name; stale, the allowlist keys that name
    no unrun statement."""
    unrun = []
    for module, source in sorted(sources.items()):
        ran = hits.get(module, set())
        unrun += [
            (module, line, text)
            for line, (span, text) in sorted(executable(source, module).items())
            if not span & ran
        ]
    named = {(module, text) for module, _, text in unrun}
    unlisted = [entry for entry in unrun if entry[0::2] not in allowlist]
    stale = sorted(key for key in allowlist if key not in named)
    return unlisted, stale, unrun


def _tracer(root, hits):
    """A settrace function recording into hits {file name: lines run}
    every line of a frame whose code file lies under root."""
    local = {}

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        if name not in local:
            lines = hits.setdefault(name, set())

            def trace_line(frame, event, arg, add=lines.add):
                if event == "line":
                    add(frame.f_lineno)
                return trace_line

            local[name] = trace_line
        return local[name]

    return trace_call


def _missing_tests(allowlist):
    """The allowlist's test names whose file does not define the test."""
    missing = []
    for test in sorted(set(allowlist.values())):
        path, _, function = test.partition("::")
        file = ROOT / path
        if not file.is_file() or f"def {function}(" not in file.read_text(encoding="utf-8"):
            missing.append(test)
    return missing


def main():
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    hits = {}
    trace = _tracer(str(SRC) + os.sep, hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    fpq = sys.modules.get("fpq")
    if fpq is None or Path(fpq.__file__).resolve().parent != SRC:
        print(f"linecov: the tests did not import fpq from {SRC}")
        return 1
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    runs = {Path(name).name: lines for name, lines in hits.items()}
    unlisted, stale, unrun = audit(sources, runs, ALLOWLIST)
    total = sum(len(executable(text, name)) for name, text in sources.items())
    print(f"\nlinecov: {total - len(unrun)} of {total} executable lines of src/fpq run in process")
    for module, line, text in unrun:
        where = ALLOWLIST.get((module, text), "NOT IN THE ALLOWLIST")
        print(f"  {module}:{line}: {text}    [{where}]")
    for module, text in stale:
        print(f"  stale allowlist entry, no unrun line: {module}: {text}")
    missing = _missing_tests(ALLOWLIST)
    for test in missing:
        print(f"  allowlist names a test that does not exist: {test}")
    if status != 0:
        print(f"linecov: the tests failed (pytest exit {int(status)})")
    return int(bool(unlisted or stale or missing or status != 0))


if __name__ == "__main__":
    sys.exit(main())
