"""The pure core of tests/linecov.py, on a synthetic module: executable
statements, less the lines run, less the allowlist."""

import linecov

SOURCE = '''"""A module docstring."""


def f(x):
    """A docstring."""
    global seen
    if x:
        return 1
    return 2


@staticmethod
def g():
    return (
        3)
'''


def test_executable_statements_are_headers_with_bytecode():
    """Docstrings and the global declaration compile to no instruction of
    their own; a decorated def runs from its decorator, a statement over
    several lines from any of them."""
    found = linecov.executable(SOURCE)
    assert sorted(found) == [4, 7, 8, 9, 13, 14]
    assert found[13] == ({12, 13}, "@staticmethod def g():")
    assert found[14] == ({14, 15}, "return ( 3)")
    assert found[7] == ({7}, "if x:")


def test_audit_reports_unrun_unlisted_lines_and_stale_entries():
    ran = {"m.py": {4, 7, 8, 12, 15}}  # f(1) ran; g's def and return ran
    allowlist = {("m.py", "return 1"): "tests/test_m.py::test_one"}
    unlisted, stale, unrun = linecov.audit({"m.py": SOURCE}, ran, allowlist)
    assert unrun == [("m.py", 9, "return 2")]
    assert unlisted == [("m.py", 9, "return 2")]
    assert stale == [("m.py", "return 1")]  # it ran in process


def test_an_allowlisted_unrun_line_is_neither_unlisted_nor_stale():
    ran = {"m.py": {4, 7, 8, 12, 15}}
    allowlist = {("m.py", "return 2"): "tests/test_m.py::test_two",
                 ("gone.py", "return 0"): "tests/test_m.py::test_gone"}
    unlisted, stale, _ = linecov.audit({"m.py": SOURCE}, ran, allowlist)
    assert unlisted == []
    assert stale == [("gone.py", "return 0")]  # its text is gone
