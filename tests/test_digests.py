"""Committed answer digests: the sha256 of each command's stdout bytes and
its exit code, recomputed in-process through ``fpq.cli.run`` and compared
with ``tests/digests.json``.  Commands run from the repository root, so
file arguments are paths relative to it.

A change that alters an output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_digests.py --write`` and names each
changed command in CHANGES.md.  Never re-seed or shrink a command to keep
its digest stable.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from fpq.cli import run

DIGESTS = Path(__file__).with_name("digests.json")
ROOT = Path(__file__).resolve().parent.parent
# Two representations of the 2-arrow Kronecker quiver whose entries are
# given as "4/2", "-1/2" and "3".
LEFT = "tests/fixtures/kronecker2_left.json"
RIGHT = "tests/fixtures/kronecker2_right.json"

COMMANDS = [
    ["verify", "duality", "--n", "4", "--triples", "50", "--seed", "0"],
    ["verify", "duality", "--n", "4", "--triples", "50", "--seed", "1"],
    ["verify", "closed-form"],
    ["verify", "canonical-tensor"],
    ["fpd", "--quiver", "typeA:><><>", "--object", "interval:2,4", "--shift", "0"],
    ["fpd", "--quiver", "typeA:><><>", "--object", "interval:2,4", "--shift", "1"],
    ["bricks", "enumerate", "--quiver", "typeA:><>", "--shifts=-1,0,1,2"],
    ["verify", "euler"],
    ["verify", "gamma"],
    ["verify", "kronecker-divergence"],
    ["verify", "wba-axioms"],
    ["wba", "check", "--catalog", "kronecker:2"],
    ["wba", "catalog", "--name", "kronecker:2"],
    ["tensor", "--left", LEFT, "--right", RIGHT],
    ["wba", "tensor", "--structure", "kronecker2-a", "--left", LEFT, "--right", RIGHT],
]


def digest(argv):
    """{"exit": code, "stdout_sha256": hex} for one in-process CLI run."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        os.chdir(cwd)
    sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "stdout_sha256": sha}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_answers_match_the_committed_digests(argv):
    committed = json.loads(DIGESTS.read_text())
    assert digest(argv) == committed[" ".join(argv)]


def test_every_committed_digest_has_a_command():
    assert set(json.loads(DIGESTS.read_text())) == {" ".join(a) for a in COMMANDS}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_digests.py --write")
    table = {" ".join(argv): digest(argv) for argv in COMMANDS}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
