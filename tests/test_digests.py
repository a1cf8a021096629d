"""Committed answer digests: the sha256 of each command's stdout bytes and
its exit code, recomputed in-process through ``fpq.cli.run`` and compared
with ``tests/digests.json``.  Commands run from the repository root, so
file arguments are paths relative to it.  Two more entries digest library
outputs: ``FPD_SET`` the 840 of ``fpd_outputs`` and ``WBA_SET`` the
``tensor_wba`` outcomes of ``wba_outputs``.

A change that alters an output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_digests.py --write``, which prints each
entry it adds or changes to stderr, and names each changed command in
CHANGES.md.  Never re-seed or shrink a command to keep
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

from fpq import engine, verify, wba
from fpq.cli import _normalize, run
from fpq.errors import FpqError
from fpq.quiver import random_representation
from fpq.typea import all_intervals, all_orientations, interval_rep

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
    ["wba", "catalog", "--name", "k2"],
    ["tensor", "--left", LEFT, "--right", RIGHT],
    ["wba", "tensor", "--structure", "kronecker2-a", "--left", LEFT, "--right", RIGHT],
    ["verify", "fpv"],
]


FPD_SET = "fpd-840: A2-A5 intervals at shifts 0, 1; opposite A2-A4; canonical A2-A3"


def fpd_outputs():
    """fpd_exact(...).describe() on every A2-A5 interval at shifts 0 and 1,
    verify.opposite_fpd on every A2-A4 interval, and fpd_exact under the
    canonical coproduct on 5 seeded random representations (dims 0..2) per
    A2-A3 orientation: 700 + 110 + 30 outputs."""
    out = []
    for n in range(2, 6):
        for w in all_orientations(n):
            q = w.to_quiver()
            for v in all_intervals(n):
                m = interval_rep(w, v, q)
                out += [engine.fpd_exact(m, shift=s).describe() for s in (0, 1)]
                if n <= 4:
                    out.append(verify.opposite_fpd(m))
    for n in (2, 3):
        for w in all_orientations(n):
            q = w.to_quiver()
            canonical = engine.from_weak_bialgebra(wba.canonical_wba(q))
            for seed in range(5):
                m = random_representation(q, 2, seed)
                out.append(engine.fpd_exact(m, structure=canonical).describe())
    return out


WBA_SET = ("wba-1624: tensor_wba on 29 structures, canonical A2-A4 and"
           " kronecker1-3, and 25 corruptions of each")


def wba_outputs():
    """tensor_wba on 6 seeded pairs (dims 0..3) for each of 29 structures,
    the canonical coproduct on every A2-A4 orientation and the Kronecker
    catalogs w = 1..3, and on 2 pairs for each of perturb_spec(spec, 0..24):
    the dims and the maps with each entry's type name, or the error class
    and message.  1624 outcomes."""
    specs = [wba.canonical_wba(w.to_quiver()) for n in (2, 3, 4) for w in all_orientations(n)]
    specs += [spec for w in (1, 2, 3) for spec in wba.catalog_kronecker(w)]
    cases = [(spec, 6) for spec in specs]
    cases += [(wba.perturb_spec(spec, seed), 2) for spec in specs for seed in range(25)]
    out = []
    for k, (spec, pairs) in enumerate(cases):
        q = spec.quiver
        for j in range(pairs):
            m = random_representation(q, 3, 1000 * k + 2 * j)
            x = random_representation(q, 3, 1000 * k + 2 * j + 1)
            try:
                t = wba.tensor_wba(spec, m, x)
            except FpqError as exc:
                out.append([spec.name, type(exc).__name__, str(exc)])
                continue
            maps = [[[type(v).__name__, str(v)] for v in row] for mat in t.maps for row in mat]
            out.append([spec.name, list(t.dims), maps])
    return out


def _library_digest(outputs):
    text = json.dumps(_normalize(outputs), sort_keys=True)
    return {"outputs": len(outputs), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def fpd_digest():
    return _library_digest(fpd_outputs())


def wba_digest():
    return _library_digest(wba_outputs())


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


def test_the_fpd_outputs_match_the_committed_digest():
    assert fpd_digest() == json.loads(DIGESTS.read_text())[FPD_SET]


def test_the_wba_outputs_match_the_committed_digest():
    assert wba_digest() == json.loads(DIGESTS.read_text())[WBA_SET]


def test_every_committed_digest_has_a_command():
    assert set(json.loads(DIGESTS.read_text())) == (
        {" ".join(a) for a in COMMANDS} | {FPD_SET, WBA_SET}
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_digests.py --write")
    table = {" ".join(argv): digest(argv) for argv in COMMANDS}
    table[FPD_SET] = fpd_digest()
    table[WBA_SET] = wba_digest()
    before = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sorted(table):
        if table[name] != before.get(name):
            print("changed:" if name in before else "added:", name, file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
