"""End-to-end tests for the ``fpq`` command line interface.

Every test drives ``fpq.cli.run`` with a real argv list and inspects the
JSON written to stdout, so the full parse -> compute -> serialize path is
exercised exactly as a shell user would see it.
"""

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpq
from fpq import engine, verify, wba
from fpq.cli import build_parser, run
from fpq.errors import InputError


def run_cli(argv):
    """Invoke the CLI once, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    """Run the CLI and parse its stdout as JSON, asserting success."""
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


KRONECKER = {
    "vertices": 2,
    "arrows": [
        {"id": "r1", "from": 1, "to": 2},
        {"id": "r2", "from": 1, "to": 2},
    ],
}

SIMPLE_1 = {"dims": [1, 0], "maps": {}}


def test_hom_and_ext_on_a2():
    data = run_json(["hom", "--quiver", "typeA:>", "--left", "interval:1,2",
                     "--right", "interval:1,1"])
    assert data["dim"] == 1
    assert data["config"]["left"] == "interval:1,2"
    data = run_json(["hom", "--quiver", "typeA:>", "--left", "interval:1,1",
                     "--right", "interval:1,2"])
    assert data["dim"] == 0
    data = run_json(["ext", "--quiver", "typeA:>", "--left", "interval:1,1",
                     "--right", "interval:2,2"])
    assert data["dim"] == 1


def test_tensor_writes_representation(tmp_path):
    out_file = tmp_path / "prod.json"
    code, out, err = run_cli(["tensor", "--quiver", "typeA:>>",
                              "--left", "interval:1,3", "--right",
                              "interval:2,3", "--out", str(out_file)])
    assert code == 0
    assert out == ""
    data = json.loads(out_file.read_text())
    # Vertexwise product of dims (1,1,1) and (0,1,1).
    assert data["representation"]["dims"] == [0, 1, 1]
    assert data["representation"]["quiver"]["vertices"] == 3


def test_fpd_exact_interval():
    data = run_json(["fpd", "--quiver", "typeA:<>", "--object",
                     "interval:2,2"])
    assert data["value"] == 2
    assert data["mode"] == "exact"
    assert data["shift"] == 0
    assert data["divergent"] is False
    assert data["integral"] is True
    assert isinstance(data["witness"], list) and data["witness"]


def test_fpd_stdout_is_deterministic():
    argv = ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


def test_fpd_lower_band_family_divergence(tmp_path):
    q = write_json(tmp_path / "kron.json", KRONECKER)
    m = write_json(tmp_path / "s1.json", SIMPLE_1)
    data = run_json(["fpd", "--quiver", q, "--object", m, "--mode", "lower",
                     "--band-family", "--budget", "5"])
    assert data["divergent"] is True
    assert data["value"] == 5
    assert data["mode"] == "lower_bound"
    assert [row["radius"] for row in data["family_sequence"]] == \
        [1.0, 2.0, 3.0, 4.0, 5.0]


def test_fpd_exact_without_candidates_fails_cleanly(tmp_path):
    q = write_json(tmp_path / "kron.json", KRONECKER)
    m = write_json(tmp_path / "s1.json", SIMPLE_1)
    code, out, err = run_cli(["fpd", "--quiver", q, "--object", m])
    assert code == 1
    data = json.loads(out)
    assert data["error"]["type"] == "incomplete_list"
    assert "message" in data["error"]


@pytest.mark.parametrize(
    "candidates",
    [[{"dims": [1, 0], "maps": {}}, 5], {"a": 1}],
    ids=["entry-is-a-number", "object-not-list"],
)
def test_fpd_candidates_must_be_a_list_of_objects_or_strings(tmp_path, candidates):
    q = write_json(tmp_path / "kron.json", KRONECKER)
    m = write_json(tmp_path / "s1.json", SIMPLE_1)
    c = write_json(tmp_path / "c.json", candidates)
    code, out, err = run_cli(["fpd", "--quiver", q, "--object", m,
                              "--candidates", c])
    assert code == 1, err
    assert json.loads(out)["error"]["type"] == "bad_input"


def test_fpv_closed_form_matches_empirical():
    data = run_json(["fpv", "--quiver", "typeA:><", "--object",
                     "interval:1,3", "--n-max", "5"])
    assert data["closed_form"] == 1
    assert data["empirical"]["value"] == 1
    assert data["value"] == 1


def test_bricks_enumerate_with_shifts():
    data = run_json(["bricks", "enumerate", "--quiver", "typeA:>",
                     "--shifts", "0,1"])
    assert data["candidates"] == 6
    assert data["sets"]
    for entry in data["sets"]:
        size = len(entry["members"])
        assert size >= 1 and entry["size"] == size
        assert entry["certificate"] == [
            [int(i == j) for j in range(size)] for i in range(size)
        ]


def test_spectral_integer_and_float_formats(tmp_path):
    perm = write_json(tmp_path / "perm.json", [[0, 1], [1, 0]])
    data = run_json(["spectral", "--matrix", perm])
    assert data["value"] == 1
    assert data["integral"] is True
    assert data["size"] == 2

    star = write_json(tmp_path / "star.json",
                      [[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0],
                       [1, 0, 0, 0]])
    data = run_json(["spectral", "--matrix", star])
    expected = (1 + math.sqrt(13)) / 2
    assert data["integral"] is False
    assert abs(data["value"] - expected) < 1e-9
    # Floats are serialized with at most 12 significant digits.
    assert data["value"] == float(f"{data['value']:.12g}")

    # radius 10^6 + 5e-7: within 1e-6 of an integer, but irrational
    near = write_json(tmp_path / "near.json", [[2000000, 1], [1, 0]])
    assert run_json(["spectral", "--matrix", near])["integral"] is False


@pytest.mark.parametrize(
    "text",
    [
        '[["x", 1], [1, 0]]',
        "[[1e400, 1], [1, 0]]",
        "[[NaN, 1], [1, 0]]",
        # finite entries whose radius (2e308) overflows the power iteration
        "[[1e308, 1e308], [1e308, 1e308]]",
        "[[true, 1], [1, 0]]",  # a JSON boolean is not a number
    ],
)
def test_spectral_rejects_non_numeric_and_non_finite_entries(tmp_path, text):
    matrix = tmp_path / "m.json"
    matrix.write_text(text)
    code, out, _ = run_cli(["spectral", "--matrix", str(matrix)])
    assert code == 1
    assert "Infinity" not in out
    assert json.loads(out)["error"]["type"] == "bad_input"


@pytest.mark.parametrize(
    "quiver, rep",
    [
        (KRONECKER, [1, 2]),  # a list where a representation object goes
        ({"vertices": "x", "arrows": []}, SIMPLE_1),
        (KRONECKER, {"dims": [1.5, 1], "maps": {}}),
        (KRONECKER, {"dims": ["x", 1], "maps": {}}),
        (KRONECKER, {"dims": [1, 1], "maps": {"r1": [[True]]}}),
        (KRONECKER, {"dims": [1, 1], "maps": [[[1]], [[1]]]}),
        (KRONECKER, {"dims": [1, 1], "maps": {"r1": [["1/0"]]}}),
    ],
    ids=["rep-is-a-list", "vertices-not-int", "dims-float", "dims-string",
         "map-entry-bool", "maps-is-a-list", "map-entry-zero-denominator"],
)
def test_malformed_files_are_bad_input(tmp_path, quiver, rep):
    q = write_json(tmp_path / "q.json", quiver)
    m = write_json(tmp_path / "m.json", rep)
    code, out, err = run_cli(["hom", "--quiver", q, "--left", m, "--right", m])
    assert code == 1, err
    assert json.loads(out)["error"]["type"] == "bad_input"


_CAPPED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from fpq.cli import run
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "quiver, rep",
    [
        ({"vertices": 10 ** 12, "arrows": []}, None),
        (None, {"quiver": KRONECKER, "dims": [10 ** 8, 10 ** 8]}),
    ],
    ids=["vertex-count", "dims-with-maps-omitted"],
)
def test_oversized_inputs_are_bad_input_under_a_memory_cap(tmp_path, quiver, rep):
    """Sizes that would exhaust memory are rejected before anything is
    allocated.  The child process caps its own address space at 1 GiB, so
    a regression ends in its MemoryError rather than in the host's."""
    if quiver is not None:
        argv = ["hom", "--quiver", write_json(tmp_path / "q.json", quiver),
                "--left", "interval:1,1", "--right", "interval:1,1"]
    else:
        m = write_json(tmp_path / "m.json", rep)
        argv = ["hom", "--left", m, "--right", m]
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "bad_input"
    assert "Traceback" not in proc.stderr


def _spec_with(value, *path):
    """kronecker1-a's spec as JSON data with the entry at path set to value."""
    spec = wba.catalog_kronecker(1)[0].to_dict()
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return spec


@pytest.mark.parametrize(
    "spec",
    [
        {},
        [],
        _spec_with(["e1", "e1"], "delta", "e1", 0),
        _spec_with(1.5, "delta", "e1", 0, 2),
        _spec_with("x", "counit", "e1"),
        _spec_with("1/0", "counit", "e1"),
        _spec_with(5, "delta", "e1", 0, 0),
    ],
    ids=["empty-object", "a-list", "term-with-two-entries",
         "float-coefficient", "counit-not-a-number",
         "counit-zero-denominator", "integer-path-key"],
)
def test_malformed_specs_are_bad_input(tmp_path, spec):
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run_cli(["wba", "check", "--spec", path])
    assert code == 1, err
    assert json.loads(out)["error"]["type"] == "bad_input"


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, where):
    path = str(tmp_path / "missing" / "x.json" if where == "missing-directory"
               else tmp_path)
    code, out, err = run_cli(["verify", "gamma", "--n-max", "2", "--out", path])
    assert code == 2
    assert out == ""
    assert err.startswith(f"fpq: cannot write {path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["fpv", "--quiver", "typeA:>", "--object", "interval:1,2", "--n-max", "0"],
        ["bricks", "enumerate", "--quiver", "typeA:>", "--shifts", "x"],
        ["verify", "fpv", "--n", "1"],
        ["verify", "euler", "--max-dim", "-1"],
        ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2", "--tol=inf"],
        ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2", "--tol=-inf"],
        ["spectral", "--matrix", "m.json", "--tol=nan"],
        ["verify", "gamma", "--tol=-1"],
        ["verify", "gamma", "--n-max", "0"],
        ["verify", "duality", "--n", "1", "--triples", "0"],
        ["verify", "euler", "--pairs", "0"],
        ["verify", "closed-form", "--n", "1"],
        ["verify", "canonical-tensor", "--pairs", "0"],
        ["verify", "fpv", "--count", "0"],
        ["verify", "wba-axioms", "--corruptions", "-1"],
        ["verify", "kronecker-divergence", "--size", "0"],
        ["verify", "kronecker-divergence", "--size", "2"],
        ["verify", "euler", "--pairs", "2", "--quivers", "0"],
        ["verify", "wba-axioms", "--w-max", "-2"],
        ["verify", "duality", "--n", "-3", "--triples", "1"],
        ["fpd", "--quiver", "typeA:><", "--object", "interval:1,2", "--mode",
         "lower", "--band-family", "--budget", "0"],
        ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2", "--cap", "0"],
        ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2", "--cap", "-1"],
        ["bricks", "enumerate", "--quiver", "typeA:>", "--cap", "-3"],
    ],
    ids=["fpv-n-max-0", "bricks-shifts-x", "verify-fpv-n-1", "verify-euler-max-dim",
         "fpd-tol-inf", "fpd-tol-minus-inf", "spectral-tol-nan",
         "verify-gamma-tol-minus-1", "verify-gamma-n-max-0",
         "verify-duality-empty", "verify-euler-pairs-0", "verify-closed-form-n-1",
         "verify-canonical-tensor-pairs-0", "verify-fpv-count-0",
         "verify-wba-axioms-corruptions-minus-1", "verify-kronecker-size-0",
         "verify-kronecker-size-2", "verify-euler-quivers-0",
         "verify-wba-axioms-w-max-minus-2", "verify-duality-n-minus-3",
         "fpd-budget-0", "fpd-cap-0", "fpd-cap-minus-1", "bricks-cap-minus-3"],
)
def test_bad_option_values_are_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "--" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "--n", "3", "--triples", "5"],
        ["canonical-tensor", "--n", "2", "--pairs", "3"],
        ["wba-axioms", "--w-max", "1", "--corruptions", "5"],
        ["kronecker-divergence", "--size", "4"],
        ["gamma", "--n-max", "5"],
        ["fpv", "--n", "2", "--count", "3", "--n-max", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_verify_suites_pass_at_small_sizes(argv):
    data = run_json(["verify"] + argv)
    assert data["failures"] == 0
    assert data["passes"] == len(data["cases"]) > 0


@pytest.mark.parametrize(
    "name,target,sizes",
    [
        ("wba-axioms", "check_axioms", {"w_max": 1, "corruptions": 3, "seed": 0}),
        ("kronecker-divergence", "fpd_lower_bound", {"size": 3}),
    ],
    ids=["wba-axioms", "kronecker-divergence"],
)
def test_verify_errors_fail_cases_instead_of_the_run(monkeypatch, name, target, sizes):
    """The suites that share work between cases do it inside the thunks, so
    an FpqError there fails the cases that need it and verify.run still
    returns every case."""
    def boom(*_args, **_kwargs):
        raise InputError("injected failure")

    monkeypatch.setattr(wba if target == "check_axioms" else engine, target, boom)
    results = verify.run(name, **sizes)
    assert results
    for key, ok, detail in results:
        assert not ok, key
        assert detail == {"error": {"type": "bad_input", "message": "injected failure"}}


def _subcommands(parser):
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def test_verify_subcommands_are_the_suite_registry():
    suites = _subcommands(_subcommands(build_parser())["verify"])
    assert set(suites) == set(verify.SUITES)
    for name, parser in suites.items():
        options = {a.dest for a in parser._actions} - {"help", "out"}
        params = set(inspect.signature(verify.SUITES[name]).parameters)
        assert options == params, name


def test_wba_check_single_structure():
    data = run_json(["wba", "check", "--structure", "k2-a"])
    assert data["ok"] is True
    assert data["bialgebra"] is True
    assert data["failures"] == []


def test_wba_check_catalog():
    data = run_json(["wba", "check", "--catalog", "kronecker:1"])
    by_name = {r["structure"]: r for r in data["reports"]}
    assert len(by_name) == 5
    for tag in "ace":
        assert by_name[f"kronecker1-{tag}"]["ok"] is True
    for tag in "bd":
        rep = by_name[f"kronecker1-{tag}"]
        assert rep["ok"] is False
        assert [f["axiom"] for f in rep["failures"]] == ["coassociativity"]


def test_wba_catalog_emits_structures():
    data = run_json(["wba", "catalog", "--name", "k2"])
    names = [s["name"] for s in data["structures"]]
    assert names == [f"k2-{t}" for t in "abcde"]
    for s in data["structures"]:
        assert "delta" in s
        assert s["axioms"]["ok"] is True
        assert s["axioms"]["bialgebra"] == (s["name"] != "k2-e")


def test_wba_tensor_of_simples(tmp_path):
    left = write_json(tmp_path / "l.json", SIMPLE_1)
    right = write_json(tmp_path / "r.json", SIMPLE_1)
    data = run_json(["wba", "tensor", "--structure", "kronecker1-e",
                     "--left", left, "--right", right])
    assert data["representation"]["dims"] == [1, 0]


def test_wba_commands_reject_a_disagreeing_quiver(tmp_path):
    left = write_json(tmp_path / "l.json", SIMPLE_1)
    for argv in (
        ["wba", "tensor", "--structure", "kronecker1-e", "--left", left,
         "--right", left],
        ["wba", "check", "--structure", "kronecker1-e"],
        ["wba", "discrete", "--structure", "kronecker1-e"],
    ):
        code, out, _ = run_cli(argv[:2] + ["--quiver", "typeA:>>"] + argv[2:])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "wrong_quiver"
    kron1 = write_json(tmp_path / "kron1.json",
                       {"vertices": 2, "arrows": [{"id": "r1", "from": 1, "to": 2}]})
    data = run_json(["wba", "check", "--structure", "kronecker1-e",
                     "--quiver", kron1])
    assert data["ok"] is True


def test_wba_discrete_flags_witness():
    data = run_json(["wba", "discrete", "--structure", "kronecker1-a"])
    assert data["discrete"] is False
    assert data["witness"]["i"] == 1
    assert data["witness"]["j"] == 2

    data = run_json(["wba", "discrete", "--structure", "kronecker1-e"])
    assert data["discrete"] is True
    assert data["witness"] is None


def test_verify_suite_passes_and_reports_config():
    data = run_json(["verify", "closed-form", "--n", "2"])
    assert data["failures"] == 0
    assert data["passes"] == len(data["cases"])
    assert data["suite"] == "closed-form"
    assert data["config"]["n"] == 2
    for case in data["cases"]:
        assert case["ok"] is True
        assert "key" in case


def test_verify_bytes_stable_across_runs():
    argv = ["verify", "euler", "--pairs", "12", "--seed", "3"]
    first = run_cli(argv)
    assert first == run_cli(argv)
    assert first[0] == 0


def test_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    code, out, err = run_cli(["spectral", "--matrix", str(bad)])
    assert code == 2
    assert out == ""
    assert f"{bad}:1:2: malformed JSON" in err


def test_interval_without_quiver_is_usage_error():
    code, out, err = run_cli(["hom", "--left", "interval:1,1",
                              "--right", "interval:2,2"])
    assert code == 2
    assert "--quiver" in err


def test_unknown_command_exits_two():
    code, out, err = run_cli(["no-such-command"])
    assert code == 2
