"""End-to-end tests for the ``fpq`` command line interface.

Every test drives ``fpq.cli.run`` with a real argv list and inspects the
JSON written to stdout, so the full parse -> compute -> serialize path is
exercised exactly as a shell user would see it.
"""

import contextlib
import io
import json
import math

import pytest

from fpq.cli import run


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


@pytest.mark.parametrize(
    "text",
    [
        '[["x", 1], [1, 0]]',
        "[[1e400, 1], [1, 0]]",
        "[[NaN, 1], [1, 0]]",
        # finite entries whose radius (2e308) overflows the power iteration
        "[[1e308, 1e308], [1e308, 1e308]]",
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
    ],
    ids=["rep-is-a-list", "vertices-not-int", "dims-float", "dims-string"],
)
def test_malformed_files_are_bad_input(tmp_path, quiver, rep):
    q = write_json(tmp_path / "q.json", quiver)
    m = write_json(tmp_path / "m.json", rep)
    code, out, err = run_cli(["hom", "--quiver", q, "--left", m, "--right", m])
    assert code == 1, err
    assert json.loads(out)["error"]["type"] == "bad_input"


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
    ],
    ids=["fpv-n-max-0", "bricks-shifts-x", "verify-fpv-n-1", "verify-euler-max-dim",
         "fpd-tol-inf", "fpd-tol-minus-inf", "spectral-tol-nan",
         "verify-gamma-tol-minus-1"],
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
