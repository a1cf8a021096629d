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
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fpq
from fpq import cli, engine, spectral, verify, wba
from fpq import quiver as quiver_module
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


def test_fpd_lower_without_a_family_reports_the_simples_floor():
    data = run_json(["fpd", "--quiver", "typeA:>", "--object", "interval:1,2",
                     "--mode", "lower"])
    assert (data["value"], data["floor"], data["family_sequence"]) == (1, 1.0, [])
    assert "witness" not in data and data["divergent"] is False


def test_fpd_lower_band_family_without_a_hub_is_not_divergent(tmp_path):
    """S(2) is simple projective on the Kronecker quiver, so no band module
    maps to S(2) (x) X: the adjacency is zero and has no hub member."""
    q = write_json(tmp_path / "kron.json", KRONECKER)
    m = write_json(tmp_path / "s2.json", {"dims": [0, 1], "maps": {}})
    data = run_json(["fpd", "--quiver", q, "--object", m, "--mode", "lower",
                     "--band-family", "--budget", "3"])
    assert data["adjacency"] == [[0] * 3] * 3
    assert data["divergent"] is False and data["value"] == 1


@pytest.mark.parametrize("mode, options, unread", [
    ("exact", ["--band-family", "--budget", "3", "--band-path1", "r"],
     "--band-family, --band-path1, --budget"),
    ("exact", ["--band-path1", "r1", "--band-path2", "r2"], "--band-path1, --band-path2"),
    ("lower", ["--band-family", "--candidates", "CANDIDATES"], "--candidates"),
    ("exact", ["--budget", "12"], "--budget"),
    ("lower", ["--band-family", "--cap", "1000000", "--candidates", "CANDIDATES"],
     "--candidates, --cap"),
])
def test_fpd_refuses_the_options_its_mode_does_not_read(tmp_path, mode, options, unread):
    """The band options and --budget belong to lower mode, --candidates and
    --cap to exact mode; each is refused, unread, in the other (a
    lower-mode candidate list holding 5 would otherwise fail its
    validation), even when given its default value."""
    q = write_json(tmp_path / "kron.json", KRONECKER)
    m = write_json(tmp_path / "s1.json", SIMPLE_1)
    c = write_json(tmp_path / "c.json", [5])
    argv = ["fpd", "--quiver", q, "--object", m, "--mode", mode]
    code, out, err = run_cli(argv + [c if x == "CANDIDATES" else x for x in options])
    assert (code, out) == (2, "")
    assert err == f"fpq: --mode {mode} does not read {unread}\n"


def test_fpd_reports_record_the_defaults_of_options_their_mode_does_not_read(tmp_path):
    """A defaulted --budget or --cap is not refused, and the report's config
    keeps it as the number it is."""
    argv = ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2"]
    config = run_json(argv)["config"]
    assert (config["budget"], config["cap"]) == (12, 10 ** 6)
    q = write_json(tmp_path / "kron.json", KRONECKER)
    m = write_json(tmp_path / "s1.json", SIMPLE_1)
    code, out, _ = run_cli(["fpd", "--quiver", q, "--object", m, "--mode", "lower",
                            "--band-family", "--budget", "2"])
    assert code == 0
    assert '"budget": 2,\n    "cap": 1000000,' in out


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


def test_fpd_inline_candidates_load_like_files(tmp_path):
    """A candidate list entry that is a representation object loads as the
    same object in a file does, its "quiver" a file name included, and one
    over another quiver gets --object's wrong_quiver error."""
    q = write_json(tmp_path / "kron.json", KRONECKER)
    s1 = {"quiver": q, "dims": [1, 0], "maps": {}}
    m = write_json(tmp_path / "s1.json", s1)
    argv = ["fpd", "--quiver", q, "--object", m, "--candidates"]
    reports = []
    for candidates in ([m], [s1]):
        report = run_json(argv + [write_json(tmp_path / "c.json", candidates)])
        del report["config"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["candidates"] == 1
    other = dict(s1, quiver={"vertices": 3, "arrows": []}, dims=[1, 0, 0])
    for candidates in ([write_json(tmp_path / "o.json", other)], [other]):
        code, out, err = run_cli(argv + [write_json(tmp_path / "c.json", candidates)])
        assert code == 1, err
        assert json.loads(out)["error"] == {"type": "wrong_quiver", "message":
                                            "the representation is over a different"
                                            " quiver than --quiver"}


_LONG = "9" * 5000  # past Python's 4300-digit limit on int conversion


@pytest.mark.parametrize("argv, text", [
    (["spectral", "--matrix", "FILE"], f"[[{_LONG}]]"),
    (["spectral", "--matrix", "FILE"], b"[[\xff]]"),
    (["hom", "--quiver", "FILE", "--left", "FILE", "--right", "FILE"],
     f'{{"vertices": {_LONG}, "arrows": []}}'),
    (["hom", "--quiver", "typeA:>", "--left", f"interval:{_LONG},1",
      "--right", "interval:1,1"], None),
    (["wba", "catalog", "--name", f"kronecker:{_LONG}"], None),
    (["wba", "check", "--structure", f"kronecker{_LONG}-a"], None),
], ids=["matrix-file", "matrix-not-utf8", "quiver-file", "interval", "kronecker-catalog",
        "kronecker-entry"])
def test_input_python_will_not_convert_ends_in_the_contract(tmp_path, argv, text):
    """A JSON file or a descriptor holding an integer past Python's digit
    limit, or a file that is not UTF-8, exits 1 or 2, without a traceback."""
    path = tmp_path / "in.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    code, out, err = run_cli([str(path) if x == "FILE" else x for x in argv])
    assert code in (1, 2), (code, out)
    assert "Traceback" not in err


@pytest.mark.parametrize("quiver, rep, error", [
    ({"vertices": -1, "arrows": []}, SIMPLE_1, "bad_arrow"),
    (KRONECKER, {"dims": [-1, 1], "maps": {}}, "shape_mismatch"),
], ids=["vertex-count-negative", "dimension-negative"])
def test_invalid_quivers_and_representations_name_their_error(tmp_path, quiver, rep, error):
    q = write_json(tmp_path / "q.json", quiver)
    m = write_json(tmp_path / "m.json", rep)
    code, out, err = run_cli(["hom", "--quiver", q, "--left", m, "--right", m])
    assert code == 1, err
    assert json.loads(out)["error"]["type"] == error


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
        "[1, 0]",  # not an array of arrays
        f"[[1{'0' * 400}, 1], [1, 0]]",  # an int no float holds
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
        ({"arrows": []}, SIMPLE_1),
        (KRONECKER, {"dims": [2, 1], "maps": {"r1": ["12"]}}),
        (KRONECKER, {"dims": [1, 1], "maps": {"r1": "1"}}),
        (None, SIMPLE_1),
    ],
    ids=["rep-is-a-list", "vertices-not-int", "dims-float", "dims-string",
         "map-entry-bool", "maps-is-a-list", "map-entry-zero-denominator",
         "vertices-missing", "map-row-is-a-string", "map-is-a-string",
         "no-quiver-anywhere"],
)
def test_malformed_files_are_bad_input(tmp_path, quiver, rep):
    """A string where an array goes is refused, not read as its characters
    (["12"] as [[1, 2]], "1" as [[1]]); quiver None gives no --quiver, so
    the representation needs its own."""
    q = [] if quiver is None else ["--quiver", write_json(tmp_path / "q.json", quiver)]
    m = write_json(tmp_path / "m.json", rep)
    code, out, err = run_cli(["hom", *q, "--left", m, "--right", m])
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


def test_spectral_matrix_over_the_size_limit_is_bad_input(tmp_path):
    """Rows past spectral.MAX_MATRIX_SIZE are refused before any row is
    read, so even rows of the wrong length give the size error."""
    side = spectral.MAX_MATRIX_SIZE + 1
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([[]] * side))
    code, out, _ = run_cli(["spectral", "--matrix", str(matrix)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "bad_input" and "too large" in error["message"]


def test_oversized_tensor_is_a_dimension_guard_under_a_memory_cap(tmp_path):
    """Two A_2 representations within the input limits whose vertexwise
    tensor would have 10^12 map entries: refused before kron allocates,
    under the same 1 GiB address-space cap."""
    m = write_json(tmp_path / "m.json", {"quiver": {
        "vertices": 2, "arrows": [{"id": "a", "from": 1, "to": 2}]},
        "dims": [1000, 1000]})
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, "tensor", "--left", m, "--right", m],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "dimension_guard"
    assert "Traceback" not in proc.stderr


def test_oversized_hom_system_is_a_dimension_guard_under_a_memory_cap(tmp_path):
    """A seeded dense A_2 pair of dims [60, 60], whose hom system of 3600
    equations in 7200 unknowns is above quiver.MAX_HOM_SYSTEM: refused
    before a row is built, in under a second of the child's CPU time, under
    the same 1 GiB address-space cap."""
    rng = random.Random(60)
    quiver = {"vertices": 2, "arrows": [{"id": "a", "from": 1, "to": 2}]}
    for name in ("m.json", "n.json"):
        write_json(tmp_path / name, {"quiver": quiver, "dims": [60, 60], "maps": {
            "a": [[rng.randint(-2, 2) for _ in range(60)] for _ in range(60)]}})
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, "hom", "--left", "m.json",
                           "--right", "n.json"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == {"type": "dimension_guard", "message":
                                                "hom system of 3600 equations in 7200"
                                                " unknowns is above the limit of"
                                                f" {quiver_module.MAX_HOM_SYSTEM} for"
                                                " their product"}
    assert "Traceback" not in proc.stderr
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert cpu < 1, cpu


def test_oversized_wba_tensor_is_a_dimension_guard_under_a_memory_cap(tmp_path):
    """dim M * dim N = 4 * 10^6 is above wba.MAX_TENSOR_DIM: refused before
    tensor_wba allocates a row of the tensor square, under the same 1 GiB
    address-space cap."""
    m = write_json(tmp_path / "m.json", {"quiver": {
        "vertices": 2, "arrows": [{"id": "r1", "from": 1, "to": 2}]},
        "dims": [1000, 1000]})
    argv = ["wba", "tensor", "--structure", "kronecker1-a", "--left", m, "--right", m]
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error == {"type": "dimension_guard", "message":
                     f"tensor square would have dimension above {wba.MAX_TENSOR_DIM}"}
    assert "Traceback" not in proc.stderr


def test_oversized_path_algebra_is_a_dimension_guard_under_a_memory_cap(tmp_path):
    """A 30-vertex chain with two arrows between neighbours has more than
    2^29 paths: the canonical structure on it is refused at wba.MAX_PATHS,
    under the same 1 GiB address-space cap."""
    arrows = [{"id": f"{c}{v}", "from": v, "to": v + 1} for v in range(1, 30) for c in "ab"]
    q = write_json(tmp_path / "q.json", {"vertices": 30, "arrows": arrows})
    argv = ["wba", "check", "--structure", "canonical", "--quiver", q]
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == {"type": "dimension_guard", "message":
                                                f"path algebra would have more than"
                                                f" {wba.MAX_PATHS} paths"}
    assert "Traceback" not in proc.stderr


def test_axiom_check_above_its_path_budget_is_a_dimension_guard_under_a_memory_cap(tmp_path):
    """The 6-vertex chain with two arrows between neighbours has 120 paths:
    its path algebra is built, but check_axioms, cubic in the path count,
    refuses it at wba.MAX_AXIOM_PATHS before any law is evaluated, under
    the same 1 GiB address-space cap."""
    arrows = [{"id": f"{c}{v}", "from": v, "to": v + 1} for v in range(1, 6) for c in "ab"]
    q = write_json(tmp_path / "q.json", {"vertices": 6, "arrows": arrows})
    argv = ["wba", "check", "--structure", "canonical", "--quiver", q]
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == {"type": "dimension_guard", "message":
                                                f"axiom check of 120 paths is above the"
                                                f" limit of {wba.MAX_AXIOM_PATHS}"}
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["tensor", "--left", "m.json", "--right", "m.json"],
    ["wba", "tensor", "--structure", "canonical", "--quiver", "q.json",
     "--left", "m.json", "--right", "m.json"],
], ids=["tensor", "wba-tensor"])
def test_output_entry_past_the_digit_limit_is_a_dimension_guard(tmp_path, argv):
    """An A_2 representation whose one map entry, 10^2500, is read within
    Python's 4300-digit limit has a tensor square with the entry 10^5000,
    which str() will not convert: the command exits 1 with the JSON error
    dimension_guard naming the limit, and no traceback."""
    quiver = {"vertices": 2, "arrows": [{"id": "a", "from": 1, "to": 2}]}
    write_json(tmp_path / "q.json", quiver)
    write_json(tmp_path / "m.json", {"quiver": quiver, "dims": [1, 1],
                                     "maps": {"a": [[10 ** 2500]]}})
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fpq.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "dimension_guard"
    assert f"{sys.get_int_max_str_digits()} digits" in error["message"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["wba", "catalog", "--name", "kronecker:100000000"],
    ["wba", "tensor", "--structure", "kronecker100000000-a", "--left", "m.json",
     "--right", "m.json"],
], ids=["catalog", "tensor"])
def test_kronecker_catalog_above_the_path_budget_is_refused_before_its_arrows(argv):
    """kronecker:w has w + 2 paths: w = 10^8 is refused at wba.MAX_PATHS
    before any of its arrows is built, under the same 1 GiB address-space
    cap, before the factors are read."""
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == {"type": "dimension_guard", "message":
                                                f"path algebra would have more than"
                                                f" {wba.MAX_PATHS} paths"}
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["hom", "--left", "m.json", "--right", "m.json"],
    ["wba", "tensor", "--spec", "spec.json", "--left", "interval:1,1",
     "--right", "interval:1,1"],
], ids=["hom", "wba-tensor-spec"])
def test_decimal_exponent_past_the_digit_limit_is_bad_input(tmp_path, argv):
    """A map entry or a coproduct coefficient written "1e30000000" would
    make Fraction build 10^30000000: it is refused as bad_input once its
    exponent exceeds Python's digit limit, before any power is formed,
    under the same 1 GiB address-space cap."""
    quiver = {"vertices": 2, "arrows": [{"id": "a1", "from": 1, "to": 2}]}
    huge = "1e30000000"
    write_json(tmp_path / "m.json", {"quiver": quiver, "dims": [1, 1],
                                     "maps": {"a1": [[huge]]}})
    write_json(tmp_path / "spec.json", {
        "quiver": quiver, "delta": {"e1": [["e1", "e1", "1"]], "e2": [["e2", "e2", "1"]],
                                    "a1": [["a1", "a1", huge]]},
        "counit": {"e1": "1", "e2": "1", "a1": "1"}})
    env = dict(os.environ, PYTHONPATH=str(Path(fpq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "bad_input" and "exponent 30000000" in error["message"]
    assert "Traceback" not in proc.stderr


def _spec_with(value, *path):
    """kronecker1-a's spec as JSON data with the entry at path set to value."""
    spec = wba.catalog_kronecker(1)[0].to_dict()
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return spec


def _spec_without(*path):
    """kronecker1-a's spec as JSON data without the entry at path."""
    spec = _spec_with(None, *path)
    del spec[path[0]][path[1]]
    return spec


def _term_as_a_string():
    """The canonical spec over the quiver 1 -a-> 2 with its term a(x)a
    written as the string "aa1", which reads, character by character, as
    the term itself."""
    spec = wba.canonical_wba(quiver_module.Quiver(2, [("a", 1, 2)])).to_dict()
    assert spec["delta"]["a"] == [["a", "a", "1"]]
    spec["delta"]["a"] = ["aa1"]
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
        _spec_with({"x": [1, 2]}, "name"),
        _spec_with("zz", "delta", "e1", 0, 0),
        _spec_with("r1.r1", "delta", "r1", 0, 1),
        _spec_without("delta", "e1"),
        _spec_without("counit", "e1"),
        _spec_with([], "delta"),
        _term_as_a_string(),
    ],
    ids=["empty-object", "a-list", "term-with-two-entries",
         "float-coefficient", "counit-not-a-number",
         "counit-zero-denominator", "integer-path-key", "name-not-a-string",
         "unknown-path-key", "path-not-a-walk", "coproduct-missing",
         "counit-missing", "delta-not-an-object", "term-is-a-string"],
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
        ["bricks", "enumerate", "--quiver", "typeA:>", "--shifts="],
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
        ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2", "--budget", "3"],
        ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2", "--mode", "lower",
         "--cap", "3"],
        ["fpd", "--quiver", "typeA:<>", "--object", "interval:2,2", "--cap", "x"],
        ["spectral", "--matrix", "m.json", "--tol", "x"],
    ],
    ids=["fpv-n-max-0", "bricks-shifts-x", "bricks-shifts-empty", "verify-fpv-n-1",
         "verify-euler-max-dim",
         "fpd-tol-inf", "fpd-tol-minus-inf", "spectral-tol-nan",
         "verify-gamma-tol-minus-1", "verify-gamma-n-max-0",
         "verify-duality-empty", "verify-euler-pairs-0", "verify-closed-form-n-1",
         "verify-canonical-tensor-pairs-0", "verify-fpv-count-0",
         "verify-wba-axioms-corruptions-minus-1", "verify-kronecker-size-0",
         "verify-kronecker-size-2", "verify-euler-quivers-0",
         "verify-wba-axioms-w-max-minus-2", "verify-duality-n-minus-3",
         "fpd-budget-0", "fpd-cap-0", "fpd-cap-minus-1", "bricks-cap-minus-3",
         "fpd-exact-budget-3", "fpd-lower-cap-3", "fpd-cap-x", "spectral-tol-x"],
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
        params = set(inspect.signature(verify.SUITES[name][0]).parameters)
        assert options == params, name


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parser.parse_args(argv))
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


_LEAVES = (
    [["hom"], ["ext"], ["tensor"], ["fpd"], ["fpv"], ["bricks", "enumerate"],
     ["spectral"]]
    + [["wba", name] for name in ("check", "catalog", "tensor", "discrete")]
    + [["verify", name] for name in verify.SUITES]
)


@pytest.mark.parametrize("argv", [leaf + ["-h"] for leaf in _LEAVES] + [
    ["verify", "duality", "--n", "3", "--seed", "2"],
    ["verify", "duality", "--bogus"],
    ["verify", "duality", "--n", "-1"],
    ["verify", "dual"],
    ["verify", "-h", "duality"],
    ["wba", "tensor", "--left", "a", "--right", "b", "extra"],
    ["wba", "catalog"],
    ["fpd", "--mode", "bad"],
    ["fpd", "--quiver", "typeA:><", "--object", "interval:1,2", "--shift", "1"],
    ["bricks", "enumerate", "--bogus"],
    ["hom", "--left"],
    ["--bogus", "hom"],
    ["bogus"],
    [],
    ["wba"],
    ["bricks"],
    ["verify"],
    ["wba", "bogus"],
], ids=" ".join)
def test_a_parser_built_for_argv_parses_it_as_the_full_parser_does(argv):
    """build_parser(argv) builds only the subcommands argv names, yet gives
    the same namespace, help and error output as the full parser."""
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


def test_a_parser_built_for_argv_holds_only_the_named_subcommands():
    full = build_parser()
    assert list(_subcommands(full)) == list(cli._COMMANDS)
    wba_tree = cli._COMMANDS["wba"][2]
    assert list(_subcommands(_subcommands(full)["wba"])) == list(wba_tree)
    parser = build_parser(["verify", "duality", "--n", "3"])
    assert list(_subcommands(parser)) == ["verify"]
    assert list(_subcommands(_subcommands(parser)["verify"])) == ["duality"]
    assert len(_subcommands(build_parser(["verify", "-h"]))) == 1
    assert len(_subcommands(_subcommands(build_parser(["verify", "-h"]))["verify"])) == 8
    assert len(_subcommands(build_parser(["-h", "verify"]))) == 9


class _Recording(argparse.Namespace):
    """A namespace that logs the name of every attribute read from it."""

    read = set()

    def __getattribute__(self, name):
        _Recording.read.add(name)
        return super().__getattribute__(name)


def _samples(tmp_path):
    """Per leaf, invocations that between them give every option the leaf
    takes, each invocation only the options its mode accepts."""
    kron, s1 = write_json(tmp_path / "kron.json", KRONECKER), write_json(
        tmp_path / "s1.json", SIMPLE_1)
    a2 = {"vertices": 2, "arrows": [{"id": "a1", "from": 1, "to": 2}]}
    spec = write_json(tmp_path / "spec.json", wba.canonical_wba(
        fpq.Quiver.from_dict(a2)).to_dict())
    q = write_json(tmp_path / "a2.json", a2)
    candidates = write_json(tmp_path / "c.json", [
        f"interval:{i},{j}" for i in range(1, 4) for j in range(i, 4)])
    matrix = write_json(tmp_path / "m.json", [[0, 1], [1, 0]])
    pair = ["--left", "interval:1,2", "--right", "interval:1,1"]
    fpd = ["fpd", "--object", "interval:1,2", "--shift", "1", "--structure",
           "vertexwise", "--tol", "1e-9"]
    band = ["fpd", "--quiver", kron, "--object", s1, "--shift", "0", "--structure",
            "vertexwise", "--tol", "1e-9", "--mode", "lower", "--budget", "3"]
    by_spec = [["--spec", spec, "--quiver", q], ["--structure", "canonical", "--quiver", q]]
    out = {
        ("hom",): [["hom", "--quiver", "typeA:>", *pair]],
        ("ext",): [["ext", "--quiver", "typeA:>", *pair]],
        ("tensor",): [["tensor", "--quiver", "typeA:>", *pair, "--structure", "canonical"]],
        ("fpd",): [fpd + ["--quiver", "typeA:><", "--mode", "exact", "--candidates",
                          candidates, "--cap", "100"],
                   band + ["--band-family"],
                   band + ["--band-path1", "r1", "--band-path2", "r2"]],
        ("fpv",): [["fpv", "--quiver", "typeA:><", "--object", "interval:1,3",
                    "--structure", "vertexwise", "--n-max", "3"]],
        ("bricks", "enumerate"): [["bricks", "enumerate", "--quiver", "typeA:><",
                                   "--shifts", "0,1", "--cap", "100"]],
        ("spectral",): [["spectral", "--matrix", matrix, "--tol", "1e-9"]],
        ("wba", "check"): [["wba", "check", "--catalog", "k2"]]
        + [["wba", "check", *given] for given in by_spec],
        ("wba", "catalog"): [["wba", "catalog", "--name", "k2"]],
        ("wba", "tensor"): [["wba", "tensor", *given, *pair] for given in by_spec],
        ("wba", "discrete"): [["wba", "discrete", *given] for given in by_spec],
    }
    small = {"--n": "3", "--pairs": "3", "--quivers": "2", "--max-dim": "2",
             "--seed": "5", "--triples": "3", "--w-max": "1", "--corruptions": "3",
             "--size": "4", "--n-max": "4", "--tol": "1e-9", "--count": "2"}
    for name, (_, _, sizes) in verify.SUITES.items():
        out["verify", name] = [["verify", name] + [
            x for flag, _, _ in sizes for x in (flag, small[flag])]]
    return out


def _options(leaf):
    """The flags a leaf of cli._COMMANDS takes, --out included."""
    node = cli._COMMANDS[leaf[0]]
    for name in leaf[1:]:
        node = node[2][name]
    return {flag for flag, _ in node[1]} | {"--out"}


def test_every_option_a_leaf_accepts_is_read(tmp_path):
    """On each of the 19 leaves the handler, then the report's writer, read
    every option a sample invocation gives through a recording namespace,
    and the samples give every option the leaf takes, each only where its
    mode accepts it (the others are refused: see the fpd and wba check
    refusal tests).  Recording the config, which copies the namespace
    whole, reads no option by name."""
    samples = _samples(tmp_path)
    assert sorted(samples) == sorted(map(tuple, _LEAVES))
    for leaf, invocations in samples.items():
        given = set()
        for argv in invocations:
            argv = argv + ["--out", str(tmp_path / "out.json")]
            args = build_parser(argv).parse_args(argv, namespace=_Recording())
            _Recording.read = set()
            data, code = args.func(args)
            cli._emit(data, args)
            assert code == 0, (argv, data)
            flags = {x for x in argv if x.startswith("--")}
            unread = {f for f in flags if f[2:].replace("-", "_") not in _Recording.read}
            assert not unread, (argv, unread)
            given |= flags
        assert given == _options(leaf), leaf


# 1 -> 2 twice (a, d), 2 -> 3 twice (b, e) and 1 -> 3 (c)
_BAND_QUIVER = {"vertices": 3, "arrows": [
    {"id": aid, "from": s, "to": t}
    for aid, s, t in [("a", 1, 2), ("b", 2, 3), ("c", 1, 3), ("d", 1, 2), ("e", 2, 3)]]}


@pytest.mark.parametrize("path1, path2, message", [
    ("zz", "c", "unknown arrow id 'zz'"),
    ("a,c", "c", "arrow c starts at 1, expected 2"),
    ("a", "c", "paths must share their start and end vertices"),
    ("a,b", "d,e", "paths must be vertex-disjoint away from endpoints"),
    ("c", "c", "paths must not share arrows"),
], ids=["unknown-arrow", "broken-walk", "endpoints-differ", "meet-in-the-middle",
        "shared-arrow"])
def test_band_paths_refusals_are_bad_paths(tmp_path, path1, path2, message):
    """Each refusal of band paths that a validated (acyclic) quiver can
    reach ends the lower-mode run in the JSON error bad_paths."""
    q = write_json(tmp_path / "q.json", _BAND_QUIVER)
    m = write_json(tmp_path / "s1.json", {"dims": [1, 0, 0], "maps": {}})
    code, out, err = run_cli(["fpd", "--quiver", q, "--object", m, "--mode", "lower",
                              "--band-path1", path1, "--band-path2", path2,
                              "--budget", "3"])
    assert code == 1, err
    assert json.loads(out)["error"] == {"type": "bad_paths", "message": message}


@pytest.mark.parametrize("quiver, message", [
    ({"vertices": 2, "arrows": [{"id": "r1", "from": 1, "to": 2}]},
     "band_kronecker needs 2 vertices and 2 arrows"),
    ({"vertices": 2, "arrows": [{"id": "r1", "from": 2, "to": 1},
                                {"id": "r2", "from": 2, "to": 1}]},
     "band_kronecker needs both arrows 1 -> 2"),
], ids=["not-kronecker", "reversed-arrows"])
def test_band_family_off_the_kronecker_quiver_is_wrong_quiver(tmp_path, quiver, message):
    q = write_json(tmp_path / "q.json", quiver)
    m = write_json(tmp_path / "s1.json", SIMPLE_1)
    code, out, err = run_cli(["fpd", "--quiver", q, "--object", m, "--mode", "lower",
                              "--band-family", "--budget", "3"])
    assert code == 1, err
    assert json.loads(out)["error"] == {"type": "wrong_quiver", "message": message}


def test_band_family_with_band_paths_is_a_usage_error(tmp_path):
    """The band paths name the family, so --band-family beside them would go
    unread: refused."""
    q = write_json(tmp_path / "kron.json", KRONECKER)
    m = write_json(tmp_path / "s1.json", SIMPLE_1)
    code, out, err = run_cli(["fpd", "--quiver", q, "--object", m, "--mode", "lower",
                              "--band-family", "--band-path1", "r1", "--band-path2", "r2"])
    assert (code, out) == (2, "")
    assert err == "fpq: give --band-family or the band paths, not both\n"


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


@pytest.mark.parametrize("option,value", [
    ("--spec", "nonexistent.json"),
    ("--structure", "kronecker1-a"),
    ("--quiver", "typeA:>"),
])
def test_wba_check_catalog_refuses_the_options_it_does_not_read(option, value):
    argv = ["wba", "check", "--catalog", "kronecker:1", option, value]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"fpq: --catalog does not read {option}\n"


@pytest.mark.parametrize("command", ["check", "tensor", "discrete"])
def test_wba_spec_and_structure_together_are_a_usage_error(tmp_path, command):
    spec = write_json(tmp_path / "k2a.json", wba.catalog_k2()[0].to_dict())
    argv = ["wba", command, "--spec", spec, "--structure", "kronecker2-b"]
    if command == "tensor":
        argv += ["--left", spec, "--right", spec]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "fpq: give --spec FILE or --structure NAME, not both\n"


@pytest.mark.parametrize("name,found", [
    ("k2-c", "k2-c"),
    ("kronecker2-e", "kronecker2-e"),
    ("kronecker01-b", "kronecker1-b"),
])
def test_catalog_entries_are_looked_up_by_name(name, found):
    assert run_json(["wba", "check", "--structure", name])["structure"] == found


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


def test_spectral_without_convergence_reports_its_bracket(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral, "MAX_ITER", 1)
    matrix = write_json(tmp_path / "m.json", [[1, 1], [1, 0]])
    code, out, err = run_cli(["spectral", "--matrix", matrix])
    assert code == 1, err
    error = json.loads(out)["error"]
    assert error["type"] == "no_convergence"
    low, high = error["bracket"]
    assert low <= (1 + math.sqrt(5)) / 2 <= high


def test_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    code, out, err = run_cli(["spectral", "--matrix", str(bad)])
    assert code == 2
    assert out == ""
    assert f"{bad}:1:2: malformed JSON" in err


@pytest.mark.parametrize("argv, message", [
    (["spectral", "--matrix", "MISSING"], "cannot read MISSING: "),
    (["wba", "catalog", "--name", "k3"], "catalog name must be k2 or kronecker:w, got 'k3'"),
    (["wba", "check", "--structure", "canonical"], "structure 'canonical' needs --quiver"),
    (["wba", "discrete"], "give --spec FILE or --structure NAME\n"),
    (["fpd", "--quiver", "typeA:>", "--object", "interval:1,1", "--mode", "lower",
      "--band-path1", "a1"], "--band-path1 and --band-path2 go together"),
], ids=["missing-file", "catalog-name", "canonical-without-quiver", "no-structure",
        "one-band-path"])
def test_usage_refusals_exit_two_with_their_message(tmp_path, argv, message):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli([missing if x == "MISSING" else x for x in argv])
    assert (code, out) == (2, "")
    assert err.startswith("fpq: " + message.replace("MISSING", missing))


@pytest.mark.parametrize("argv, error", [
    (["wba", "catalog", "--name", "kronecker:0"],
     {"type": "bad_input", "message": "the arrow count w must be at least 1"}),
    (["hom", "--quiver", "typeA:>x", "--left", "interval:1,1", "--right", "interval:1,1"],
     {"type": "bad_input", "message": "orientation word must be over '><', got '>x'"}),
    (["tensor", "--quiver", "typeA:>", "--left", "interval:1,1", "--right", "interval:1,1",
      "--structure", "kronecker1-a"],
     {"type": "wrong_quiver",
      "message": "the coproduct structure lives on a different quiver than --quiver"}),
], ids=["kronecker-catalog-0", "orientation-letter", "structure-quiver"])
def test_domain_refusals_exit_one_with_their_error(argv, error):
    code, out, err = run_cli(argv)
    assert code == 1, err
    assert json.loads(out)["error"] == error


def test_interval_without_quiver_is_usage_error():
    code, out, err = run_cli(["hom", "--left", "interval:1,1",
                              "--right", "interval:2,2"])
    assert code == 2
    assert "--quiver" in err


def test_unknown_command_exits_two():
    code, out, err = run_cli(["no-such-command"])
    assert code == 2
