"""Tests for the germ-file loader and the command-line interface.

CLI tests drive ``germlab.cli.main`` in-process and read the JSON report
from stdout (or ``--out``), checking exit codes, the report envelope, and
byte-level determinism.
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import germlab
from germlab import groebner
from germlab.cli import _build_parser, main
from germlab.germfile import (
    GermFileError,
    load_raw,
    load_system,
    read_germ_file,
)
from germlab.parse import poly_to_string

from conftest import F, fixture_path, load_fixture


def write_germ(tmp_path, data, name="germ.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# germ-file reading and validation


def test_read_germ_file_roundtrip(tmp_path):
    data = {"variables": ["x", "y"], "equations": ["x^2 + y^3"]}
    path = write_germ(tmp_path, data)
    assert read_germ_file(path) == data


def test_read_errors(tmp_path):
    with pytest.raises(GermFileError, match="cannot read"):
        read_germ_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GermFileError, match="not valid JSON"):
        read_germ_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(GermFileError, match="top level must be a JSON object"):
        read_germ_file(arr)


@pytest.mark.parametrize(
    "data, match",
    [
        ({"variables": ["x"], "equations": ["x^2"], "extra": 1}, "unknown germ-file keys"),
        ({"variables": [], "equations": ["x^2"]}, "non-empty list of names"),
        ({"variables": ["x", "x"], "equations": ["x^2"]}, "distinct"),
        ({"variables": ["x"]}, 'exactly one of "equations" or "split"'),
        (
            {"variables": ["x"], "equations": ["x^2"], "split": {"principal": ["x^2"]}},
            'exactly one of "equations" or "split"',
        ),
        ({"variables": ["x"], "equations": []}, "non-empty list of strings"),
        (
            {"variables": ["x"], "split": {"principal": ["x^2"], "junk": []}},
            "unknown split keys",
        ),
        ({"variables": ["x"], "split": {"perturbation": ["x^3"]}}, "split.principal"),
        (
            {
                "variables": ["x"],
                "split": {"principal": ["x^2"], "perturbation": ["x^3", "x^4"]},
            },
            "match split.principal in length",
        ),
        (
            {"variables": ["x", "y"], "equations": ["x^2 + y^2"], "weights": ["1/2"]},
            "one rational string per variable",
        ),
        (
            {"variables": ["x"], "equations": ["x^2"], "assumptions": ["not-a-thing"]},
            "unknown assumptions",
        ),
    ],
)
def test_shape_validation(data, match):
    with pytest.raises(GermFileError, match=match):
        load_system(data)


def test_weight_parsing_errors():
    base = {"variables": ["x"], "equations": ["x^2"]}
    with pytest.raises(GermFileError, match="not a rational"):
        load_system({**base, "weights": ["quick"]})
    with pytest.raises(GermFileError, match="must be positive"):
        load_system({**base, "weights": ["-1/2"]})
    with pytest.raises(GermFileError, match="must be positive"):
        load_system({**base, "weights": ["0"]})


def test_bad_equation_reports_its_label():
    with pytest.raises(GermFileError, match=r"equations\[0\].*position"):
        load_system({"variables": ["x"], "equations": ["x^2 + +"]})
    with pytest.raises(GermFileError, match=r"split\.principal\[0\]"):
        load_system({"variables": ["x"], "split": {"principal": ["x +"]}})


def test_cli_bad_number_names_its_equation_and_position(capsys, tmp_path):
    for text, message in (("x^²+y^3", "unexpected character '²' (at position 2)"),
                          ("1" * 5000 + "*x", "number too long (5000 digits) (at position 0)")):
        path = write_germ(tmp_path, {"variables": ["x", "y"], "equations": [text]})
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err == f"germlab: equations[0]: {message} in {text!r}\n"


def test_weight_inference_failures_are_germ_file_errors():
    # not weighted-homogeneous and no weights given
    with pytest.raises(GermFileError, match="not weighted-homogeneous"):
        load_system({"variables": ["x", "y"], "equations": ["x^2 + x*y^3 + y^2"]})
    # underdetermined: y never appears
    with pytest.raises(GermFileError, match="underdetermined.*y"):
        load_system({"variables": ["x", "y"], "equations": ["x^2"]})
    with pytest.raises(GermFileError, match="^cannot infer weights from a zero equation$"):
        load_system({"variables": ["x", "y", "z"], "split": {"principal": ["0"]}})


def test_load_system_infers_weights():
    system = load_system({"variables": ["x", "y", "z"], "equations": ["z^5 + x^15 + x*y^7"]}).system
    assert system.weights == (F("1/15"), F("2/15"), F("1/5"))
    assert system.degrees == (F(1),)
    assert system.n == 2 and system.c == 1


def test_cli_split_principal_without_weights_gets_split_advice(capsys, tmp_path):
    # The file already has a split, so the advice must not ask for one.
    path = write_germ(
        tmp_path,
        {"variables": ["x", "y", "z"], "split": {"principal": ["x^2 + x*y^3 + y^2 + z^2"]}},
    )
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert '"split.principal" is not weighted-homogeneous' in err
    assert '"split.perturbation"' in err
    assert 'explicit "split"' not in err


def test_system_validation_surfaces_as_germ_file_error():
    with pytest.raises(GermFileError):
        load_system({"variables": ["x", "y"], "equations": ["x + y"]})  # order 1


def test_variables_sorted_by_weight_with_permutation():
    loaded = load_system(load_fixture("a2.json"))
    assert loaded.original_variables == ("x", "y", "z")
    # z has the smallest weight (1/3), so it leads after sorting
    assert loaded.permutation == (2, 0, 1)
    assert loaded.system.variables == ("z", "x", "y")
    assert loaded.system.weights == (F(1, 3), F(1, 2), F(1, 2))


def test_equations_mode_equals_explicit_split():
    via_equations = load_system(
        {
            "variables": ["x", "y", "z"],
            "equations": ["x^2 + y^2 + z^2 + z^3"],
            "weights": ["1/2", "1/2", "1/2"],
        }
    )
    via_split = load_system(load_fixture("sphere_cubic.json"))
    a, b = via_equations.system, via_split.system
    assert a.variables == b.variables
    assert a.weights == b.weights
    assert a.principal == b.principal
    assert a.perturbation == b.perturbation


def test_split_without_perturbation_is_unperturbed():
    loaded = load_system(
        {"variables": ["x", "y"], "split": {"principal": ["x^2 + y^3"]}}
    )
    assert all(q.is_zero() for q in loaded.system.perturbation)
    # y carries the smaller inferred weight, so it leads after sorting
    assert loaded.system.variables == ("y", "x")
    assert loaded.system.weights == (F(1, 3), F(1, 2))


def test_load_raw_preserves_order_and_recombines():
    raw = load_raw(load_fixture("briancon_speder.json"))
    assert raw.variables == ("x", "y", "z")
    assert len(raw.equations) == 1
    text = poly_to_string(raw.equations[0], list(raw.variables))
    assert text == "x^15 + x*y^7 + y^6*z + z^5"


# ---------------------------------------------------------------------------
# CLI: exit codes and report envelopes


def test_cli_analyze_fast_cycle(capsys):
    code, out, err = run_cli(capsys, "analyze", str(fixture_path("a2.json")))
    assert code == 10
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["tool"]["name"] == "germlab"
    assert doc["command"] == "analyze"
    assert doc["seeds"] == {"root": 0}
    assert doc["timing_seconds"] is None
    assert doc["input"] == load_fixture("a2.json")
    assert doc["analysis"]["verdict"] == "FAST_CYCLE_FOUND"
    assert doc["variables"] == ["z", "x", "y"]
    assert doc["permutation"] == [2, 0, 1]


def test_cli_analyze_no_obstruction(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(fixture_path("a1.json")))
    assert code == 0
    assert json.loads(out)["analysis"]["verdict"] == "NO_OBSTRUCTION_FOUND"


def test_cli_analyze_unverified(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(fixture_path("briancon_speder.json")))
    assert code == 20
    assert json.loads(out)["analysis"]["verdict"] == "HYPOTHESES_UNVERIFIED"


def test_cli_analyze_assumption_flag_changes_verdict(capsys):
    path = str(fixture_path("quadric_cone_4d.json"))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 20
    assert json.loads(out)["analysis"]["verdict"] == "HYPOTHESES_UNVERIFIED"
    code, out, _ = run_cli(capsys, "analyze", path, "--assume-milnor-fibre")
    assert code == 10
    doc = json.loads(out)
    assert doc["analysis"]["verdict"] == "FAST_CYCLE_FOUND"
    assert "milnor-fibre" in doc["assumptions"][0]


def test_cli_analyze_budget_exhaustion_is_undetermined(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(fixture_path("briancon_speder.json")), "--budget", "2"
    )
    assert code == 20
    doc = json.loads(out)
    assert doc["analysis"]["verdict"] == "HYPOTHESES_UNVERIFIED"
    assert any(
        entry["status"] == "unchecked" for entry in doc["analysis"]["hypothesis_ledger"]
    )


BENCH_GERMS = Path(__file__).resolve().parent.parent / "bench" / "germs"


@pytest.mark.parametrize(
    "argv, code, stage",
    [
        (["analyze", fixture_path("a1.json"), "--budget", "5"], 20, "buchberger (steps used: 6)"),
        (["analyze", fixture_path("briancon_speder.json"), "--budget", "50"], 20, "local standard basis (steps used: 51)"),
        (["milnor", fixture_path("a3.json"), "--budget", "5"], 20, "weighted initial form (steps used: 6)"),
        (["milnor", fixture_path("briancon_speder.json"), "--budget", "50"], 20, "local standard basis (steps used: 51)"),
        (["newton", str(BENCH_GERMS / "bs_6633.json"), "--budget", "200"], 0, "buchberger (steps used: 201)"),
        (["newton", str(BENCH_GERMS / "bs_6633.json"), "--budget", "200", "--probabilistic-nnd"], 0,
         "buchberger (steps used: 201)"),
        # 13 of the 15 faces run out before the top face's dimension is asked
        # for, and the count still reads limit + 1
        (["newton", str(BENCH_GERMS / "bs_6633.json"), "--budget", "100"], 0, "buchberger (steps used: 101)"),
    ],
)
def test_cli_budget_exhaustion_names_its_stage(capsys, argv, code, stage):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    message = f"budget exhausted during {stage}"
    if argv[0] == "milnor":
        assert (out, err) == ("", f"germlab: {message}\n")
        return
    assert err == ""
    doc = json.loads(out)
    if argv[0] == "analyze":
        evidence = [e["evidence"] for e in doc["analysis"]["hypothesis_ledger"] if e["key"] == "a"]
    else:
        evidence = [v["evidence"] for v in doc["newton"]["face_verdicts"]]
    assert evidence == [message]


def test_exact_functions_take_the_budget_they_charge():
    # none of them falls back on a budget of its own, nor buchberger on an order
    taking = set()
    for short in ("groebner", "germ", "newton", "foliation"):
        module = importlib.import_module(f"germlab.{short}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            parameters = inspect.signature(fn).parameters
            if fn.__module__ == module.__name__ and "budget" in parameters:
                assert parameters["budget"].default is inspect.Parameter.empty, f"{short}.{name}"
                taking.add(f"{short}.{name}")
    assert taking >= {
        "groebner.division", "groebner.normal_form", "groebner.buchberger", "groebner.is_groebner_basis",
        "groebner.ideal_membership", "groebner.quotient_dimension", "groebner.saturation",
        "groebner.local_standard_basis", "groebner.milnor_number", "germ.variety_dimension", "germ.sigma",
        "germ.is_reduced_ci", "germ.is_icis", "germ.analyze", "germ.analyze_newton",
        "newton.is_newton_nondegenerate", "foliation.sigma_link_cloud",
    }
    order = inspect.signature(groebner.buchberger).parameters["order"]
    assert order.default is inspect.Parameter.empty


@pytest.mark.parametrize("limit", [[], ["--budget", "1000000"]], ids=["default", "given"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "a2.json"],
        ["sigma", "briancon_speder.json"],
        ["newton", "x2y3z7.json"],
        ["foliate", "sphere_cubic.json", "--samples", "4"],
        ["milnor", "a3.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_command_builds_one_budget(monkeypatch, tmp_path, argv, limit):
    built = []
    init = groebner.Budget.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.Budget, "__init__", counted)
    command, germ, *extra = argv
    if command == "foliate":
        extra += ["--csv", str(tmp_path / "arcs.csv")]
    code = main([command, fixture_path(germ), *extra, "--out", str(tmp_path / "report.json"), *limit])
    assert code in (0, 10)
    assert built == [(1000000,) if limit else ()]


def test_cli_sigma(capsys):
    code, out, _ = run_cli(capsys, "sigma", str(fixture_path("briancon_speder.json")))
    assert code == 0
    doc = json.loads(out)["sigma"]
    assert [c["label"] for c in doc["components"]] == [
        "Sing[X0]",
        "Sing[X0 n V(x)]",
        "Sing[X0 n V(x, y)]",
    ]
    assert doc["total_dim"] == 1
    assert doc["is_origin_only"] is False
    assert all(c["status"] == "computed" for c in doc["components"])


def test_cli_newton_certificate(capsys):
    code, out, _ = run_cli(capsys, "newton", str(fixture_path("x2y3z7.json")))
    assert code == 10
    doc = json.loads(out)["newton"]
    assert doc["any_certificate"] is True
    assert doc["criterion_applicable"] is False
    assert len(doc["faces"]) == 7
    assert doc["nondegeneracy"]["overall"] is True
    assert any("single top face" in note for note in doc["notes"])


def test_cli_newton_silent(capsys):
    code, out, _ = run_cli(capsys, "newton", str(fixture_path("cube.json")))
    assert code == 0
    doc = json.loads(out)["newton"]
    assert doc["any_certificate"] is False
    assert all(v["status"] == "silent" for v in doc["face_verdicts"])


def test_cli_newton_rejects_non_convenient(capsys, tmp_path):
    path = write_germ(tmp_path, {"variables": ["x", "y", "z"], "equations": ["x*y + z^2"]})
    code, out, err = run_cli(capsys, "newton", str(path))
    assert code == 1
    assert out == ""
    assert "convenient" in err


def test_cli_newton_needs_three_variables(capsys):
    code, _, err = run_cli(capsys, "newton", str(fixture_path("cusp_plane.json")))
    assert code == 1
    assert "variables" in err


@pytest.mark.parametrize(
    "fixture, message",
    [
        ("cusp_plane", "the Newton route requires at least 3 variables (a germ of dimension >= 2)"),
        ("quadric_cone_4d", "the Newton route requires a convenient diagram"),
        ("briancon_speder", "the Newton route requires a convenient diagram"),
    ],
)
def test_cli_newton_input_errors_on_fixtures(capsys, fixture, message):
    code, out, err = run_cli(capsys, "newton", str(fixture_path(f"{fixture}.json")))
    assert (code, out, err) == (1, "", f"germlab: {message}\n")


def test_cli_milnor(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "milnor", str(fixture_path("cusp_plane.json")))
    assert code == 0
    doc = json.loads(out)["milnor"]
    assert doc == {"isolated": True, "milnor_number": 4, "notes": []}

    path = write_germ(tmp_path, {"variables": ["x", "y"], "equations": ["x^2*y"]})
    code, out, _ = run_cli(capsys, "milnor", str(path))
    assert code == 0
    doc = json.loads(out)["milnor"]
    assert doc["milnor_number"] is None
    assert doc["isolated"] is False
    assert doc["notes"] == [
        "the critical point is not isolated (or all partials vanish)"
    ]


def test_cli_foliate_sphere(capsys, tmp_path):
    csv_path = tmp_path / "arcs.csv"
    code, out, _ = run_cli(
        capsys,
        "foliate",
        str(fixture_path("sphere_cubic.json")),
        "--samples", "6",
        "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)["foliate"]
    assert doc["epsilon"] == "1/2"  # default away from same order
    assert doc["passed"] is True
    assert doc["samples"] == {"requested": 6, "obtained": 6}
    assert doc["converged_fraction"] == 1.0
    assert doc["checks"]["separation_ok"] is True
    assert doc["checks"]["coordinate_planes_ok"] is True
    assert csv_path.exists()
    # one row per (arc, t); deformed and reference arcs are both exported
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 6 * 20


def test_cli_foliate_same_order_defaults_to_small_epsilon(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "foliate",
        str(fixture_path("briancon_speder.json")),
        "--samples", "4",
        "--csv", str(tmp_path / "b.csv"),
    )
    assert code == 0
    doc = json.loads(out)["foliate"]
    assert doc["epsilon"] == "1/10"
    assert doc["notes"] == []


def test_cli_foliate_large_epsilon_override_warns(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "foliate",
        str(fixture_path("briancon_speder.json")),
        "--samples", "4",
        "--epsilon", "1/2",
        "--csv", str(tmp_path / "c.csv"),
    )
    doc = json.loads(out)["foliate"]
    assert doc["epsilon"] == "1/2"
    assert doc["notes"] == [
        "epsilon = 1/2 exceeds the same-order cap 0.1; "
        "the deformation's convergence radius can shrink to zero"
    ]


def run_python_process(*args, env=None):
    """A fresh interpreter that imports this checkout's germlab.  ``env``
    entries override the inherited environment; a None value unsets one."""
    environ = dict(os.environ)
    package_root = str(Path(germlab.__file__).resolve().parent.parent)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, environ.get("PYTHONPATH")]))
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=environ,
        timeout=300,
    )


def run_cli_process(*argv, env=None):
    """The CLI in a subprocess, so that its real stdout and stderr (file
    descriptors LAPACK also writes to) are what gets checked."""
    return run_python_process("-m", "germlab.cli", *argv, env=env)


def test_cli_foliate_reports_numeric_warnings_as_notes(tmp_path):
    # the float64 projections overflow on x^1000
    germ = write_germ(tmp_path, {"variables": ["x", "y", "z"], "equations": ["x^1000 + y^2 + z^2"]})
    result = run_cli_process("foliate", germ, "--csv", tmp_path / "arcs.csv")
    assert result.returncode == 0
    assert result.stderr == ""
    notes = json.loads(result.stdout)["foliate"]["notes"]
    assert notes == ["RuntimeWarning: overflow encountered in matmul"]


def test_cli_reads_germ_files_as_utf8_in_an_ascii_locale(tmp_path):
    # JSON is UTF-8 whatever the locale's encoding; here it is ASCII
    germ = tmp_path / "germ.json"
    data = {"variables": ["ξ", "y"], "equations": ["ξ^2 + y^2"]}
    germ.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    result = run_cli_process(
        "milnor", germ, env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    )
    assert (result.returncode, result.stderr) == (0, "")
    doc = json.loads(result.stdout)
    assert doc["variables"] == ["ξ", "y"]
    assert doc["milnor"]["milnor_number"] == 1


def test_cli_newton_torus_search_reports_overflow_as_notes(tmp_path):
    # the budget runs out on every face, and the torus search's gradient
    # overflows at some starts; those attempts end before LAPACK sees them
    germ = write_germ(tmp_path, {"variables": ["x", "y", "z"], "equations": ["x^1500 + y^1500 + z^1500"]})
    result = run_cli_process("newton", germ, "--probabilistic-nnd", "--budget", 5)
    assert result.returncode == 0
    assert result.stderr == ""
    newton = json.loads(result.stdout)["newton"]
    assert {face["method"] for face in newton["nondegeneracy"]["per_face"]} == {"probabilistic"}
    # numpy's wording for its array power, which evaluates every live start at once
    assert "RuntimeWarning: overflow encountered in power" in newton["notes"]


# numpy loads only with the numeric layer, and the CLI starts OpenBLAS with one
# thread unless OPENBLAS_NUM_THREADS is set.  Each check needs a fresh
# interpreter: this one has long since loaded numpy.


def test_the_exact_layers_load_no_numpy():
    modules = "germlab, germlab.germ, germlab.groebner, germlab.germfile, germlab.parse, germlab.report"
    code = f"import sys, {modules}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    result = run_python_process("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_NUMPY_PROBE = """
import sys, germlab.cli
germ, out, csv = sys.argv[1:]
for command in ("milnor", "sigma", "analyze", "newton", "foliate"):
    extra = ["--samples", "2", "--csv", csv] if command == "foliate" else []
    code = germlab.cli.main([command, germ, "--out", out, *extra])
    print(command, code, "numpy" in sys.modules)
"""


def test_only_foliate_loads_numpy(tmp_path):
    # the exact commands run without the numeric layer; foliate loads it
    result = run_python_process(
        "-c", _NUMPY_PROBE, fixture_path("a3.json"), tmp_path / "report.json", tmp_path / "arcs.csv"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "milnor 0 False",
        "sigma 0 False",
        "analyze 10 False",
        "newton 10 False",
        "foliate 0 True",
    ]


_THREADS = "/proc/self/task"
# numpy loads, as in every run that needs it, through the CLI's foliate
_OPENBLAS_PROBE = (
    "import os, sys, germlab.cli; "
    "germlab.cli.main(['foliate', sys.argv[1], '--samples', '2', '--out', sys.argv[2], '--csv', sys.argv[3]]); "
    f"threads = len(os.listdir({_THREADS!r})) if os.path.isdir({_THREADS!r}) else 0; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'), 'numpy' in sys.modules, threads)"
)


def _openblas_probe(threads, tmp_path):
    result = run_python_process(
        "-c", _OPENBLAS_PROBE, fixture_path("a3.json"), tmp_path / "report.json", tmp_path / "arcs.csv",
        env={"OPENBLAS_NUM_THREADS": threads},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_the_cli_sets_one_openblas_thread_unless_the_user_has_set_it(tmp_path):
    value, numpy_loaded, _ = _openblas_probe(None, tmp_path)
    assert (value, numpy_loaded) == ("1", "True")
    value, numpy_loaded, _ = _openblas_probe("3", tmp_path)
    assert (value, numpy_loaded) == ("3", "True")


@pytest.mark.skipif(
    not os.path.isdir(_THREADS) or (os.cpu_count() or 1) < 2,
    reason=f"OpenBLAS starts extra threads only with a second CPU, counted in {_THREADS}",
)
def test_the_cli_process_runs_one_thread(tmp_path):
    assert _openblas_probe(None, tmp_path)[2] == "1"


def test_one_openblas_thread_changes_no_bits(tmp_path):
    # foliate exercises the Sigma cloud's stacked least squares, the arc
    # solves and the Gram determinants; --budget 100 sends 13 of bs_6633's 15
    # faces to the torus search, which calls lstsq
    csv_path = tmp_path / "arcs.csv"
    bs_6633 = Path(__file__).resolve().parent.parent / "bench" / "germs" / "bs_6633.json"
    commands = [
        ["foliate", fixture_path("briancon_speder.json"), "--seed", 3, "--csv", csv_path],
        ["newton", bs_6633, "--probabilistic-nnd", "--budget", 100],
    ]
    outputs = []
    for threads in ("2", None):
        runs = []
        for argv in commands:
            csv_path.unlink(missing_ok=True)
            result = run_cli_process(*argv, env={"OPENBLAS_NUM_THREADS": threads})
            assert result.stderr == ""
            runs.append((result.returncode, result.stdout, csv_path.read_bytes() if csv_path.exists() else None))
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    (_, _, arcs), (_, newton, _) = outputs[1]
    assert arcs.count(b"\n") > 1
    assert "probabilistic" in {face["method"] for face in json.loads(newton)["newton"]["nondegeneracy"]["per_face"]}


def test_cli_output_file_and_determinism(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out_path in (out_a, out_b):
        code, stdout, _ = run_cli(
            capsys,
            "analyze",
            str(fixture_path("a2.json")),
            "--out", str(out_path),
        )
        assert code == 10
        assert stdout == ""
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_foliate_determinism(capsys, tmp_path):
    # the CSV path is echoed in the report, so keep it identical across runs
    csv_path = tmp_path / "arcs.csv"
    blobs = []
    csvs = []
    for name in ("a", "b"):
        out_path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(
            capsys,
            "foliate",
            str(fixture_path("sphere_cubic.json")),
            "--samples", "4",
            "--seed", "3",
            "--out", str(out_path),
            "--csv", str(csv_path),
        )
        assert code == 0
        blobs.append(out_path.read_bytes())
        csvs.append(csv_path.read_bytes())
    assert blobs[0] == blobs[1]
    assert csvs[0] == csvs[1]


def test_cli_seed_is_echoed(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(fixture_path("a1.json")), "--seed", "42"
    )
    assert code == 0
    assert json.loads(out)["seeds"] == {"root": 42}


def test_cli_timing_flag(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(fixture_path("a1.json")), "--timing"
    )
    assert code == 0
    timing = json.loads(out)["timing_seconds"]
    assert isinstance(timing, float) and timing >= 0.0


def test_back_to_back_calls_share_one_parser(tmp_path):
    # main builds its parser once per process; each call must still write to
    # the streams of its own moment and leave nothing for the next call
    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    fixture = str(fixture_path("a2.json"))
    code, out, err = call("frobnicate", fixture)
    assert (code, out) == (1, "")
    assert err.startswith("usage: germlab") and "invalid choice: 'frobnicate'" in err
    code, out, err = call("-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: germlab") and "foliate" in out
    code, out, err = call("analyze")
    assert (code, out) == (1, "")
    assert err.startswith("usage: germlab analyze") and "required: file" in err

    timed, plain, fresh = (tmp_path / f"{name}.json" for name in ("timed", "plain", "fresh"))
    assert call("analyze", fixture, "--timing", "--out", str(timed))[0] == 10
    assert call("analyze", fixture, "--out", str(plain))[0] == 10
    env = dict(os.environ)
    package_root = str(Path(germlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "germlab.cli", "analyze", fixture, "--out", str(fresh)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (result.returncode, result.stdout, result.stderr) == (10, "", "")
    assert json.loads(timed.read_text())["timing_seconds"] is not None
    assert plain.read_bytes() == fresh.read_bytes()
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate", "x.json"],  # unknown subcommand
        ["analyze"],  # missing file argument
        ["analyze", "does-not-exist.json"],
        ["analyze", "x.json", "--budget", "0"],
        ["foliate", "x.json", "--samples", "1"],
        ["foliate", "x.json", "--epsilon", "abc"],
    ],
)
def test_cli_input_errors_exit_one(capsys, argv):
    if "x.json" in argv:
        argv = [a if a != "x.json" else str(fixture_path("sphere_cubic.json")) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err != ""


DEEP_PARENTHESES = {"variables": ["x", "y", "z"], "equations": ["(" * 400 + "1" + ")" * 400 + "*x^2 + y^2 + z^2"]}
DEEP_JSON = '{"variables": ' + "[" * 1000 + "]" * 1000 + "}"


@pytest.mark.parametrize("command", ["analyze", "sigma", "newton", "foliate", "milnor"])
@pytest.mark.parametrize("text", [json.dumps(DEEP_PARENTHESES), DEEP_JSON], ids=["parentheses", "json"])
def test_deeply_nested_input_is_an_input_error(capsys, tmp_path, command, text):
    # past Python's recursion limit in the parser or in json.loads: one
    # germlab line on stderr, not a RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text(text)
    csv_path = tmp_path / "arcs.csv"
    extra = ["--csv", str(csv_path)] if command == "foliate" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("germlab: ")
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "epsilon, message",
    [
        ("1e400", "germlab: --epsilon 1e400 is too large for a float\n"),
        ("1e-400", "germlab: --epsilon 1e-400 is too small for a float: it rounds to 0\n"),
    ],
    ids=["too-large", "too-small"],
)
def test_cli_foliate_rejects_an_epsilon_no_float_holds(capsys, tmp_path, epsilon, message):
    # the arcs are solved at complex(epsilon): 1e400 overflows it, and
    # 1e-400 would silently run the check with no perturbation at all
    csv_path = tmp_path / "arcs.csv"
    argv = ["foliate", fixture_path("a3.json"), "--epsilon", epsilon, "--samples", "3", "--csv", str(csv_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", message)
    assert not csv_path.exists()


HUGE = "1" + "0" * 400  # 10^400, past the float range
HUGE_WEIGHT = {"variables": ["x", "y", "z"], "equations": ["x^2+y^2+z^2"], "weights": ["1e400", "1", "1"]}
# 10^-400 is 0.0 as a float: every arc would stand still
TINY_WEIGHTS = {"variables": ["x", "y", "z"], "equations": ["x^2+y^2+z^2"], "weights": ["1e-400"] * 3}
HUGE_COEFFICIENT = {"variables": ["x", "y", "z"], "equations": [f"x^2+y^2+{HUGE}*z^2"]}


@pytest.mark.parametrize(
    "data, argv, message",
    [
        (HUGE_WEIGHT, ["foliate", "--samples", "2"], f"germlab: weight {HUGE} is too large for a float\n"),
        (TINY_WEIGHTS, ["foliate", "--samples", "4"],
         f"germlab: weight 1/{HUGE} is too small for a float: it rounds to 0\n"),
        (HUGE_COEFFICIENT, ["foliate", "--samples", "2"], f"germlab: coefficient {HUGE} is too large for a float\n"),
        # the torus search evaluates the face's gradient: 2 * 10^400 * z
        (HUGE_COEFFICIENT, ["newton", "--probabilistic-nnd", "--budget", "5"],
         f"germlab: coefficient 2{HUGE[1:]} is too large for a float\n"),
    ],
    ids=["foliate-weight", "foliate-tiny-weight", "foliate-coefficient", "newton-coefficient"],
)
def test_cli_numeric_commands_reject_values_past_the_float_range(
    capsys, tmp_path, monkeypatch, data, argv, message
):
    # the exact commands take such files; the numeric layer cannot, and
    # foliate says so before it computes the Sigma cloud
    from germlab import foliation

    def no_cloud(*args, **kwargs):
        raise AssertionError("the Sigma cloud ran")

    monkeypatch.setattr(foliation, "sigma_link_cloud", no_cloud)
    path = write_germ(tmp_path, data)
    csv_path = tmp_path / "arcs.csv"
    argv = [argv[0], str(path), *argv[1:]]
    if argv[0] == "foliate":
        argv += ["--csv", str(csv_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", message)
    assert not csv_path.exists()
    assert run_cli(capsys, "analyze", str(path))[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", fixture_path("a3.json"), "--seed", "-5"],
        ["sigma", fixture_path("a3.json"), "--seed", "-1"],
        ["newton", str(BENCH_GERMS / "bs_6633.json"), "--seed", "-1"],
        ["newton", str(BENCH_GERMS / "bs_6633.json"), "--seed", "-1", "--budget", "5", "--probabilistic-nnd"],
        ["foliate", fixture_path("sphere_cubic.json"), "--seed", "-1"],
        ["milnor", fixture_path("a3.json"), "--seed", "-1"],
    ],
)
def test_cli_negative_seed_is_an_input_error(capsys, tmp_path, argv):
    csv_path = tmp_path / "arcs.csv"
    if argv[0] == "foliate":
        argv = argv + ["--csv", str(csv_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "germlab: --seed must be a non-negative integer\n")
    assert not csv_path.exists()
