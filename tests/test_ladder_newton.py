"""The `newton` invocations of the benchmark's `global-basis` ladder, run
in-process at CLI seed 0 and checked against the recorded goldens: the
manifest's exit code and the seed-normalised SHA-256 of every report.

Reads ``bench/manifest.json`` and ``bench/goldens.json`` and changes
neither; the checks are the benchmark's own (``harness.expected_exit``,
``ladder.report_digest``).  On the convenient ones, a face's index is
checked to name the same face in the analysis and in the report.  Four
`newton --probabilistic-nnd` runs, which the goldens do not cover, are
checked against digests kept in this file."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from germlab.cli import main
from germlab.germ import Budget, analyze_newton
from germlab.germfile import load_raw, read_germ_file
from germlab.report import newton_body

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # noqa: E402
import ladder  # noqa: E402
from workloads import GERMS_DIR, WORKLOADS, invocation_argv, invocation_id  # noqa: E402

CLI_SEED = 0
NEWTON_RUNS = [
    (slot, invocation)
    for slot, invocation in enumerate(WORKLOADS["global-basis"])
    if invocation[0] == "newton"
]


def test_the_ladder_has_fourteen_newton_invocations():
    assert len(NEWTON_RUNS) == 14


@pytest.mark.parametrize("slot, invocation", NEWTON_RUNS, ids=[invocation_id(*inv) for _, inv in NEWTON_RUNS])
def test_newton_report_matches_its_golden(slot, invocation, tmp_path, monkeypatch):
    command, germ, extra = invocation
    monkeypatch.chdir(tmp_path)
    rc = main(invocation_argv(command, germ, extra, CLI_SEED, slot))
    assert rc == harness.expected_exit(germ, command, CLI_SEED)
    report = tmp_path / f"report{slot:02d}.json"
    digest = ladder.report_digest(report.read_bytes(), CLI_SEED) if report.exists() else None
    assert digest == harness.goldens()["reports"][invocation_id(command, germ, extra)]


# `newton --probabilistic-nnd --budget 5`: the budget runs out on most faces,
# which the torus search then decides.  The goldens have no such run; these
# seed-normalised digests were recorded from the sequential search, one start
# at a time, that the lockstep one replaced.
PROBABILISTIC_DIGESTS = {
    ("bs_pert4", 0): "4f2d5a8ab54c273b0259f089615417bd93d0481fd3dd3755cda9b48c7d3fb465",
    ("bs_pert4", 3): "4f2d5a8ab54c273b0259f089615417bd93d0481fd3dd3755cda9b48c7d3fb465",
    ("bs_6633", 0): "d591254f69280df6f6d9571e0d6b4b097aa536f1bf523253fd58af85305aeb60",
    ("bs_6633", 3): "d591254f69280df6f6d9571e0d6b4b097aa536f1bf523253fd58af85305aeb60",
}


@pytest.mark.parametrize("germ, cli_seed", PROBABILISTIC_DIGESTS, ids=[f"{g}-seed{s}" for g, s in PROBABILISTIC_DIGESTS])
def test_probabilistic_newton_report_matches_its_digest(germ, cli_seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = invocation_argv("newton", germ, ("--probabilistic-nnd", "--budget", "5"), cli_seed, 0)
    assert main(argv) == 0
    digest = ladder.report_digest((tmp_path / "report00.json").read_bytes(), cli_seed)
    assert digest == PROBABILISTIC_DIGESTS[germ, cli_seed]


def _assert_face_indices_agree(raw, analysis):
    # diagram.faces lists the top faces first, so FaceVerdict k, the report's
    # nondegeneracy.per_face[k] and newton.faces[k] all speak of faces[k]
    diagram, nnd = analysis.diagram, analysis.nondegeneracy
    tops = diagram.top_faces()
    assert list(diagram.faces[: len(tops)]) == tops
    assert len(nnd.statuses) == len(nnd.methods) == len(diagram.faces)
    assert [v.face_index for v in analysis.face_verdicts] == list(range(len(tops)))
    body = newton_body(raw, analysis)["newton"]
    assert [row["face"] for row in body["nondegeneracy"]["per_face"]] == list(range(len(diagram.faces)))
    for k, face in enumerate(diagram.faces):
        row = body["nondegeneracy"]["per_face"][k]
        assert (row["status"], row["method"]) == (nnd.statuses[k], nnd.methods[k])
        assert body["faces"][k]["vertices"] == [list(v) for v in face.vertices]
        assert body["faces"][k]["is_top"] is (k < len(tops))
    for k, verdict in enumerate(analysis.face_verdicts):
        assert verdict.sorted_weights == tuple(sorted(diagram.faces[k].weights))
        assert body["face_verdicts"][k]["face_index"] == k
        if nnd.statuses[k] != "nondegenerate":
            assert verdict.evidence == f"face nondegeneracy is {nnd.statuses[k]}"


# the ladder's newton germs with a convenient diagram in 3 or more variables
CONVENIENT = ("bs_6633", "bs_pert4", "a1", "a2", "a3", "a4", "a5", "a6", "cube", "sphere_cubic", "x2y3z7")


@pytest.mark.parametrize("germ", CONVENIENT)
def test_a_face_index_names_the_same_face_everywhere(germ):
    raw = load_raw(read_germ_file(GERMS_DIR / f"{germ}.json"))
    _assert_face_indices_agree(raw, analyze_newton(raw.equations[0], Budget(), False, CLI_SEED))


@pytest.mark.parametrize("limit, statuses", [(None, ["certificate", "certificate"]), (2, ["certificate", "unchecked"])])
def test_face_indices_agree_with_two_top_faces(limit, statuses):
    # every ladder germ has one top face; this one has two, and 2 steps
    # settle the first one's nondegeneracy but not the second one's
    raw = load_raw({"variables": ["x", "y", "z"], "equations": ["x^2 + z^6 + y^3*z + y^5"]})
    analysis = analyze_newton(raw.equations[0], Budget() if limit is None else Budget(limit), False, CLI_SEED)
    assert [v.status for v in analysis.face_verdicts] == statuses
    _assert_face_indices_agree(raw, analysis)
