"""The `foliate` invocations of the benchmark's `foliate-numeric` ladder,
run in-process at CLI seed 0 and checked against the recorded goldens: exit
code, `passed`, samples obtained, CSV row count, the digest of the converged
flags, and converged rows above tolerance.  The twelve fixture invocations at
the default sample count and the three at ``--samples 200`` (about 1 s
together) are separate sets.

Reads ``bench/manifest.json`` and ``bench/goldens.json`` and changes
neither; the checks are the benchmark's own (``ladder.observe_foliate``,
``harness.failures``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from germlab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # noqa: E402
import ladder  # noqa: E402
from workloads import FIXTURES, WORKLOADS, invocation_argv, invocation_id  # noqa: E402

CLI_SEED = 0
FOLIATE_RUNS = [
    (slot, invocation)
    for slot, invocation in enumerate(WORKLOADS["foliate-numeric"])
    if invocation[1] in FIXTURES and not invocation[2]  # at the default sample count
]
LARGE_FOLIATE_RUNS = [
    (slot, invocation)
    for slot, invocation in enumerate(WORKLOADS["foliate-numeric"])
    if invocation[2]  # at --samples 200
]


def _failures(slot, invocation, tmp_path, monkeypatch):
    command, germ, extra = invocation
    monkeypatch.chdir(tmp_path)
    rc = main(invocation_argv(command, germ, extra, CLI_SEED, slot))
    run = {"id": invocation_id(command, germ, extra), "command": command, "germ": germ, "rc": rc, "error": None}
    report = tmp_path / f"report{slot:02d}.json"
    if report.exists():
        run.update(ladder.observe_foliate(json.loads(report.read_text()), f"arcs{slot:02d}.csv"))
    return harness.failures(run, CLI_SEED)


def test_the_ladder_has_twelve_fixture_foliate_invocations():
    assert len(FOLIATE_RUNS) == 12


@pytest.mark.parametrize("slot, invocation", FOLIATE_RUNS, ids=[invocation_id(*inv) for _, inv in FOLIATE_RUNS])
def test_foliate_run_matches_its_golden(slot, invocation, tmp_path, monkeypatch):
    assert _failures(slot, invocation, tmp_path, monkeypatch) == []


def test_the_ladder_has_three_large_foliate_invocations():
    assert [invocation[1] for _, invocation in LARGE_FOLIATE_RUNS] == ["c3_a", "c2_a", "sphere_cubic"]


@pytest.mark.parametrize(
    "slot, invocation", LARGE_FOLIATE_RUNS, ids=[invocation_id(*inv) for _, inv in LARGE_FOLIATE_RUNS]
)
def test_large_foliate_run_matches_its_golden(slot, invocation, tmp_path, monkeypatch):
    assert _failures(slot, invocation, tmp_path, monkeypatch) == []
