"""The `newton` invocations of the benchmark's `global-basis` ladder, run
in-process at CLI seed 0 and checked against the recorded goldens: the
manifest's exit code and the seed-normalised SHA-256 of every report.

Reads ``bench/manifest.json`` and ``bench/goldens.json`` and changes
neither; the checks are the benchmark's own (``harness.expected_exit``,
``ladder.report_digest``)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from germlab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # noqa: E402
import ladder  # noqa: E402
from workloads import WORKLOADS, invocation_argv, invocation_id  # noqa: E402

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
