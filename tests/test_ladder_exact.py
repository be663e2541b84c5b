"""The exact reports of the benchmark's ladder: the `sigma` invocations of
`global-basis` and every `local-basis` invocation (`analyze`, `milnor`), run
in-process at CLI seed 0 and checked as the benchmark checks them: the
manifest's exit code, the seed-normalised SHA-256 of every report against the
recorded goldens, and every Milnor number against the Milnor-Orlik closed
form.

Reads ``bench/manifest.json`` and ``bench/goldens.json`` and changes
neither; the checks are the benchmark's own (``ladder.observe``,
``harness.failures``)."""

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
EXACT_RUNS = [
    (slot, invocation)
    for slot, invocation in enumerate(WORKLOADS["global-basis"])
    if invocation[0] == "sigma"
] + list(enumerate(WORKLOADS["local-basis"]))


def test_the_ladder_has_fifteen_sigma_and_twenty_seven_local_basis_invocations():
    assert [inv[0] for _, inv in EXACT_RUNS].count("sigma") == 15
    assert len(EXACT_RUNS) == 15 + 27


@pytest.mark.parametrize("slot, invocation", EXACT_RUNS, ids=[invocation_id(*inv) for _, inv in EXACT_RUNS])
def test_exact_report_matches_its_golden(slot, invocation, tmp_path, monkeypatch):
    command, germ, extra = invocation
    monkeypatch.chdir(tmp_path)
    rc = main(invocation_argv(command, germ, extra, CLI_SEED, slot))
    run = {"id": invocation_id(command, germ, extra), "command": command, "germ": germ, "rc": rc, "error": None}
    run.update(ladder.observe(command, slot, CLI_SEED))
    assert harness.failures(run, CLI_SEED) == []
