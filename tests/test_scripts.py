"""Smoke checks: the example scripts under ``scripts/`` run to completion.

Both drive the foliation API end to end (link sampling, Sigma clouds, arc
deformation), so a change there that breaks a script fails here."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import germlab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["briancon_speder_sigma.py"], ["foliation_sweep.py", "--samples", "6"]],
    ids=["briancon_speder_sigma", "foliation_sweep"],
)
def test_script_runs(argv):
    env = dict(os.environ)
    package_root = str(Path(germlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
