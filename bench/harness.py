"""Shared by run.py and record.py: spawning pass processes and checking what
each invocation produced against the manifest, the Milnor-Orlik oracle and
the recorded goldens."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path

from workloads import BENCH_DIR, GERMS_DIR, ROOT, WORK_DIR

CHILD_TIMEOUT_S = 170


class PassError(RuntimeError):
    """A pass process died or printed no result."""


def spawn(*args: str) -> dict:
    """Run bench/ladder.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "ladder.py"), "--spawned-at", repr(time.monotonic()), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{' '.join(args) or 'pass'} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


@contextmanager
def scratch_dir():
    """A private directory under .bench_work for one caller's passes."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@cache
def manifest() -> dict:
    return json.loads((BENCH_DIR / "manifest.json").read_text())


@cache
def goldens() -> dict:
    return json.loads((BENCH_DIR / "goldens.json").read_text())


def _monomials(text: str, variables: list[str]) -> list[tuple[int, ...]]:
    """Exponent vectors of a sum of monomials such as ``x^3*y*z - 2*w``."""
    out = []
    for term in re.findall(r"[^+-]+", text):
        exps = [0] * len(variables)
        for factor in term.strip().split("*"):
            name, _, power = factor.strip().partition("^")
            if name.isdigit():
                continue
            exps[variables.index(name)] += int(power or 1)
        out.append(tuple(exps))
    return out


@cache
def milnor_orlik(germ: str) -> int | None:
    """mu = prod(d/w_i - 1) for a single weighted-homogeneous equation
    (Milnor-Orlik 1970), from the germ file's weights, or, where the file has
    none, from the pure power x_i^a_i of each variable (w_i = 1/a_i, d = 1).
    None for systems of several equations."""
    data = json.loads((GERMS_DIR / f"{germ}.json").read_text())
    equations = data["split"]["principal"] if "split" in data else data["equations"]
    if len(equations) != 1:
        return None
    variables = data["variables"]
    monos = _monomials(equations[0], variables)
    if "weights" in data:
        weights = [Fraction(w) for w in data["weights"]]
    else:
        weights = []
        for j in range(len(variables)):
            pure = [m[j] for m in monos if m[j] and sum(m) == m[j]]
            weights.append(Fraction(1, pure[0]))
    degrees = {sum(e * w for e, w in zip(m, weights)) for m in monos}
    if len(degrees) != 1:
        raise ValueError(f"{germ}: principal part is not weighted-homogeneous")
    (d,) = degrees
    mu = Fraction(1)
    for w in weights:
        mu *= d / w - 1
    if mu.denominator != 1:
        raise ValueError(f"{germ}: Milnor-Orlik product {mu} is not an integer")
    return int(mu)


def expected_exit(germ: str, command: str, cli_seed: int) -> int:
    """The manifest's exit code; an entry may list seeds that differ from its default."""
    entry = manifest()["exit"][germ][command]
    return entry.get(str(cli_seed), entry["default"]) if isinstance(entry, dict) else entry


def oracle_failures(run: dict, cli_seed: int) -> list[str]:
    """How one invocation disagrees with the manifest and the oracles."""
    command, germ = run["command"], run["germ"]
    out = []
    if run["error"]:
        out.append(f"traceback: {run['error'].strip().splitlines()[-1]}")
    expected_rc = expected_exit(germ, command, cli_seed)
    if run["rc"] != expected_rc:
        out.append(f"exit {run['rc']}, expected {expected_rc}")
    if command == "milnor":
        oracle = milnor_orlik(germ)
        if oracle != manifest()["milnor_orlik_mu"][germ]:
            out.append(f"Milnor-Orlik {oracle} disagrees with the manifest's {manifest()['milnor_orlik_mu'][germ]}")
        if run.get("mu") != oracle:
            out.append(f"mu {run.get('mu')}, Milnor-Orlik gives {oracle}")
    if command == "foliate":
        if run.get("bad_residuals"):
            out.append(f"{run['bad_residuals']} converged rows above tolerance")
        if run.get("passed") != (run["rc"] == 0):
            out.append("passed flag disagrees with the exit code")
    return out


def golden_failures(run: dict, cli_seed: int) -> list[str]:
    """How one invocation's output differs from the recorded goldens."""
    inv = run["id"]
    if run["command"] != "foliate":
        want = goldens()["reports"][inv]
        return [] if run["report"] == want else [f"report digest {run['report']}, golden {want}"]
    golden = goldens()["foliate"][inv][str(cli_seed)]
    return [f"{key} {run.get(key)!r}, golden {want!r}" for key, want in golden.items() if run.get(key) != want]


def failures(run: dict, cli_seed: int) -> list[str]:
    found = oracle_failures(run, cli_seed) + golden_failures(run, cli_seed)
    return [f"{run['id']} (cli seed {cli_seed}): {msg}" for msg in found]
