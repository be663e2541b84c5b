"""The ``--budget`` grid, pinned: every ``bench/germs`` germ under ``analyze``,
``sigma``, ``newton``, ``newton --probabilistic-nnd`` and ``milnor``, with no
budget and with budgets 5, 50, 200, 1000 and 3000, at seed 0 (504 runs;
``analyze c3_c`` is left out, it runs for minutes).  Each run goes through
``germlab.cli.main`` in-process, and its exit code, stderr text and the
SHA-256 of its stdout must equal the ones in ``budget_grid.json``, so a
change to what a budget charges, or to any report, shows here.

Re-record the goldens from the repository root, only for a change that is
meant to move them:

    PYTHONPATH=src python3 tests/test_budget_grid.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from germlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).with_name("budget_grid.json")
COMMANDS = (["analyze"], ["sigma"], ["newton"], ["newton", "--probabilistic-nnd"], ["milnor"])
BUDGETS = (None, 5, 50, 200, 1000, 3000)


def grid() -> list[list[str]]:
    """The argv of every run, germ paths relative to the repository root."""
    runs = []
    for germ in sorted(p.name for p in (ROOT / "bench" / "germs").glob("*.json")):
        for command in COMMANDS:
            if command == ["analyze"] and germ == "c3_c.json":
                continue
            for budget in BUDGETS:
                limit = [] if budget is None else ["--budget", str(budget)]
                runs.append([command[0], f"bench/germs/{germ}", *command[1:], *limit])
    return runs


def run_grid() -> list[dict]:
    """One record per run: argv, exit code, stderr and stdout's SHA-256."""
    records = []
    with contextlib.chdir(ROOT):
        for argv in grid():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            records.append({
                "argv": argv,
                "exit": code,
                "stderr": err.getvalue(),
                "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            })
    return records


def test_budget_grid_matches_the_goldens():
    want = json.loads(GOLDENS.read_text())
    got = run_grid()
    assert len(got) == len(want) == 504
    changed = [" ".join(g["argv"]) for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} of {len(got)} runs changed, first: {changed[:5]}"


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(run_grid(), indent=1) + "\n")
