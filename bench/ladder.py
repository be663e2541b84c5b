"""One pass of a workload in a fresh Python process.

Imports ``germlab.cli``, runs the workload's invocations in order through
``germlab.cli.main`` (the console-script entry point), then reads back what
each invocation wrote. Checking the observations against the manifest and
the goldens is left to the caller (``run.py`` or ``record.py``).

    python3 bench/ladder.py --spawned-at T --setup-only
    python3 bench/ladder.py --spawned-at T --workload W --cli-seed S --work DIR [--trace]

``T`` is the caller's ``time.monotonic()`` just before the spawn; the clock
is system-wide, so ``setup_s`` spans interpreter start-up and the import.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import ROOT, WORK_DIR, WORKLOADS, invocation_argv, invocation_id

# Deformed-arc rows count as converged only at the solver's Newton tolerance;
# reference arcs (epsilon = 0) carry their link sample's residual, which the
# link sampler accepts up to the link tolerance.
NEWTON_TOLERANCE = 1e-11
LINK_TOLERANCE = 1e-10

PROBE_ITERATIONS = 1_000_000


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: shows host-speed drift beside each
    pass. Never used to normalise a metric."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - started
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def report_digest(text: bytes, cli_seed: int) -> str:
    """SHA-256 of a report with its seed echo rewritten to seed 0. The exact
    reports depend on the seed only through this echo, so one digest per
    invocation serves every seed; any other byte change alters it."""
    echo = '"seeds": {\n    "root": %d\n  }' % cli_seed
    if text.count(echo.encode()) != 1:
        return "seed echo missing"
    return hashlib.sha256(text.replace(echo.encode(), b'"seeds": {\n    "root": 0\n  }')).hexdigest()


def observe_foliate(report: dict, csv_name: str) -> dict:
    body = report["foliate"]
    flags = []
    bad_residuals = 0
    if os.path.exists(csv_name):
        with open(csv_name, newline="") as handle:
            rows = csv.DictReader(handle)
            for row in rows:
                converged = row["converged"] == "1"
                flags.append("1" if converged else "0")
                reference = float(row["epsilon_re"]) == 0.0 and float(row["epsilon_im"]) == 0.0
                limit = LINK_TOLERANCE if reference else NEWTON_TOLERANCE
                if converged and not float(row["residual"]) <= limit:
                    bad_residuals += 1
    return {
        "passed": body["passed"],
        "obtained": body["samples"]["obtained"],
        "csv_rows": len(flags),
        "converged_sha": hashlib.sha256("".join(flags).encode()).hexdigest(),
        "bad_residuals": bad_residuals,
    }


def observe(command: str, slot: int, cli_seed: int) -> dict:
    path = f"report{slot:02d}.json"
    if not os.path.exists(path):
        return {"report": None}
    with open(path, "rb") as handle:
        text = handle.read()
    if command == "foliate":
        return observe_foliate(json.loads(text), f"arcs{slot:02d}.csv")
    obs = {"report": report_digest(text, cli_seed)}
    if command == "milnor":
        obs["mu"] = json.loads(text)["milnor"]["milnor_number"]
    return obs


def run_pass(cli_main, workload: str, cli_seed: int, work: Path, tracer) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    sink = io.StringIO()
    runs = []
    started = time.perf_counter()
    for slot, (command, germ, extra) in enumerate(WORKLOADS[workload]):
        inv = invocation_id(command, germ, extra)
        argv = invocation_argv(command, germ, extra, cli_seed, slot)
        if tracer is not None:
            tracer.invocation = inv
        error = None
        t0 = time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                rc = cli_main(argv)
            except Exception:  # a traceback is a failed invocation, not a failed pass
                rc, error = None, traceback.format_exc(limit=3)
        runs.append({"id": inv, "command": command, "germ": germ, "rc": rc,
                     "seconds": time.perf_counter() - t0, "error": error})
        sink.seek(0)
        sink.truncate()
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "invocations": runs}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(wall)
        tracer.write_spans(WORK_DIR / f"spans-{workload}.json")
    for slot, run in enumerate(runs):
        run.update(observe(run["command"], slot, cli_seed))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--cli-seed", type=int, default=0)
    parser.add_argument("--work", type=Path, help="scratch directory for the pass's reports and CSVs")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import germlab
    from germlab.cli import main as cli_main

    if Path(germlab.__file__).resolve().parent != ROOT / "src" / "germlab":
        raise SystemExit(f"germlab was imported from {germlab.__file__}, not from this checkout's src/")

    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        if args.workload is None or args.work is None:
            parser.error("--workload and --work are required unless --setup-only")
        result["probe_s"] = host_probe()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result.update(run_pass(cli_main, args.workload, args.cli_seed, args.work, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
