"""germlab benchmark: one workload of the ladder, measured end to end or traced.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Load is a closed loop with one client: each pass runs the workload's
invocations in order through ``germlab.cli.main`` in a fresh Python process,
so every pass pays the import and starts with no cache. Passes repeat until
the next one would end after ``--seconds`` (at least one pass). Benchmark
seed N runs every invocation with ``--seed N % SEED_CYCLE``, the seeds the
goldens cover.

With ``--trace 0`` the run also spawns SETUP_PROBES processes that only
import ``germlab.cli``, and reports the end-to-end metrics: medians over
passes (``setup_s`` over every spawn). With ``--trace 1`` it runs one plain
pass and one traced pass and reports the per-layer metrics of the traced one
plus the tracing overhead (traced minus plain ``wall_s``).

Every invocation is checked: exit code against manifest.json, Milnor numbers
against the Milnor-Orlik closed form, report digests and foliate structure
against goldens.json. Human-readable lines come first; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics. A pass that crashes or cannot import germlab ends the run with exit
code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness
from workloads import SEED_CYCLE, WORKLOADS

SETUP_PROBES = 5

END_TO_END = {"wall_s": "s", "max_invocation_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "report.bytes" else "count"


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    ordered = sorted(values)
    return f"p{100 * (n - 10) // n}={ordered[n - 11]:.4f} (n={n})"


def run_passes(workload: str, cli_seed: int, seconds: float, work) -> list[dict]:
    passes, durations = [], []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(harness.spawn("--workload", workload, "--cli-seed", str(cli_seed), "--work", str(work)))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - started + statistics.median(durations) > seconds:
            return passes


def check(passes: list[dict], cli_seed: int) -> tuple[int, int, list[str]]:
    """Invocations attempted, invocations failed, and what went wrong."""
    attempted, failed, problems = 0, 0, []
    for p in passes:
        for run in p["invocations"]:
            found = harness.failures(run, cli_seed)
            attempted += 1
            failed += bool(found)
            problems += found
    return attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cli_seed = args.seed % SEED_CYCLE

    try:
        with harness.scratch_dir() as work:
            if args.trace:
                plain = harness.spawn("--workload", args.workload, "--cli-seed", str(cli_seed), "--work", str(work))
                traced = harness.spawn("--workload", args.workload, "--cli-seed", str(cli_seed), "--work", str(work),
                                       "--trace")
                passes, setups = [plain, traced], []
            else:
                setups = [harness.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
                passes = run_passes(args.workload, cli_seed, args.seconds, work)
        attempted, failed, problems = check(passes, cli_seed)
    except (harness.PassError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc!r}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: seed {args.seed} (cli seed {cli_seed}), {len(passes)} passes, "
          f"closed loop, 1 client, 1 process per pass")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f} (share of invocations)")
    print("host probe s per pass: " + ", ".join(f"{p['probe_s']:.4f}" for p in passes))

    if args.trace:
        plain, traced = passes
        summary = traced["trace"]
        metrics = dict(summary["metrics"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics["host.probe_s"] = traced["probe_s"]
        print(f"plain wall_s {plain['wall_s']:.4f}, traced {traced['wall_s']:.4f}, "
              f"overhead {metrics['trace.overhead_s']:.4f} s")
        for inv, stats in summary["groebner_stats"].items():
            print(f"stats {inv}: " + ", ".join(f"{k} {v}" for k, v in stats.items()))
        print(f"{'layer':42} {'calls':>8} {'incl s':>10} {'self s':>10}")
        for name, row in summary["layers"].items():
            print(f"{name:42} {row['calls']:8d} {row['s']:10.4f} {row['self_s']:10.4f}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        samples = {
            "wall_s": [p["wall_s"] for p in passes],
            "max_invocation_s": [max(run["seconds"] for run in p["invocations"]) for p in passes],
            "setup_s": setups + [p["setup_s"] for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        for name, values in samples.items():
            print(f"{name:18} median {metrics[name]:.4f} {END_TO_END[name]}, {tail(values)}")
        per_invocation = [run["seconds"] for p in passes for run in p["invocations"]]
        print(f"{'invocation_s':18} median {statistics.median(per_invocation):.4f} s, {tail(per_invocation)}")
        for i, run in enumerate(passes[0]["invocations"]):
            times = [p["invocations"][i]["seconds"] for p in passes]
            print(f"  {run['id']:40} exit {run['rc']!s:>4}  median {statistics.median(times):.4f} s")
        units = END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
