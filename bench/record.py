"""Record bench/goldens.json from the program as it stands.

For every workload and every CLI seed 0..SEED_CYCLE-1 this runs one pass and
keeps: the seed-normalised SHA-256 of each analyze/sigma/newton/milnor
report (which must come out the same for every seed), and for each foliate
invocation the passed flag, samples obtained, CSV row count and the digest of
the per-row converged flags. It refuses to write when an exit code, a
Milnor number or a residual disagrees with the manifest or the oracle.

    python3 bench/record.py

Re-record only for a change that is meant to alter reports, and say so.
"""

from __future__ import annotations

import json
import sys

import harness
from workloads import BENCH_DIR, SEED_CYCLE, WORKLOADS

FOLIATE_KEYS = ("passed", "obtained", "csv_rows", "converged_sha")


def main() -> int:
    reports: dict[str, set] = {}
    foliate: dict[str, dict[str, dict]] = {}
    problems = []
    with harness.scratch_dir() as work:
        for workload in WORKLOADS:
            for seed in range(SEED_CYCLE):
                result = harness.spawn("--workload", workload, "--cli-seed", str(seed), "--work", str(work / "pass"))
                print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", flush=True)
                for run in result["invocations"]:
                    if run["command"] == "foliate":
                        foliate.setdefault(run["id"], {})[str(seed)] = {k: run[k] for k in FOLIATE_KEYS}
                    else:
                        reports.setdefault(run["id"], set()).add(run["report"])
                    problems += [f"{run['id']} (cli seed {seed}): {msg}" for msg in harness.oracle_failures(run, seed)]
    for inv, digests in reports.items():
        if len(digests) != 1:
            problems.append(f"{inv}: report differs between seeds beyond the seed echo")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    doc = {
        "about": "Recorded by bench/record.py. reports: seed-normalised SHA-256 per invocation "
        "(null where the command exits before writing one). foliate: per CLI seed.",
        "seed_cycle": SEED_CYCLE,
        "reports": {inv: digests.pop() for inv, digests in sorted(reports.items())},
        "foliate": {inv: per_seed for inv, per_seed in sorted(foliate.items())},
    }
    (BENCH_DIR / "goldens.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
