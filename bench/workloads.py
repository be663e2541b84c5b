"""The workload ladder: which `germlab` invocations one pass of each workload runs.

Pure data, importable without germlab. Germ files live in ``bench/germs``;
the twelve fixture germs are copies of ``tests/fixtures`` so the ladder's
inputs change only when the benchmark does.
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GERMS_DIR = BENCH_DIR / "germs"
WORK_DIR = ROOT / ".bench_work"

# Goldens cover CLI seeds 0..SEED_CYCLE-1; benchmark seed n runs CLI seed n % SEED_CYCLE.
SEED_CYCLE = 16

FIXTURES = (
    "a1", "a2", "a3", "a4", "a5", "a6", "briancon_speder", "cube",
    "cusp_plane", "quadric_cone_4d", "sphere_cubic", "x2y3z7",
)


def _on_fixtures(*commands: str) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
    return tuple((cmd, germ, ()) for germ in FIXTURES for cmd in commands)


# Each invocation is (command, germ, extra CLI arguments). Every fixture command
# rides on the workload whose layer it exercises, so the 60 fixture calls (with
# the exit-1 paths) are checked on every run without a workload of their own:
# on its own, that ladder of 5-900 ms calls was the noisiest workload measured.
WORKLOADS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    # One big homogenized local standard basis dominates (bs_pert4); no numeric work.
    # `analyze bs_pert4` (as long again as `milnor bs_pert4`) is left out: with it a
    # pass took 34-60 s, too long to repeat 22 times per workload within an hour.
    "local-basis": (
        ("milnor", "bs_6633", ()),
        ("analyze", "bs_6633", ()),
        ("milnor", "bs_pert4", ()),
    ) + _on_fixtures("analyze", "milnor"),
    # Many small and mid-size grevlex bases plus one saturation per Newton face.
    "global-basis": (
        ("sigma", "bs_6633", ()),
        ("newton", "bs_6633", ()),
        ("sigma", "bs_pert4", ()),
        ("newton", "bs_pert4", ()),
        ("sigma", "c3_c", ()),
    ) + _on_fixtures("sigma", "newton"),
    # Link sampling, Sigma clouds and arc deformation; under 1% exact work.
    "foliate-numeric": (
        ("foliate", "c3_a", ("--samples", "200")),
        ("foliate", "c2_a", ("--samples", "200")),
        ("foliate", "sphere_cubic", ("--samples", "200")),
    ) + _on_fixtures("foliate"),
}


def invocation_id(command: str, germ: str, extra: tuple[str, ...]) -> str:
    return " ".join((command, germ) + extra)


def invocation_argv(command: str, germ: str, extra: tuple[str, ...], cli_seed: int, slot: int) -> list[str]:
    """CLI arguments for one invocation. Output paths are relative to the pass's
    working directory and fixed per slot, because `foliate` echoes `csv_path`
    into its report."""
    argv = [command, str(GERMS_DIR / f"{germ}.json"), "--seed", str(cli_seed), "--out", f"report{slot:02d}.json"]
    if command == "foliate":
        argv += ["--csv", f"arcs{slot:02d}.csv"]
    return argv + list(extra)
