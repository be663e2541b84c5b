"""Command line front end.

Five subcommands over JSON germ files:

``analyze``   hypothesis ledger + fast-cycle verdict for a weighted germ
``sigma``     the obstruction locus of the principal part
``newton``    diagram route for a single hypersurface equation
``foliate``   numerically deform the weighted foliation and check it
``milnor``    Milnor number of one isolated hypersurface singularity (from the
              weighted initial form when that is isolated, else a local
              standard basis)

Every run ends in one of the documented exit codes:

* ``0``  success (no obstruction / silent diagram / checks passed / value
  computed — for ``milnor`` this includes the honest "non-isolated" answer)
* ``10`` a certificate fired (``analyze``: fast cycle found; ``newton``:
  some face certifies)
* ``20`` undetermined (``analyze``: hypotheses unverified; ``sigma``: a
  component hit its budget; ``foliate``: checks failed or too few samples
  converged; ``milnor``: budget exhausted)
* ``1``  input error (bad file, bad polynomial, bad flag value)

Reports are byte-identical across runs for a fixed input and ``--seed``;
the opt-in ``--timing`` flag is the one switch that breaks that, by filling
``timing_seconds`` with a wall-clock value."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

# One OpenBLAS thread: the linear systems germlab solves are small, and
# starting OpenBLAS's thread pool costs about as much as the rest of numpy's
# import.  OpenBLAS reads the variable once, when numpy loads, so this must
# run before anything imports numpy; this module, `import germlab` and the
# exact layers never do (`foliate` imports the numeric layer when it runs).
# A value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from germlab import report as _report
from germlab.germ import Budget, analyze, analyze_newton, sigma
from germlab.germfile import GermFileError, load_raw, load_system, read_germ_file
from germlab.groebner import BudgetExhausted, milnor_number
from germlab.parse import ParseError

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CERTIFICATE = 10
EXIT_UNDETERMINED = 20

_VERDICT_EXIT = {
    "NO_OBSTRUCTION_FOUND": EXIT_OK,
    "FAST_CYCLE_FOUND": EXIT_CERTIFICATE,
    "HYPOTHESES_UNVERIFIED": EXIT_UNDETERMINED,
}

DEFAULT_EPSILON = Fraction(1, 2)
# the default |epsilon| of same-order families, and the largest one foliate
# takes for them without a note: the deformation's convergence radius can
# shrink to zero there
SAME_ORDER_EPSILON = Fraction(1, 10)
DEFAULT_SAMPLES = 50
DEFAULT_CSV = "germlab_arcs.csv"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract reserves 1
    for every input problem, so route usage errors there."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser as it was; main runs many times a process
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="germlab",
        description="fast-cycle obstructions and deformed weighted foliations for polynomial germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="JSON germ file")
        p.add_argument("--out", metavar="PATH", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="non-negative root seed for every randomized step (default 0)")
        p.add_argument("--budget", type=int, default=None, metavar="N", help="step budget for exact computations")
        p.add_argument("--timing", action="store_true", help="record wall-clock seconds (breaks byte-reproducibility)")

    p_analyze = sub.add_parser("analyze", help="hypothesis ledger and fast-cycle verdict")
    common(p_analyze)
    p_analyze.add_argument(
        "--assume-milnor-fibre",
        action="store_true",
        help="assert the generic-section-is-Milnor-fibre hypothesis instead of verifying it",
    )
    p_analyze.add_argument(
        "--assume-noncontractible-component",
        action="store_true",
        help="assert a non-contractible section component (surface branch)",
    )
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_sigma = sub.add_parser("sigma", help="obstruction locus of the principal part")
    common(p_sigma)
    p_sigma.set_defaults(handler=_cmd_sigma)

    p_newton = sub.add_parser("newton", help="Newton-diagram route for one equation")
    common(p_newton)
    p_newton.add_argument(
        "--probabilistic-nnd",
        action="store_true",
        help="fall back to a random torus search when exact nondegeneracy exhausts its budget",
    )
    p_newton.set_defaults(handler=_cmd_newton)

    p_foliate = sub.add_parser("foliate", help="deform the weighted foliation and check it")
    common(p_foliate)
    p_foliate.add_argument(
        "--epsilon",
        metavar="a/b",
        default=None,
        help="deformation scale as an exact rational (default 1/2; 1/10 for same-order families)",
    )
    p_foliate.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, metavar="N", help=f"link samples to deform (default {DEFAULT_SAMPLES})"
    )
    p_foliate.add_argument(
        "--csv", metavar="PATH", default=DEFAULT_CSV, help=f"arc CSV destination (default {DEFAULT_CSV})"
    )
    p_foliate.set_defaults(handler=_cmd_foliate)

    p_milnor = sub.add_parser("milnor", help="Milnor number of one hypersurface equation")
    common(p_milnor)
    p_milnor.set_defaults(handler=_cmd_milnor)

    return parser


def _budget(args) -> Budget:
    """The run's one step budget: ``--budget N`` steps, else the default."""
    if args.budget is None:
        return Budget()
    if args.budget <= 0:
        raise GermFileError("--budget must be a positive step count")
    return Budget(args.budget)


def _run(args) -> int:
    """Read the germ file, run the command's handler on it, and write its
    report to ``--out`` or stdout; returns the handler's exit code."""
    if args.seed < 0:
        raise GermFileError("--seed must be a non-negative integer")
    started = time.perf_counter()
    data = read_germ_file(args.file)
    body, code = args.handler(args, data)
    elapsed = (time.perf_counter() - started) if args.timing else None
    text = _report.render(_report.document(args.command, data, args.seed, elapsed, body))
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


@contextmanager
def _warnings_as_notes(notes: list[str]):
    """Numeric warnings (e.g. float overflow on huge exponents) raised in the
    block become report notes, one per distinct message, instead of stderr
    lines; "always" keeps the capture independent of what this process has
    already warned about."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    notes.extend(dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught))


def _cmd_analyze(args, data: dict) -> tuple[dict, int]:
    loaded = load_system(data)
    assumptions = set(loaded.assumptions)
    if args.assume_milnor_fibre:
        assumptions.add("milnor-fibre")
    if args.assume_noncontractible_component:
        assumptions.add("noncontractible-component")
    result = analyze(loaded.system, frozenset(assumptions), seed=args.seed, budget=_budget(args))
    return _report.analysis_body(loaded, result, assumptions), _VERDICT_EXIT[result.verdict]


def _cmd_sigma(args, data: dict) -> tuple[dict, int]:
    loaded = load_system(data)
    locus = sigma(loaded.system, budget=_budget(args))
    undetermined = any(comp.status != "computed" for comp in locus.components)
    return _report.sigma_body(loaded, locus), EXIT_UNDETERMINED if undetermined else EXIT_OK


def _single_equation(raw, route: str):
    if len(raw.equations) != 1:
        raise GermFileError(f"the {route} route needs exactly one equation (got {len(raw.equations)})")
    return raw.equations[0]


def _cmd_newton(args, data: dict) -> tuple[dict, int]:
    raw = load_raw(data)
    f = _single_equation(raw, "Newton")
    notes: list[str] = []
    with _warnings_as_notes(notes):
        analysis = analyze_newton(f, budget=_budget(args), probabilistic=args.probabilistic_nnd, seed=args.seed)
    analysis.notes.extend(notes)
    return _report.newton_body(raw, analysis), EXIT_CERTIFICATE if analysis.any_certificate else EXIT_OK


def _check_float(label: str, value: Fraction) -> None:
    """The arcs are solved in floats: the nonzero ``value`` must neither
    overflow nor round to 0 in the conversion."""
    try:
        rounded = float(value)
    except OverflowError:
        raise GermFileError(f"{label} is too large for a float") from None
    if rounded == 0:
        raise GermFileError(f"{label} is too small for a float: it rounds to 0")


def _parse_epsilon(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GermFileError(f"--epsilon must be a rational like 1/2 (got {text!r}): {exc}") from None
    if value == 0:
        raise GermFileError("--epsilon must be nonzero (the unperturbed arcs are always computed alongside)")
    _check_float(f"--epsilon {text}", value)
    return value


def _check_floats(system) -> None:
    """The weights, the degrees and every coefficient must survive the
    conversion to floats."""
    for name, values in (("weight", system.weights), ("degree", system.degrees)):
        for value in values:
            _check_float(f"{name} {value}", value)
    system.evaluators  # compiling the coefficients raises ValueError on one past the float range


def _cmd_foliate(args, data: dict) -> tuple[dict, int]:
    # the numeric layer, and numpy with it, loads only for this command
    from germlab.foliation import (
        FoliationReport,
        sample_link,
        sigma_link_cloud,
        verify_foliation,
        write_arc_csv,
    )

    loaded = load_system(data)
    system = loaded.system
    same_order = system.is_same_order()
    notes: list[str] = []
    if args.epsilon is not None:
        epsilon = _parse_epsilon(args.epsilon)
        cap = float(SAME_ORDER_EPSILON)
        if same_order and abs(epsilon) > cap:
            notes.append(
                f"epsilon = {epsilon} exceeds the same-order cap {cap}; "
                "the deformation's convergence radius can shrink to zero"
            )
    else:
        epsilon = SAME_ORDER_EPSILON if same_order else DEFAULT_EPSILON
    if args.samples < 2:
        raise GermFileError("--samples must be at least 2 (the checks compare pairs of arcs)")
    _check_floats(system)

    budget = _budget(args)
    with _warnings_as_notes(notes):
        cloud = sigma_link_cloud(system, seed=args.seed, budget=budget)
        samples = sample_link(system, args.samples, args.seed, sigma_cloud=cloud)
        if len(samples) < 2:
            result = FoliationReport(
                passed=False,
                failures=(f"only {len(samples)} of {args.samples} link samples were found; need at least 2",),
                dichotomy=(),
                min_separation=math.inf,
                separation_ok=False,
                coordinate_planes_ok=False,
                converged_fraction=0.0,
                arcs=(),
                reference_arcs=(),
            )
        else:
            result = verify_foliation(system, complex(epsilon), samples, seed=args.seed)
    csv_path = None
    if result.arcs:
        write_arc_csv(args.csv, tuple(result.arcs) + tuple(result.reference_arcs), args.seed)
        csv_path = args.csv
    body = _report.foliate_body(loaded, result, epsilon, args.samples, csv_path, notes)
    return body, EXIT_OK if result.passed else EXIT_UNDETERMINED


def _cmd_milnor(args, data: dict) -> tuple[dict, int]:
    raw = load_raw(data)
    mu = milnor_number(_single_equation(raw, "Milnor-number"), budget=_budget(args))
    return _report.milnor_body(raw, mu), EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and -h
        return int(exc.code or 0)
    try:
        return _run(args)
    except BudgetExhausted as exc:
        print(f"germlab: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except (GermFileError, ParseError, ValueError, OSError) as exc:
        print(f"germlab: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
