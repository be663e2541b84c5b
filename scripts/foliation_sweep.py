#!/usr/bin/env python3
"""Sweep the deformation scale and watch the foliation settle.

For a germ file (default: the round sphere x^2+y^2+z^2 perturbed by z^3),
the script runs the full property check at a range of epsilon values and
tabulates, per scale: the fraction of arcs that converge on the whole
t-grid, the minimal pairwise arc separation, the worst contact order of a
deformed arc against its weighted-homogeneous reference, and the overall
pass/fail.  As epsilon shrinks the deformed foliation converges to the
weighted-homogeneous one; the contact-order column should hold steady at
1 + delta/w_N while the deviation scale drops.

Run:  python3 scripts/foliation_sweep.py [germ.json] [--samples N] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from germlab.foliation import sample_link, sigma_link_cloud, tangency_exponent, verify_foliation
from germlab.germfile import load_system
from germlab.groebner import Budget

DEFAULT_GERM = {
    "variables": ["x", "y", "z"],
    "split": {"principal": ["x^2 + y^2 + z^2"], "perturbation": ["z^3"]},
    "weights": ["1/2", "1/2", "1/2"],
}

SWEEP = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
SAME_ORDER_SWEEP = [Fraction(1, 12), Fraction(1, 24), Fraction(1, 48), Fraction(1, 96)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("germ", nargs="?", help="JSON germ file (optional)")
    parser.add_argument("--samples", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.germ:
        data = json.loads(Path(args.germ).read_text())
    else:
        data = DEFAULT_GERM
        print("no germ file given; sweeping the built-in perturbed sphere\n")
    loaded = load_system(data)
    system = loaded.system

    cloud = sigma_link_cloud(system, seed=args.seed, budget=Budget())
    samples = sample_link(system, args.samples, seed=args.seed, sigma_cloud=cloud)
    if len(samples) < 2:
        print(f"only {len(samples)} link samples found; nothing to sweep", file=sys.stderr)
        return 1

    sweep = SAME_ORDER_SWEEP if system.is_same_order() else SWEEP
    if system.is_same_order():
        print("same-order family: sweeping below the epsilon cap 0.1\n")

    header = f"{'epsilon':>10} {'converged':>10} {'min sep':>10} {'worst contact':>14} {'passed':>7}"
    print(header)
    print("-" * len(header))
    for eps in sweep:
        report = verify_foliation(system, float(eps), samples, seed=args.seed)
        # each fully converged arc against its reference, in one batch fit
        arcs = report.arcs + report.reference_arcs
        full = [i for i, arc in enumerate(report.arcs) if all(arc.converged)]
        fits = tangency_exponent(
            np.array([arc.points for arc in arcs]),
            np.array([arc.converged for arc in arcs]),
            np.array([(i, len(report.arcs) + i) for i in full], dtype=int).reshape(-1, 2),
        )
        for fit in fits:
            if isinstance(fit, ValueError):
                raise fit
        worst = min((fit.alpha for fit in fits), default=float("inf"))
        worst_text = f"{worst:.3f}" if worst != float("inf") else "-"
        print(
            f"{str(eps):>10} {report.converged_fraction:>10.2f} "
            f"{report.min_separation:>10.3f} {worst_text:>14} "
            f"{'yes' if report.passed else 'NO':>7}"
        )
        for failure in report.failures:
            print(f"           ! {failure}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
