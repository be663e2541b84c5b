#!/usr/bin/env python3
"""Walk through the z^5 + x^15 + x*y^7 + eps*y^6*z family end to end.

This is the classic mu-constant family whose total space is not metrically
conical: the weighted-homogeneous criterion is silent on it (the
perturbation has the same weighted order as the principal part), but the
obstruction locus is positive-dimensional and the deformed-foliation solver
visibly loses convergence near it.  The script prints, in order:

  1. the weight data and the same-order diagnosis,
  2. the obstruction locus Sigma, component by component,
  3. the analyzer's hypothesis ledger and verdict,
  4. a small arc experiment contrasting a link sample far from Sigma with
     one close to it.

Run:  python3 scripts/briancon_speder_sigma.py [--seed N] [--epsilon A/B]
"""

from __future__ import annotations

import argparse
from fractions import Fraction

import numpy as np

from germlab.foliation import LinkSample, deform_arc, sample_link, sigma_link_cloud
from germlab.germ import analyze, germ_system, sigma
from germlab.groebner import Budget
from germlab.parse import parse_poly, poly_to_string


def build_system():
    variables = ["x", "y", "z"]
    return germ_system(
        variables,
        [parse_poly("z^5 + x^15 + x*y^7", variables)],
        [parse_poly("z*y^6", variables)],
        [Fraction(1, 15), Fraction(2, 15), Fraction(3, 15)],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--epsilon",
        default="1/10",
        help="deformation scale as a rational (default 1/10)",
    )
    args = parser.parse_args()
    epsilon = float(Fraction(args.epsilon))

    system = build_system()
    names = list(system.variables)
    budget = Budget()  # one step cap for every exact computation below

    print("weights:", ", ".join(f"{v} -> {w}" for v, w in zip(names, system.weights)))
    print("weight blocks end at positions:", list(system.breakpoints))
    print("same-order perturbation:", system.is_same_order())
    print()

    print("obstruction locus Sigma:")
    locus = sigma(system, budget)
    for comp in locus.components:
        basis = (
            ", ".join(poly_to_string(g, names) for g in comp.basis.generators)
            if comp.basis is not None
            else "-"
        )
        print(f"  {comp.label}: dim {comp.dimension} ({comp.status}); basis [{basis}]")
    print(f"  total dim {locus.total_dim}; origin only: {locus.is_origin_only}")
    print()

    print("analyzer verdict:")
    report = analyze(system, frozenset(), args.seed, budget)
    for entry in report.hypothesis_ledger:
        print(f"  ({entry.key}) {entry.status}: {entry.statement}")
    print(f"  -> {report.verdict}")
    for note in report.notes:
        print(f"  note: {note}")
    print()

    print(f"arc experiment at epsilon = {args.epsilon}:")
    cloud = sigma_link_cloud(system, seed=args.seed, budget=budget)
    samples = sample_link(system, 12, seed=args.seed, sigma_cloud=cloud)
    samples.sort(key=lambda s: s.distance_to_sigma)
    for tag, sample in (("nearest", samples[0]), ("farthest", samples[-1])):
        arc = deform_arc(system, epsilon, sample)
        converged = sum(arc.converged)
        print(
            f"  {tag} sample: distance to Sigma {sample.distance_to_sigma:.3f}, "
            f"converged {converged}/{len(arc.t_grid)}, "
            f"max residual {max(arc.residuals):.2e}"
        )
    # a hand-built link point right next to the singular axis: solve
    # z^5 = -(eta^15 + eta*y^7) with |s| = 1 for a tiny eta > 0
    eta = 1e-10
    y_val, z_val = 1.0, 0.0
    for _ in range(60):
        z_val = -((eta**15 + eta * y_val**7) ** (1 / 5))
        y_val = float(np.sqrt(1.0 - eta * eta - z_val * z_val))
    near = LinkSample(s=(eta + 0j, y_val + 0j, z_val + 0j), distance_to_sigma=float(np.hypot(eta, z_val)))
    arc = deform_arc(system, epsilon, near)
    print(
        f"  hand-built sample: distance to Sigma {near.distance_to_sigma:.3f}, "
        f"converged {sum(arc.converged)}/{len(arc.t_grid)} "
        "(the convergence radius collapses against the singular axis)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
