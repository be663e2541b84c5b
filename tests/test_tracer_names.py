"""The benchmark's tracer finds every germlab name it wraps.

``bench/tracing.py`` rebinds germlab functions and methods by name and reads
some of their arguments by position.  A rename or a reordered signature in
``src/`` would not fail a ``--trace 1`` run; its per-layer numbers would just
read zero.  These tests import the tracer's tables without installing it, and
feed its observers what the real calls return.
"""

from __future__ import annotations

import importlib
import inspect

from germlab import foliation, groebner
from germlab.cli import main
from germlab.germ import germ_system, sigma, singular_locus_ideal
from germlab.germfile import load_system, read_germ_file
from germlab.orders import grevlex

from conftest import ROOT, F, P, bench_tracing


def test_every_traced_name_resolves_in_germlab():
    tracing = bench_tracing()
    for short, names in tracing.SPANNED.items():
        module = importlib.import_module(f"germlab.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"germlab.{short}.{name}"
    for short, cls_name, attr in tracing.COUNTED + tracing.TIMED + (("groebner", "Budget", "charge"),):
        owner = getattr(importlib.import_module(f"germlab.{short}"), cls_name)
        assert callable(getattr(owner, attr, None)), f"germlab.{short}.{cls_name}.{attr}"


def test_the_arguments_the_tracer_reads_are_where_it_reads_them():
    # sample_link's count and write_arc_csv's arcs are read as args[1]; a
    # cloud is counted as asked for 200 points unless count is passed
    assert list(inspect.signature(foliation.sample_link).parameters)[1] == "count"
    assert list(inspect.signature(foliation.write_arc_csv).parameters)[1] == "arcs"
    assert "count" not in inspect.signature(foliation.sigma_link_cloud).parameters
    assert foliation.SIGMA_CLOUD_POINTS == 200


def test_the_observers_count_what_the_real_calls_return(tmp_path):
    # the observers read an arc's t_grid, iteration_residuals and converged
    # flags, and a basis's stats; a hand-made span list stands in for install
    tracing = bench_tracing()
    tracer = tracing.Tracer()
    sphere = germ_system(["x", "y", "z"], [P("x^2 + y^2 + z^2")], [P("z^3")], [F(1, 2)] * 3)
    sample = foliation.sample_link(sphere, 1, seed=0, sigma_cloud=[])[0]
    arc = foliation.deform_arc(sphere, 0.5, sample)
    gens = singular_locus_ideal([P("z^5 + x^15 + x*y^7")])
    order, budget = grevlex(3), groebner.Budget()
    basis = groebner.buchberger(gens, order, budget)
    tracer.spans[:] = [
        ["groebner.buchberger", 0.0, 1.0, -1, "run"],
        ["foliation.deform_arc", 1.0, 2.0, -1, "run"],
        ["foliation.write_arc_csv", 2.0, 3.0, -1, "run"],
    ]
    tracer.observers["groebner.buchberger"](tracer.spans[0], (gens, order, budget), {}, basis)
    tracer.observers["foliation.deform_arc"](tracer.spans[1], (sphere, 0.5, sample), {}, arc)
    tracer.observers["foliation.write_arc_csv"](tracer.spans[2], (tmp_path / "arcs.csv", [arc, arc], 0), {}, None)

    grid = len(foliation.DEFAULT_T_GRID)
    assert tracer.counts["csv_rows"] == 2 * grid == 40
    assert tracer.counts["arc_grid_points"] == grid
    assert tracer.counts["arc_converged"] == sum(arc.converged) == grid
    iterations = sum(len(run) for run in arc.iteration_residuals)
    assert tracer.counts["arc_newton_iterations"] == iterations > 0
    assert dict(tracer.stats["run"]) == {
        metric: basis.stats[key] for key, metric in tracing.STATS_KEYS.items()
    }
    assert tracer.stats["run"]["s_pairs"] > 0
    assert len(tracer.basis_inputs["run"]) == 1


def test_the_tracer_sees_the_newton_layer(tmp_path):
    # the per-face check is the spanned name that analyze_newton calls, so an
    # installed tracer records it; the pipeline must not bypass the name
    tracer = bench_tracing().Tracer()
    tracer.install()
    try:
        main(["newton", str(ROOT / "bench" / "germs" / "bs_6633.json"), "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    table = tracer.layer_table()
    assert table.get("newton.is_newton_nondegenerate", {"calls": 0})["calls"] > 0
    assert table["germ.analyze_newton"]["calls"] == 1


def test_the_tracer_sees_the_packed_division(tmp_path):
    # the kernel's division is the spanned module-level name that buchberger
    # calls, so groebner.division.* and pair_s keep their meaning, and the
    # stats the tracer sums are those of the bases sigma returns
    tracing = bench_tracing()
    tracer = tracing.Tracer()
    germ = ROOT / "bench" / "germs" / "bs_6633.json"
    tracer.install()
    try:
        main(["sigma", str(germ), "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    metrics = tracer.summary(0.0)["metrics"]
    assert metrics["groebner.division.calls"] > 0
    assert 0 < metrics["groebner.buchberger.pair_s"] < metrics["groebner.buchberger.s"]
    locus = sigma(load_system(read_germ_file(germ)).system, groebner.Budget())
    bases = [comp.basis for comp in locus.components]
    assert metrics["groebner.buchberger.calls"] == len(bases) > 0
    assert dict(tracer.stats[""]) == {
        metric: sum(basis.stats[key] for basis in bases) for key, metric in tracing.STATS_KEYS.items()
    }
