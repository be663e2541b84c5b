"""The benchmark's tracer finds every germlab name it wraps.

``bench/tracing.py`` rebinds germlab functions and methods by name and reads
some of their arguments by position.  A rename or a reordered signature in
``src/`` would not fail a ``--trace 1`` run; its per-layer numbers would just
read zero.  These tests import the tracer's tables without installing it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from germlab import foliation

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_germlab():
    tracing = _tracing()
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
