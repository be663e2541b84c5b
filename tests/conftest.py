"""Shared helpers: fixture paths, parsing shortcuts, small builders."""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from germlab.parse import parse_poly
from germlab.germ import germ_system

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent


def bench_tracing():
    """``bench/tracing.py`` as a module, imported from its file; importing it
    installs nothing."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def P(text: str, variables: str = "x y z"):
    """Parse a polynomial over the given space-separated variable names."""
    return parse_poly(text, variables.split())


def F(*args) -> Fraction:
    return Fraction(*args)


@pytest.fixture
def briancon_speder():
    """The weighted-homogeneous family z^5 + x^15 + x*y^7 + eps*z*y^6,
    weights (1/15, 2/15, 3/15): the classical mu-constant family whose
    obstruction locus is one-dimensional."""
    return germ_system(
        variables=["x", "y", "z"],
        principal=[P("z^5 + x^15 + x*y^7")],
        perturbation=[P("z*y^6")],
        weights=[F("1/15"), F("2/15"), F("3/15")],
    )


@pytest.fixture
def sphere_cubic():
    """x^2 + y^2 + z^2 + z^3: equal weights, a strictly-higher-order term."""
    return germ_system(
        variables=["x", "y", "z"],
        principal=[P("x^2 + y^2 + z^2")],
        perturbation=[P("z^3")],
        weights=[F("1/2"), F("1/2"), F("1/2")],
    )
