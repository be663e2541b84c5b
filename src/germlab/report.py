"""Canonical JSON report documents for the command line tools.

One envelope for every command (schema version, tool version, the input
echo, the normalized variable data, seeds, timing) plus a command-specific
body.  The result dataclasses are the report schema: the bodies pass them
through one converter, ``_plain``, which, given the variable names, turns

* a polynomial into its string over those names, and a Groebner basis into
  the list of its generators,
* a dataclass into ``{field name: converted field}``, so a field added to a
  reported dataclass adds a report key,
* a list or tuple into a list,
* a ``Fraction`` into its exact string, such as ``"1/15"`` (``"2"`` for an
  integer),
* a non-finite float into ``"inf"``/``"-inf"``/``"nan"`` (JSON has no
  spelling for them),

and leaves everything else as it is; it is the one place a report prints
a polynomial.  ``foliate``'s per-arc summaries (derived counts) and
``newton``'s per-face non-degeneracy table (face indices) are written out
by hand.  Serialization is deterministic
for a fixed input and seed: keys are sorted and floats pass through
``repr`` via the JSON encoder.  ``timing_seconds`` stays null unless timing
was explicitly requested — wall-clock values are the one thing that would
break byte-identical reruns."""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from germlab import __version__
from germlab.germ import AnalysisReport, NewtonAnalysis, ObstructionLocus
from germlab.germfile import LoadedGerm, RawGerm
from germlab.groebner import GroebnerBasis
from germlab.parse import poly_to_string
from germlab.poly import Poly

if TYPE_CHECKING:
    from germlab.foliation import FoliationReport

__all__ = [
    "SCHEMA_VERSION",
    "document",
    "render",
    "analysis_body",
    "sigma_body",
    "newton_body",
    "foliate_body",
    "milnor_body",
]

SCHEMA_VERSION = 1


def _plain(value, names: Sequence[str]):
    if isinstance(value, Poly):
        return poly_to_string(value, names)
    if isinstance(value, GroebnerBasis):
        return _plain(value.generators, names)
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name), names) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v, names) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def document(
    command: str,
    input_echo: dict,
    seed: int,
    timing_seconds: float | None,
    body: dict,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "germlab", "version": __version__},
        "command": command,
        "input": input_echo,
        "seeds": {"root": seed},
        "timing_seconds": timing_seconds,
    }
    doc.update(body)
    return doc


def render(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _system_fragment(loaded: LoadedGerm) -> dict:
    system = loaded.system
    names = list(system.variables)
    return {
        "variables": names,
        "original_variables": list(loaded.original_variables),
        "permutation": list(loaded.permutation),
        "weights": _plain(system.weights, names),
        "degrees": _plain(system.degrees, names),
        "breakpoints": list(system.breakpoints),
        "principal": _plain(system.principal, names),
        "perturbation": _plain(system.perturbation, names),
        "same_order": system.is_same_order(),
    }


# ---------------------------------------------------------------------------
# per-command bodies


def analysis_body(loaded: LoadedGerm, report: AnalysisReport, assumptions: Iterable[str]) -> dict:
    return {
        **_system_fragment(loaded),
        "assumptions": sorted(assumptions),
        "analysis": _plain(report, loaded.system.variables),
    }


def sigma_body(loaded: LoadedGerm, locus: ObstructionLocus) -> dict:
    return {**_system_fragment(loaded), "sigma": _plain(locus, loaded.system.variables)}


def newton_body(raw: RawGerm, analysis: NewtonAnalysis) -> dict:
    names = list(raw.variables)
    diagram = analysis.diagram
    nd = analysis.nondegeneracy
    return {
        "variables": names,
        "equation": _plain(raw.equations[0], names),
        "newton": {
            "convenient": diagram.convenient,
            "support": _plain(diagram.support, names),
            "faces": [
                {**_plain(face, names), "weights": _plain(face.weights, names), "is_top": face.is_top}
                for face in diagram.faces
            ],
            "nondegeneracy": {
                "overall": nd.overall,
                "per_face": [
                    {"face": k, "status": status, "method": method}
                    for k, (status, method) in enumerate(zip(nd.statuses, nd.methods))
                ],
            },
            "criterion_applicable": analysis.criterion_applicable,
            "face_verdicts": _plain(analysis.face_verdicts, names),
            "any_certificate": analysis.any_certificate,
            "notes": list(analysis.notes),
        },
    }


def foliate_body(
    loaded: LoadedGerm,
    report: FoliationReport,
    epsilon: Fraction,
    samples_requested: int,
    csv_path: str | None,
    notes: Sequence[str],
) -> dict:
    names = loaded.system.variables
    return {
        **_system_fragment(loaded),
        "foliate": {
            "epsilon": _plain(epsilon, names),
            "samples": {
                "requested": samples_requested,
                "obtained": len(report.arcs),
            },
            "passed": report.passed,
            "failures": list(report.failures),
            "converged_fraction": _plain(report.converged_fraction, names),
            "checks": {
                "dichotomy": _plain(report.dichotomy, names),
                "min_separation": _plain(report.min_separation, names),
                "separation_ok": report.separation_ok,
                "coordinate_planes_ok": report.coordinate_planes_ok,
            },
            "arcs": [
                {
                    "distance_to_sigma": _plain(arc.s.distance_to_sigma, names),
                    "gram_determinant": _plain(arc.gram_determinant, names),
                    "converged_count": int(sum(arc.converged)),
                    "grid_size": len(arc.t_grid),
                }
                for arc in report.arcs
            ],
            "csv_path": csv_path,
            "notes": list(notes),
        },
    }


def milnor_body(raw: RawGerm, mu: int | None) -> dict:
    names = list(raw.variables)
    return {
        "variables": names,
        "equation": _plain(raw.equations[0], names),
        "milnor": {
            "milnor_number": mu,
            "isolated": mu is not None,
            "notes": (
                []
                if mu is not None
                else ["the critical point is not isolated (or all partials vanish)"]
            ),
        },
    }
