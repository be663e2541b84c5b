"""Germ files: the JSON input format of the command line tools.

One JSON object per file, with keys:

* ``variables`` — ordered list of variable names (required);
* ``equations`` — list of polynomial strings, **or**
* ``split`` — ``{"principal": [...], "perturbation": [...]}`` with explicit
  polynomial strings (exactly one of ``equations``/``split`` is required);
* ``weights`` — optional list of positive rationals as strings (``"1/5"``,
  ``"2"``), one per variable, in the file's variable order;
* ``assumptions`` — optional list of assertion names the user vouches for
  (``"milnor-fibre"``, ``"noncontractible-component"``).

Two loading modes.  :func:`load_system` (analyze / sigma / foliate) builds a
full weighted system: it resolves weights (given, or inferred here — the
one place weights are inferred), splits equations into principal part and
perturbation at the minimal weighted order, and **normalizes the variable
order to ascending weights**, reporting the permutation.  :func:`load_raw`
(newton / milnor) parses the full equations in the file's own variable
order and touches no weight structure at all — those commands are
weight-free, so weight errors can never block them.

Unknown keys are errors: a typo like ``"weight"`` must not silently load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from germlab.germ import GermSystem, germ_system
from germlab.parse import ParseError, parse_poly
from germlab.poly import Poly, infer_weights

__all__ = [
    "ASSUMPTION_NAMES",
    "GermFileError",
    "LoadedGerm",
    "RawGerm",
    "read_germ_file",
    "load_system",
    "load_raw",
]

#: assertion names a germ file (or CLI flag) may vouch for.
ASSUMPTION_NAMES = frozenset({"milnor-fibre", "noncontractible-component"})

_TOP_KEYS = frozenset({"variables", "equations", "split", "weights", "assumptions"})
_SPLIT_KEYS = frozenset({"principal", "perturbation"})


class GermFileError(ValueError):
    """A germ file failed validation; the message says where and why."""


@dataclass(frozen=True)
class LoadedGerm:
    """A fully resolved germ system in ascending-weight variable order.

    ``original_variables`` is the file's order; ``permutation[i]`` is the
    original position of the i-th normalized variable, so
    ``system.variables[i] == original_variables[permutation[i]]``."""

    system: GermSystem
    assumptions: frozenset[str]
    original_variables: tuple[str, ...]
    permutation: tuple[int, ...]


@dataclass(frozen=True)
class RawGerm:
    """Equations parsed in the file's own variable order, weight-free."""

    variables: tuple[str, ...]
    equations: tuple[Poly, ...]


def read_germ_file(source: str | Path) -> dict:
    """Read and structurally validate a germ file; returns the raw dict."""
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GermFileError(f"cannot read germ file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GermFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise GermFileError(f"{path} nests JSON too deeply to read") from None
    if not isinstance(data, dict):
        raise GermFileError(f"{path}: top level must be a JSON object")
    _validate_shape(data)
    return data


def _validate_shape(data: dict) -> None:
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise GermFileError(
            f"unknown germ-file keys: {sorted(unknown)}; allowed: {sorted(_TOP_KEYS)}"
        )
    variables = data.get("variables")
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) and v for v in variables)
    ):
        raise GermFileError('"variables" must be a non-empty list of names')
    if len(set(variables)) != len(variables):
        raise GermFileError("variable names must be distinct")
    has_equations = "equations" in data
    has_split = "split" in data
    if has_equations == has_split:
        raise GermFileError(
            'exactly one of "equations" or "split" must be present'
        )
    if has_equations and not _is_string_list(data["equations"], allow_empty=False):
        raise GermFileError('"equations" must be a non-empty list of strings')
    if has_split:
        split = data["split"]
        if not isinstance(split, dict):
            raise GermFileError('"split" must be an object')
        unknown = set(split) - _SPLIT_KEYS
        if unknown:
            raise GermFileError(
                f"unknown split keys: {sorted(unknown)}; allowed: {sorted(_SPLIT_KEYS)}"
            )
        if not _is_string_list(split.get("principal"), allow_empty=False):
            raise GermFileError('"split.principal" must be a non-empty list of strings')
        perturbation = split.get("perturbation", [])
        if not _is_string_list(perturbation, allow_empty=True):
            raise GermFileError('"split.perturbation" must be a list of strings')
        if perturbation and len(perturbation) != len(split["principal"]):
            raise GermFileError(
                "split.perturbation must match split.principal in length "
                "(or be empty/absent)"
            )
    if "weights" in data:
        weights = data["weights"]
        if not _is_string_list(weights, allow_empty=False) or len(weights) != len(
            variables
        ):
            raise GermFileError(
                '"weights" must list one rational string per variable'
            )
    if "assumptions" in data:
        assumptions = data["assumptions"]
        if not _is_string_list(assumptions, allow_empty=True):
            raise GermFileError('"assumptions" must be a list of names')
        bad = set(assumptions) - ASSUMPTION_NAMES
        if bad:
            raise GermFileError(
                f"unknown assumptions: {sorted(bad)}; allowed: {sorted(ASSUMPTION_NAMES)}"
            )


def _is_string_list(value: object, *, allow_empty: bool) -> bool:
    return (
        isinstance(value, list)
        and (allow_empty or bool(value))
        and all(isinstance(v, str) for v in value)
    )


def _parse_equation(text: str, variables: list[str], label: str) -> Poly:
    try:
        return parse_poly(text, variables)
    except ParseError as exc:
        raise GermFileError(f"{label}: {exc} in {text!r}") from exc


def _parse_weights(data: dict) -> list[Fraction] | None:
    if "weights" not in data:
        return None
    weights = []
    for i, text in enumerate(data["weights"]):
        try:
            w = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise GermFileError(f"weights[{i}]: {text!r} is not a rational") from exc
        if w <= 0:
            raise GermFileError(f"weights[{i}]: {text!r} must be positive")
        weights.append(w)
    return weights


def _parse_list(texts: list[str], variables: list[str], label: str) -> list[Poly]:
    return [_parse_equation(t, variables, f"{label}[{i}]") for i, t in enumerate(texts)]


def _parse_split(split: dict, variables: list[str]) -> tuple[list[Poly], list[Poly]]:
    """The ``split`` block as (principal, perturbation); a missing or empty
    perturbation reads as zero for every principal equation."""
    principal = _parse_list(split["principal"], variables, "split.principal")
    perturbation = _parse_list(split.get("perturbation") or [], variables, "split.perturbation")
    return principal, perturbation or [Poly.zero(len(variables)) for _ in principal]


def _inferred_weights(polys: list[Poly], variables: list[str], split: bool) -> list[Fraction]:
    """The unique weights for which every one of ``polys`` is
    weighted-homogeneous; GermFileError when there are none or several, or
    when one of ``polys`` is zero.  ``split`` marks ``polys`` as the file's
    ``split.principal``."""
    try:
        inference = infer_weights(polys, variables)
    except ValueError as exc:  # a zero equation
        raise GermFileError(str(exc)) from exc
    if inference.status == "underdetermined":
        free = ", ".join(inference.free_variables)
        raise GermFileError(f'weights are underdetermined (free: {free}); add a "weights" entry')
    if inference.status != "unique":
        raise GermFileError(
            '"split.principal" is not weighted-homogeneous for any positive weights; move its '
            'higher-order terms to "split.perturbation", or give "equations" with "weights"'
            if split
            else 'equations are not weighted-homogeneous; give "weights" (the principal part is '
            'then read off at the minimal weighted order) or an explicit "split"'
        )
    return list(inference.weights)


def _split_by_weight(f: Poly, weights: list[Fraction], label: str) -> tuple[Poly, Poly]:
    """Split at the minimal weighted order: the principal part carries the
    terms at order ord_w(f), the perturbation everything strictly above."""
    if f.is_zero():
        raise GermFileError(f"{label} is zero; nothing to split")
    return f.split_by_weight(weights)


def load_system(data: dict) -> LoadedGerm:
    """Resolve a germ file into a validated system with ascending weights."""
    _validate_shape(data)
    variables: list[str] = list(data["variables"])
    weights = _parse_weights(data)
    assumptions = frozenset(data.get("assumptions", []))

    split = "split" in data
    if split:
        principal, perturbation = _parse_split(data["split"], variables)
    else:
        equations = _parse_list(data["equations"], variables, "equations")
    if weights is None:
        weights = _inferred_weights(principal if split else equations, variables, split)
    if not split:
        principal = []
        perturbation = []
        for i, f in enumerate(equations):
            low, high = _split_by_weight(f, weights, f"equations[{i}]")
            principal.append(low)
            perturbation.append(high)

    order = sorted(range(len(variables)), key=lambda i: (weights[i], i))
    sorted_variables = [variables[i] for i in order]
    sorted_weights = [weights[i] for i in order]
    try:
        system = germ_system(
            sorted_variables,
            [f.permute_variables(order) for f in principal],
            [q.permute_variables(order) for q in perturbation],
            weights=sorted_weights,
        )
    except ValueError as exc:
        raise GermFileError(str(exc)) from exc
    return LoadedGerm(
        system=system,
        assumptions=assumptions,
        original_variables=tuple(variables),
        permutation=tuple(order),
    )


def load_raw(data: dict) -> RawGerm:
    """Parse the full equations in the file's own variable order (for the
    weight-free commands); ``split`` entries are recombined by addition."""
    _validate_shape(data)
    variables: list[str] = list(data["variables"])
    if "split" in data:
        principal, perturbation = _parse_split(data["split"], variables)
        equations = [p + q for p, q in zip(principal, perturbation)]
    else:
        equations = _parse_list(data["equations"], variables, "equations")
    return RawGerm(variables=tuple(variables), equations=tuple(equations))
