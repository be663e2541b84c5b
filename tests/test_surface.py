"""The library's surface is what ``src/`` or the benchmark's tracer reaches.

Tests and examples are not callers: a public module-level function of
``germlab`` must be referenced, by name in the syntax tree, from another
definition under ``src/germlab``, or be one that ``bench/tracing.py`` wraps
(its ``SPANNED``, ``COUNTED`` or ``TIMED`` tables), or be ``cli.main``, the
console entry point.  Docstrings and ``__all__`` strings do not count.

The same holds one level down, for every dataclass or NamedTuple field and
every public method of a class under ``src/germlab``: its name must be read
as an attribute from another definition (a method counts as its own
definition, so it may be read by its class's other methods), or the report
encoder ``report._plain`` must encode it as a field of a dataclass that a
command's report holds, or ``bench/tracing.py`` must wrap it or read it as
an attribute.  Names are matched by spelling, not by type.  Methods that
override a base class's (``_Parser.error`` for argparse) and dunders are
exempt.

The package has one least-squares call: ``poly._stacked_lstsq``, defined
once, is the only place under ``src/germlab`` that calls a function named
``lstsq``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from functools import cached_property

from conftest import ROOT, bench_tracing, fixture_path

PACKAGE = ROOT / "src" / "germlab"


def _tracer_names() -> set[tuple[str, str]]:
    tracing = bench_tracing()
    names = {(short, name) for short, names in tracing.SPANNED.items() for name in names}
    return names | {(short, attr) for short, _, attr in tracing.COUNTED + tracing.TIMED}


def _bindings(tree: ast.Module, module: str) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """The germlab functions a module's names stand for, as (module, name),
    and the germlab modules its names stand for; imports inside functions
    count too."""
    names = {node.name: (module, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("germlab"):
            for alias in node.names:
                if node.module == "germlab":
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module.removeprefix("germlab."), alias.name)
    return names, modules


def _surface() -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """(public module-level functions, functions referenced from a
    definition other than their own) over every module under src/germlab."""
    public: set[tuple[str, str]] = set()
    referenced: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        names, modules = _bindings(tree, module)
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if isinstance(definition, ast.FunctionDef) and not definition.name.startswith("_"):
                public.add((module, definition.name))
            for node in ast.walk(definition):
                if isinstance(node, ast.Name) and node.id in names:
                    target = names[node.id]
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target != (module, definition.name):
                    referenced.add(target)
    return public, referenced


def test_every_public_function_has_a_caller_in_src_or_the_tracer():
    public, referenced = _surface()
    assert {("report", "render"), ("germ", "analyze_newton")} <= public & referenced  # the scan sees calls
    unreached = public - referenced - _tracer_names() - {("cli", "main")}
    assert not unreached, sorted(f"{module}.{name}" for module, name in unreached)


def _attribute_reads(tree: ast.AST) -> set[str]:
    return {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _members() -> set[tuple[str, str, str]]:
    """(module, class, name) for every dataclass or NamedTuple field and every
    public method or property a class under src/germlab defines, less those
    that override a base class's."""
    members = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"germlab.{path.stem}")
        for cls_name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
            names |= set(cls._fields) if issubclass(cls, tuple) and hasattr(cls, "_fields") else set()
            for name, value in vars(cls).items():
                if name.startswith("_") or any(hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
                if inspect.isfunction(value) or isinstance(
                    value, (property, cached_property, classmethod, staticmethod)
                ):
                    names.add(name)
            members |= {(path.stem, cls_name, name) for name in names}
    return members


def _reads() -> dict[str, set[tuple[str, str]]]:
    """attribute name -> the (module, definition) that read it, where a
    method is the definition "Class.method" and statements outside every
    function are the definition of their class, or "" at module level."""
    reads: dict[str, set[tuple[str, str]]] = {}

    def record(node: ast.AST, module: str, owner: str) -> None:
        for attr in _attribute_reads(node):
            reads.setdefault(attr, set()).add((module, owner))

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    record(item, path.stem, f"{node.name}.{item.name}" if method else node.name)
            else:
                record(node, path.stem, node.name if isinstance(node, ast.FunctionDef) else "")
    return reads


def _reported_dataclasses(tmp_path) -> set[type]:
    """The dataclasses ``report._plain`` encodes field by field in one run of
    each command on the fixtures (a fast cycle, a positive-dimensional Sigma,
    a face table, a foliation with dichotomy pairs, a Milnor number)."""
    from germlab import report
    from germlab.cli import main

    encoded: set[type] = set()
    fields = report.fields

    def recording(value):
        encoded.add(type(value))
        return fields(value)

    runs = [
        ["analyze", "a2.json"],
        ["sigma", "briancon_speder.json"],
        ["newton", "a2.json"],
        ["foliate", "sphere_cubic.json", "--samples", "4", "--csv", str(tmp_path / "arcs.csv")],
        ["milnor", "a2.json"],
    ]
    report.fields = recording
    try:
        for command, germ, *extra in runs:
            assert main([command, fixture_path(germ), *extra, "--out", str(tmp_path / "report.json")]) in (0, 10)
    finally:
        report.fields = fields
    return encoded


def test_every_field_and_public_method_is_read_in_src_reported_or_traced(tmp_path):
    members = _members()
    # the scan sees both kinds of member, and no argparse override
    assert {("groebner", "GroebnerBasis", "stats"), ("poly", "Poly", "partial")} <= members
    assert not any(name == "error" for _, cls, name in members if cls == "_Parser")
    reads = _reads()
    reported = {(cls.__module__.removeprefix("germlab."), cls.__name__) for cls in _reported_dataclasses(tmp_path)}
    assert ("germ", "Certificates") in reported  # the runs reach the nested result types
    tracing = bench_tracing()
    traced = _attribute_reads(ast.parse((ROOT / "bench" / "tracing.py").read_text()))
    traced |= {attr for _, _, attr in tracing.COUNTED + tracing.TIMED}
    unreached = {
        (module, cls, name)
        for module, cls, name in members
        if not reads.get(name, set()) - {(module, f"{cls}.{name}")}
        and (module, cls) not in reported
        and name not in traced
    }
    assert not unreached, sorted(f"{cls}.{name}" for _, cls, name in unreached)


def _lstsq_calls(tree: ast.AST) -> list[ast.Call]:
    """The calls of a function named ``lstsq``, plain or as an attribute."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "lstsq":
                calls.append(node)
    return calls


def test_stacked_lstsq_is_the_only_least_squares_call():
    kernels, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside: set[ast.Call] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_stacked_lstsq":
                kernels.append(node)
                inside.update(_lstsq_calls(node))
        outside += [f"{path.name}:{call.lineno}" for call in _lstsq_calls(tree) if call not in inside]
    assert not outside, outside
    assert len(kernels) == 1
    assert len(_lstsq_calls(kernels[0])) == 1  # the scan sees the kernel's own call
