"""The library's surface is what ``src/`` or the benchmark's tracer reaches.

Tests and examples are not callers: a public module-level function of
``germlab`` must be referenced, by name in the syntax tree, from another
definition under ``src/germlab``, or be one that ``bench/tracing.py`` wraps
(its ``SPANNED``, ``COUNTED`` or ``TIMED`` tables), or be ``cli.main``, the
console entry point.  Docstrings and ``__all__`` strings do not count.

The package has one least-squares call: ``poly._stacked_lstsq``, defined
once, is the only place under ``src/germlab`` that calls a function named
``lstsq``.
"""

from __future__ import annotations

import ast

from conftest import ROOT, bench_tracing

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
