"""Per-layer trace for one pass, installed from the benchmark's own files.

``Tracer.install`` rebinds germlab's public layer functions, in every germlab
module that holds a reference to them, to wrappers that record a span
(name, start, end, parent span, invocation id) per call. A few hot leaf
methods (numeric evaluation, partial derivatives, Q(i) -> complex, budget
charges) are only counted, because a span per call would cost more than the
call. Spans stay in memory until ``write_spans``; ``summary`` turns them into
the per-layer metrics. Nothing under src/ is changed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "groebner": ("buchberger", "division", "normal_form", "local_standard_basis", "saturation",
                 "milnor_number", "quotient_dimension", "krull_dimension", "is_groebner_basis",
                 "ideal_membership", "minors"),
    "germ": ("germ_system", "singular_locus_ideal", "variety_dimension", "sigma", "is_reduced_ci",
             "is_icis", "analyze", "analyze_newton"),
    "newton": ("newton_diagram", "face_restriction", "is_newton_nondegenerate", "face_weight_report"),
    "poly": ("jacobian", "infer_weights"),
    "foliation": ("sample_link", "sigma_link_cloud", "rescaled_gradient", "deform_arc",
                  "tangency_exponent", "verify_foliation", "write_arc_csv"),
    "germfile": ("read_germ_file", "load_system", "load_raw"),
    "parse": ("parse_poly", "poly_to_string"),
    "report": ("document", "render", "analysis_body", "sigma_body", "newton_body", "foliate_body",
               "milnor_body"),
}

# (module, class, method) counted per call; the timed ones also sum their time.
COUNTED = (("poly", "Poly", "partial"), ("qi", "QI", "to_complex"))
TIMED = (("poly", "Poly", "evaluate_numeric"),)

STATS_KEYS = {"s_pairs": "s_pairs", "reductions_to_zero": "zero_reductions",
              "skip_chain": "skip_chain", "skip_coprime": "skip_coprime"}

NAME, START, END, PARENT, INVOCATION = range(5)


def _poly_key(p) -> tuple:
    return tuple((mono, c.re, c.im) for mono, c in p.terms.items())


def _basis_key(gens, order) -> tuple:
    return (order, tuple(_poly_key(g) for g in gens if not g.is_zero()))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.invocation = ""
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self.basis_inputs: dict[str, list] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []
        self.observers = {
            "groebner.buchberger": self._on_buchberger,
            "groebner.local_standard_basis": self._on_local_basis,
            "foliation.sigma_link_cloud": self._on_cloud,
            "foliation.sample_link": self._on_link,
            "foliation.deform_arc": self._on_arc,
            "foliation.write_arc_csv": self._on_csv,
            "report.render": self._on_render,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("germlab") and m is not None]
        for short, names in SPANNED.items():
            source = importlib.import_module(f"germlab.{short}")
            for attr in names:
                original = getattr(source, attr)
                wrapper = self._spanned(f"{short}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)
        for short, cls_name, attr in COUNTED + TIMED:
            cls = getattr(importlib.import_module(f"germlab.{short}"), cls_name)
            name = f"{short}.{attr}"
            original = getattr(cls, attr)
            timed = (short, cls_name, attr) in TIMED
            self._rebind(cls, attr, self._tallied(name, original, timed))
        budget = importlib.import_module("germlab.groebner").Budget
        self._rebind(budget, "charge", self._charged(budget.charge))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _rebind(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observer = self.observers.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.invocation]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observer is not None:
                observer(span, args, kwargs, result)
            return result

        return wrapper

    def _tallied(self, name: str, fn, timed: bool):
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter
        if not timed:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_call(*args, **kwargs):
            counts[name] += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - started

        return timed_call

    def _charged(self, fn):
        counts = self.counts

        def charge(budget, n: int = 1):
            counts["budget_steps"] += n
            return fn(budget, n)

        return charge

    # -- observers: counts read from arguments and results -----------------

    def _on_buchberger(self, span, args, kwargs, result) -> None:
        for key, metric in STATS_KEYS.items():
            self.stats[span[INVOCATION]][metric] += result.stats.get(key, 0)
        parent = span[PARENT]
        if parent < 0 or self.spans[parent][NAME] != "groebner.local_standard_basis":
            order = args[1] if len(args) > 1 else kwargs.get("order")
            label = (order.name, order.nvars) if order is not None else ("grevlex", args[0][0].nvars)
            self.basis_inputs[span[INVOCATION]].append(_basis_key(args[0], label))

    def _on_local_basis(self, span, args, kwargs, result) -> None:
        self.basis_inputs[span[INVOCATION]].append(_basis_key(args[0], ("local", args[0][0].nvars)))

    def _on_cloud(self, span, args, kwargs, result) -> None:
        self.counts["cloud_points"] += len(result)
        self.counts["cloud_requested"] += kwargs.get("count", 200)

    def _on_link(self, span, args, kwargs, result) -> None:
        self.counts["link_points"] += len(result)
        self.counts["link_requested"] += args[1] if len(args) > 1 else kwargs["count"]

    def _on_arc(self, span, args, kwargs, result) -> None:
        self.counts["arc_newton_iterations"] += sum(len(row) for row in result.iteration_residuals)
        self.counts["arc_converged"] += sum(result.converged)
        self.counts["arc_grid_points"] += len(result.converged)

    def _on_csv(self, span, args, kwargs, result) -> None:
        arcs = args[1] if len(args) > 1 else kwargs["arcs"]
        self.counts["csv_rows"] += sum(len(arc.t_grid) for arc in arcs)

    def _on_render(self, span, args, kwargs, result) -> None:
        self.counts["report_bytes"] += len(result.encode("utf-8"))

    # -- results -----------------------------------------------------------

    def _has_ancestor(self, span, names: set[str]) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def layer_table(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds (span time minus the time
        of its direct child spans) per wrapped function."""
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            duration = span[END] - span[START]
            row = table[span[NAME]]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration
            if span[PARENT] >= 0:
                table[self.spans[span[PARENT]][NAME]]["self_s"] -= duration
        return dict(sorted(table.items()))

    def summary(self, wall_s: float) -> dict:
        table = self.layer_table()

        def calls(name: str) -> int:
            return table.get(name, {}).get("calls", 0)

        def seconds(name: str) -> float:
            return table.get(name, {}).get("s", 0.0)

        def total(names: set[str], where) -> float:
            return sum(span[END] - span[START] for span in self.spans if span[NAME] in names and where(span))

        def parent_is(span, name: str) -> bool:
            return span[PARENT] >= 0 and self.spans[span[PARENT]][NAME] == name

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        stats = Counter()
        for per_inv in self.stats.values():
            stats.update(per_inv)
        requests = sum(len(keys) for keys in self.basis_inputs.values())
        distinct = sum(len(set(keys)) for keys in self.basis_inputs.values())
        germfile = {"germfile.read_germ_file", "germfile.load_system", "germfile.load_raw"}
        load_s = total(germfile, lambda span: not self._has_ancestor(span, germfile))
        verify_children = total({"foliation.deform_arc", "foliation.tangency_exponent"},
                                lambda span: parent_is(span, "foliation.verify_foliation"))
        division_in_buchberger = total({"groebner.division"},
                                       lambda span: self._has_ancestor(span, {"groebner.buchberger"}))
        c = self.counts
        metrics = {
            "groebner.buchberger.calls": calls("groebner.buchberger"),
            "groebner.buchberger.s": seconds("groebner.buchberger"),
            "groebner.buchberger.pair_s": seconds("groebner.buchberger") - division_in_buchberger,
            "groebner.s_pairs": stats["s_pairs"],
            "groebner.zero_reductions": stats["zero_reductions"],
            "groebner.skip_chain": stats["skip_chain"],
            "groebner.skip_coprime": stats["skip_coprime"],
            "groebner.useful_pair_ratio": ratio(stats["s_pairs"] - stats["zero_reductions"], stats["s_pairs"]),
            "groebner.division.calls": calls("groebner.division"),
            "groebner.division.s": seconds("groebner.division"),
            "groebner.local_standard_basis.s": seconds("groebner.local_standard_basis"),
            "groebner.saturation.s": seconds("groebner.saturation"),
            "groebner.budget_steps": c["budget_steps"],
            "groebner.basis_requests": requests,
            "groebner.distinct_basis_inputs": distinct,
            "groebner.repeat_basis_ratio": ratio(requests - distinct, requests),
            "germ.analyze.s": seconds("germ.analyze"),
            "germ.sigma.s": seconds("germ.sigma"),
            "germ.analyze_newton.s": seconds("germ.analyze_newton"),
            "germ.variety_dimension.calls": calls("germ.variety_dimension"),
            "newton.newton_diagram.s": seconds("newton.newton_diagram"),
            "newton.is_newton_nondegenerate.s": seconds("newton.is_newton_nondegenerate"),
            "poly.evaluate_numeric.calls": c["poly.evaluate_numeric"],
            "poly.evaluate_numeric.s": self.seconds["poly.evaluate_numeric"],
            "poly.partial.calls": c["poly.partial"],
            "qi.to_complex.calls": c["qi.to_complex"],
            "foliation.sigma_link_cloud.s": seconds("foliation.sigma_link_cloud"),
            "foliation.cloud_points": c["cloud_points"],
            "foliation.cloud_fill_ratio": ratio(c["cloud_points"], c["cloud_requested"]),
            "foliation.sample_link.s": seconds("foliation.sample_link"),
            "foliation.link_points": c["link_points"],
            "foliation.link_fill_ratio": ratio(c["link_points"], c["link_requested"]),
            "foliation.deform_arc.calls": calls("foliation.deform_arc"),
            "foliation.deform_arc.s": seconds("foliation.deform_arc"),
            "foliation.arc_newton_iterations": c["arc_newton_iterations"],
            "foliation.arc_converged_ratio": ratio(c["arc_converged"], c["arc_grid_points"]),
            "foliation.tangency_exponent.s": seconds("foliation.tangency_exponent"),
            "foliation.verify_foliation.self_s": seconds("foliation.verify_foliation") - verify_children,
            "foliation.write_arc_csv.s": seconds("foliation.write_arc_csv"),
            "foliation.csv_rows": c["csv_rows"],
            "germfile.load.s": load_s,
            "parse.parse_poly.calls": calls("parse.parse_poly"),
            "report.render.s": seconds("report.render"),
            "report.bytes": c["report_bytes"],
            "trace.spans": len(self.spans),
            "trace.wall_s": wall_s,
        }
        return {
            "metrics": metrics,
            "layers": table,
            "groebner_stats": {inv: dict(s) for inv, s in self.stats.items()},
        }

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "invocation"], "spans": self.spans}, handle)
