"""Spans around the calls into each qbmg module, recorded from outside the package.

``Tracer.installed()`` wraps the public functions and constructors named in
``FUNCTIONS``, ``METHODS`` and ``CONSTRUCTORS`` and rebinds each wrapped name in
every loaded ``qbmg`` module that holds it, so calls between modules (and
within one) pass through the wrappers too. On leaving the block every binding
is restored. A span is ``(name, start, end, parent, op)``; spans are kept in
memory and written out by ``write_spans`` after the run.

A layer is the module a span's name starts with. Its self time is the summed
duration of its spans minus the time their direct child spans cover.
``Permutation`` constructions are only counted: they run hundreds of thousands
of times per op, and their time stays in the caller's self time.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import oracle

__all__ = ["Tracer", "BENCHMARK", "PER_LAYER", "EXACT"]

# module -> public functions wrapped as spans named "<module>.<function>".
FUNCTIONS = {
    "digraph": ("parse_graph", "format_graph", "long_induced_path_or_cycle",
                "symmetric_edges", "underlying_undirected"),
    "axioms": ("check_n1", "check_n2", "check_n3", "check_n3star", "satisfies_star",
               "is_thin", "axiom_report", "is_2qbmg"),
    "perms": ("canonical_generators", "preserves_edges"),
    "autgroup": ("is_automorphism", "aut_color_preserving", "aut_full", "orbits",
                 "canonical_gamma", "is_normal", "inherited_group",
                 "fixes_in_neighborhood_check"),
    "quotients": ("equivalence_classes", "partition_quotient", "classical_quotient",
                  "gamma_quotient", "verify_thin_orbit_structure",
                  "classify_monochromatic_orbit_pairs",
                  "check_color_preserving_automorphisms"),
    "orientations": ("uw_orientation", "topological_order", "check_orientation_theorems"),
    "verify": ("run_suite", "graphs_match_up_to_rename"),
    "constructions": ("blow_up", "layered", "random_layered_spec", "lifted_group"),
}

# (module, class, method) wrapped as spans named "<module>.<method>".
METHODS = (
    ("perms", "PermGroup", "from_elements"),
    ("perms", "PermGroup", "from_generators"),
    ("perms", "PermGroup", "cyclic_subgroups"),
)

# (module, class) whose construction is a span named "<module>.<class>".
CONSTRUCTORS = (("digraph", "ColoredDigraph"),)

# Calls whose first argument's graph is remembered per op, for distinct_ratio.
DISTINCT = ("axioms.is_2qbmg", "autgroup.aut_color_preserving")

# The benchmark's metrics, with their units, directions and bounds.
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

# Metrics that must repeat exactly on the same code and seed.
EXACT = [m["name"] for m in BENCHMARK["per_layer"]
         if m["unit"] == "count" or m["name"].endswith(".distinct_ratio")]


class Tracer:
    """Records spans and counts for the calls into qbmg while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._distinct: dict[str, set] = defaultdict(set)

    def _span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, name: str):
        if name in DISTINCT:
            def remember(args, _result):
                g = args[0]
                self._distinct[name].add((self.op, g.color_u, g.color_w, g.edges))
            return remember
        if name == "orientations.check_orientation_theorems":
            def checked(_args, report):
                self.counts["orientations.orientations_checked"] += report.orientations_checked
            return checked
        if name == "verify.run_suite":
            def designed(_args, results):
                self.counts["verify.designed_failures"] += sum(
                    1 for r in results if r.name == "orientation_theorems"
                    and not r.passed and r.detail.startswith(oracle.DESIGNED_FAILURE))
            return designed
        return None

    @contextmanager
    def installed(self):
        """Wrap every listed callable; restore the original bindings on exit."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "qbmg" or name.startswith("qbmg.")}
        undo = []

        def rebind(orig, wrapper):
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for module, names in FUNCTIONS.items():
                for fname in names:
                    orig = getattr(mods.get(f"qbmg.{module}"), fname, None)
                    if orig is not None:
                        name = f"{module}.{fname}"
                        rebind(orig, self._span(name, orig, self._observer(name)))
            for module, cls_name, meth in METHODS:
                cls = getattr(mods.get(f"qbmg.{module}"), cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    patch(cls, meth, classmethod(self._span(f"{module}.{meth}", raw.__func__)))
                elif raw is not None:
                    patch(cls, meth, self._span(f"{module}.{meth}", raw))
            for module, cls_name in CONSTRUCTORS:
                cls = getattr(mods.get(f"qbmg.{module}"), cls_name)
                patch(cls, "__init__", self._span(f"{module}.{cls_name}", cls.__init__))
            perms = mods["qbmg.perms"]
            patch(perms.Permutation, "__init__", self._counted(perms.Permutation.__init__))
            patch(perms.PermGroup, "__init__", self._group_sizes(perms.PermGroup.__init__))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def _counted(self, init):
        counts = self.counts

        def __init__(obj, *args, **kwargs):
            counts["perms.Permutation.calls"] += 1
            init(obj, *args, **kwargs)
        return __init__

    def _group_sizes(self, init):
        counts = self.counts

        def __init__(obj, domain, generators, elements):
            counts["perms.elements"] += len(elements)
            init(obj, domain, generators, elements)
        return __init__

    def call_op(self, main, argv):
        """Run one CLI call as a root span ``cli.main`` under a fresh op id."""
        self.op += 1
        return self._span("cli.main", main)(argv)

    def _self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        out: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _, _), own in zip(self.spans, self._self_times()):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += own
            out[f"{name}.s"] += end - start
            calls[f"{layer}.calls"] += 1
            calls[f"{name}.calls"] += 1
        out.update(calls)
        out.update(self.counts)
        for name in DISTINCT:
            n = out.get(f"{name}.calls", 0)
            out[f"{name}.distinct_ratio"] = len(self._distinct[name]) / n if n else 0.0
        return {name: out.get(name, 0) for name in PER_LAYER}

    def per_op_layers(self) -> list[dict[str, float]]:
        """Self time by layer for each op, for the per-case breakdown."""
        ops: list[dict[str, float]] = [defaultdict(float) for _ in range(self.op + 1)]
        for (name, start, end, _, op), own in zip(self.spans, self._self_times()):
            ops[op][name.split(".", 1)[0]] += own
            if name == "perms.from_elements":
                ops[op]["perms.from_elements"] += end - start
        return ops

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
