"""Per-layer tracing from outside the program.

Each layer is a set of graphspec functions.  ``Tracer.install`` replaces every
``graphspec.*`` module global, and every value of a module-level dict, that
is bound to one of those function objects, because modules import names
with ``from .x import y`` and dispatch through registries such as
``ALL_COMPARISONS``.  A wrapper records a span (layer, start, end, parent
span, request id) in memory.  A layer's self time is the sum over its spans
of the duration minus the time its child spans cover.  A function that no
longer exists is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer -> (module, functions): a tuple of attribute names, or the name of a
# module-level dict whose values are the functions.
LAYERS = {
    "cli.main": ("graphspec.cli", ("main",)),
    "cli.build_parser": ("graphspec.cli", ("build_parser",)),
    "cli.dumps_json": ("graphspec.cli", ("dumps_json",)),
    "graph.load": ("graphspec.graph", ("load",)),
    "graph.validate": ("graphspec.graph", ("validate",)),
    "fixtures.random_graph": ("graphspec.fixtures", ("random_graph",)),
    "operators.assemble": ("graphspec.operators", (
        "full_laplacian", "dirichlet_laplacian", "neumann_laplacian", "interior_laplacian")),
    "operators.normal_extension": ("graphspec.operators", ("normal_extension",)),
    "spectra.eigensolve": ("graphspec.spectra", ("eigensolve",)),
    "spectra.singular_values": ("graphspec.spectra", ("weighted_singular_values",)),
    "kernels.jacobi_eigh": ("graphspec._kernels", ("jacobi_eigh",)),
    "comparisons.certificate": ("graphspec.comparisons", "ALL_COMPARISONS"),
    "rigidity.check": ("graphspec.rigidity", "ALL_RIGIDITY"),
    "curvature.be_vertex": ("graphspec.curvature", ("bakry_emery_curvature_at",)),
    "curvature.ollivier_edge": ("graphspec.curvature", ("ollivier_curvature",)),
    "curvature.distances": ("graphspec.curvature", ("_graph_distances",)),
    "simplex.solve_lp": ("graphspec.simplex", ("solve_lp",)),
    "combinatorial.min_cut": ("graphspec.combinatorial", ("stoer_wagner_min_cut",)),
    "combinatorial.path_dirichlet": ("graphspec.combinatorial", ("path_dirichlet_value",)),
}
# Counted without a span: a pivot is too small to time on its own.
COUNTERS = {"simplex.pivots": ("graphspec.simplex", ("_pivot",))}


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.spans = []          # (layer, start, end, parent, request)
        self.counts = Counter()
        self.request = -1
        self.absent = []
        self._stack = []
        self._patches = []       # (container, key, original)
        self._operators = set()  # digests of operators passed to eigensolve
        self._graphs = set()     # digests of graphs passed to the distance routine
        self.lp_rows = []
        self._hooks = {
            "spectra.eigensolve": self._on_eigensolve,
            "simplex.solve_lp": self._on_solve_lp,
            "curvature.distances": self._on_distances,
        }

    # -- hooks: cheap observations made before the span starts ---------------
    def _on_eigensolve(self, args, kwargs):
        op = _arg(args, kwargs, 0, "op")
        if hasattr(op, "matrix") and hasattr(op, "inner_measure"):
            self._operators.add(_digest(op.matrix, op.inner_measure))

    def _on_solve_lp(self, args, kwargs):
        self.lp_rows.append(int(np.shape(_arg(args, kwargs, 1, "a"))[0]))

    def _on_distances(self, args, kwargs):
        graph = _arg(args, kwargs, 0, "graph")
        if hasattr(graph, "weights"):
            self._graphs.add(_digest(graph.weights))

    # -- wrapping --------------------------------------------------------------
    def _span_wrapper(self, layer, fn):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(layer)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (layer, start, time.perf_counter(), parent, self.request)
                stack.pop()

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _targets(self, module_name, names):
        module = sys.modules.get(module_name)
        if isinstance(names, str):
            registry = getattr(module, names, None)
            if not isinstance(registry, dict):
                self.absent.append(f"{module_name}.{names}")
                return []
            return [fn for fn in registry.values() if callable(fn)]
        found = []
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn):
                found.append(fn)
            else:
                self.absent.append(f"{module_name}.{name}")
        return found

    def _patch(self, fn, replacement):
        """Rebind every graphspec global and module-level dict value that is
        ``fn`` itself to ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "graphspec" or mod_name.startswith("graphspec.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((namespace, key, value))
                    namespace[key] = replacement
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._patches.append((value, k, v))
                            value[k] = replacement

    def install(self):
        self.absent = []
        for layers, make in ((LAYERS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, (module_name, names) in layers.items():
                for fn in self._targets(module_name, names):
                    self._patch(fn, make(name, fn))

    def uninstall(self):
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    # -- results ---------------------------------------------------------------
    def root(self, name):
        """Context for one request: a root span that parents the layer spans."""
        return _Root(self, name)

    def metrics(self) -> dict:
        covered = defaultdict(float)
        for layer, start, end, parent, _req in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for sid, (layer, start, end, _parent, _req) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - covered[sid]
        rebuilds = 0
        for layer, _s, _e, parent, _req in self.spans:
            if layer != "comparisons.certificate":
                continue
            while parent >= 0 and self.spans[parent][0] != "rigidity.check":
                parent = self.spans[parent][3]
            rebuilds += parent >= 0
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        eig_calls = calls["spectra.eigensolve"]
        out["spectra.eigensolve.distinct_ratio"] = (
            len(self._operators) / eig_calls if eig_calls else 0.0)
        out["curvature.distances.per_graph"] = (
            calls["curvature.distances"] / len(self._graphs) if self._graphs else 0.0)
        out["rigidity.comparison_rebuilds"] = rebuilds
        out["simplex.pivots"] = self.counts["simplex.pivots"]
        out["simplex.lp_rows.mean"] = float(np.mean(self.lp_rows)) if self.lp_rows else 0.0
        out["simplex.lp_rows.max"] = max(self.lp_rows, default=0)
        return out


class _Root:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.sid)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.sid] = (self.name, self.start, time.perf_counter(), -1, t.request)
        t._stack.pop()
        return False
