"""Span recorder for the per-layer metrics, installed from outside magcurv.

`Tracer.install` replaces each traced public function under every name a
magcurv module binds it to (so `magcurv.bounds.cheeger_number` and
`magcurv.combinatorics.cheeger_number` both record), and `uninstall` puts the
originals back. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# The public functions of each layer that the traced run wraps, by module.
LAYER_FUNCTIONS = {
    "cli": ("main", "dispatch"),
    "bounds": ("verify_report", "harnack_check", "alpha_bound_check",
               "eigenvalue_lower_bound", "cheeger_bound_check"),
    "combinatorics": ("cheeger_number", "frustration_index", "magnetic_girth",
                      "shortest_generating_closed_walk"),
    "curvature": ("kappa_max", "kappa_max_bisect", "cd_check_graph",
                  "cd_check_function"),
    "operators": ("form_family", "spectrum", "energy", "gamma", "gamma2",
                  "laplacian_matrix", "as_vertex_function"),
    "lift": ("build_lift", "verify_lift_identities", "lift_function",
             "lift_diameter_check"),
    "graphs": ("load_graph", "random_magnetic_graph", "diameter",
               "hop_distances", "is_connected", "connected_components",
               "signature_status"),
}
TRACED = tuple(f"{layer}.{name}" for layer, names in LAYER_FUNCTIONS.items()
               for name in names)
# Functions whose share of repeated inputs is measured (distinct_frac).
DISTINCT = ("combinatorics.magnetic_girth", "operators.spectrum",
            "curvature.kappa_max")
SETUP_REQUEST = "setup"


def _input_key(value):
    """Hashable identity of an argument; graphs compare by content."""
    edges = getattr(value, "edges", None)
    if edges is not None and hasattr(value, "num_vertices"):
        return ("graph", value.num_vertices, value.ell, edges)
    return repr(value)


def _cheeger_subsets(arguments, result) -> int:
    """Subsets an exact search enumerates, 2^N - 1, computed from the input."""
    if arguments.get("mode", "exact") != "exact":
        return 0
    return 2 ** arguments["g"].num_vertices - 1


def _array_bytes(arguments, result) -> int:
    return sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))


# name -> (counter suffix, function of (bound arguments, result)), counted on return.
COUNTERS = {
    "combinatorics.cheeger_number": ("subsets", _cheeger_subsets),
    "operators.form_family": ("bytes", _array_bytes),
}


class Tracer:
    """Records (id, parent, request, name, start, end) for each traced call."""

    def __init__(self):
        self.spans: list = []
        self.request = SETUP_REQUEST
        self.counters: dict[str, int] = defaultdict(int)
        self.keys: dict[tuple, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patched: list = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "magcurv" or name.startswith("magcurv.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"magcurv.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        distinct = name in DISTINCT
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = None
            if distinct or counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            if distinct:
                self.keys[(name, self.request)].add(
                    tuple(_input_key(v) for v in arguments.values()))
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, self.request, name,
                                       start, end)
            if counter:
                suffix, count = counter
                self.counters[f"{name}.{suffix}"] += count(arguments, result)
            return result

        return wrapper

    def layer_metrics(self, pass_s: float) -> dict[str, float]:
        """Self time and calls per traced function, the counters, distinct_frac,
        and the share of the pass spent inside root spans (trace.coverage)."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = dict.fromkeys(TRACED, 0.0)
        calls = dict.fromkeys(TRACED, 0)
        covered = 0.0
        for span_id, parent, request, name, start, end in self.spans:
            self_s[name] += end - start - child[span_id]
            calls[name] += 1
            if parent is None and request != SETUP_REQUEST:
                covered += end - start
        out = {}
        for name in TRACED:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for name, (suffix, _) in COUNTERS.items():
            out[f"{name}.{suffix}"] = self.counters[f"{name}.{suffix}"]
        for name in DISTINCT:
            distinct = sum(len(v) for (n, _), v in self.keys.items() if n == name)
            out[f"{name}.distinct_frac"] = distinct / calls[name] if calls[name] else 1.0
        out["trace.coverage"] = covered / pass_s
        return out

    def write(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta,
                       "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
