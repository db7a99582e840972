"""Spans around the public functions at each `layerscope` module boundary.

`Tracer.install` replaces each target function by a wrapper that records one
span (name, start, end, parent) per call. The program imports names with
`from .x import y`, which copies the binding, so the wrapper is written into
every `layerscope` namespace that holds the original; methods are patched on
their class. Inner predicates such as `walk_set_contains` are left alone: a
span per subsequence test would cost more than the test and say nothing about
which layer an optimisation should target.

Spans are kept in flat arrays in memory and written out only after the timed
region, by `write`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple


def _result_len(args, result) -> int:
    return len(result)


def _gcd_degree(args, result) -> int:
    return max(args[0].degree, args[1].degree)


def _graph_vertices(args, result) -> int:
    return len(result.vertices)


def _apsp_cells(args, result) -> int:
    # args[0] is the DistanceTable itself; one byte per ordered pair
    return len(args[1].vertices) ** 2


# (layer, attribute path inside layerscope.<layer>, size recorded per span)
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("polynomials", "poly_gcd", _gcd_degree),
    ("polynomials", "RationalFunction.__init__", None),
    ("polynomials", "RationalFunction.__add__", None),
    ("polynomials", "RationalFunction.__sub__", None),
    ("polynomials", "RationalFunction.__mul__", None),
    ("polynomials", "RationalFunction.__truediv__", None),
    ("polynomials", "RationalFunction.evaluate", None),
    ("vertex_classes", "enumerate_classes", _result_len),
    ("vertex_classes", "classes_realizable", _result_len),
    ("layers", "layer_poly_eval", None),
    ("layers", "layer_star_poly", None),
    ("layers", "intersection_report_eval", None),
    ("layers", "intersection_report", None),
    ("layers", "unique_j0", None),
    ("layers", "intersection_poly_at", None),
    ("probabilities", "p_in", None),
    ("probabilities", "mean_distance", None),
    ("probabilities", "p_t", None),
    ("probabilities", "p_t_value", None),
    ("probabilities", "_p_t_symbolic", None),
    ("probabilities", "build_chain", None),
    ("probabilities", "hitting_times", None),
    ("probabilities", "expected_hops", None),
    ("probabilities", "DeflectionChain.start_from_input_probabilities", None),
    ("graphs", "build_explicit", _graph_vertices),
    ("graphs", "bfs_distances", None),
    ("graphs", "distance", None),
    ("oracle", "DistanceTable.__init__", _apsp_cells),
    ("oracle", "oracle_transition_table", None),
    ("oracle", "simulate_walk_hops", None),
    ("oracle", "verify_graph", None),
    ("oracle", "verify_grid", None),
    ("cli", "main", None),
]

# functools.lru_cache'd functions whose cache_info() gives the hit ratio
CACHED = [
    ("probabilities", "p_in"),
    ("probabilities", "mean_distance"),
    ("probabilities", "_p_t_symbolic"),
    ("probabilities", "p_t_value"),
]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []  # span name table, "layer.function"
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: Dict[int, int] = {}  # span index -> recorded size
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, size: Optional[Callable]) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        sizes, stack, clock = self.sizes, self._stack, time.perf_counter

        def span(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if size is not None:
                sizes[idx] = size(args, result)
            return result

        return span

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items() if k == "layerscope" or k.startswith("layerscope.")]
        for layer, path, size in TARGETS:
            owner = sys.modules[f"layerscope.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{path}", original, size)
            if outer:  # a method: the class object is shared by every importer
                self._patch(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, wrapper)

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis (after the timed region) ---------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, max and sum of sizes."""
        n = len(self.name_id)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        covered = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                covered[p] += dur[k]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "size_max": 0, "size_sum": 0} for name in self.names}
        for k in range(n):
            entry = out[self.names[self.name_id[k]]]
            entry["calls"] += 1
            entry["incl_s"] += dur[k]
            entry["self_s"] += dur[k] - covered[k]
        for k, size in self.sizes.items():
            entry = out[self.names[self.name_id[k]]]
            entry["size_max"] = max(entry["size_max"], size)
            entry["size_sum"] += size
        return out

    def covered_s(self, *paths: str) -> float:
        """Seconds inside calls of any of the named functions, nested calls counted once."""
        wanted = {k for k, name in enumerate(self.names) if name in paths}
        inside = bytearray(len(self.name_id))  # parents precede their children
        total = 0.0
        for k in range(len(self.name_id)):
            p = self.parent[k]
            outer = p >= 0 and (inside[p] or self.name_id[p] in wanted)
            inside[k] = outer
            if not outer and self.name_id[k] in wanted:
                total += self.end[k] - self.start[k]
        return total

    def realizable_ratio(self) -> float:
        """Classes kept by classes_realizable over the classes it enumerated; 0 without calls."""
        names = self.names
        kept = enumerated = 0
        for k, size in self.sizes.items():
            if names[self.name_id[k]] == "vertex_classes.enumerate_classes":
                p = self.parent[k]
                if p >= 0 and names[self.name_id[p]] == "vertex_classes.classes_realizable":
                    enumerated += size
                    kept += self.sizes[p]
        return kept / enumerated if enumerated else 0.0

    def layer_metrics(self, fn: dict) -> Dict[str, float]:
        """The per-layer metrics of one traced pass from its `summary()` (see README.md)."""
        self_s = {layer: 0.0 for layer, _, _ in TARGETS}
        for name, entry in fn.items():
            self_s[name.split(".", 1)[0]] += entry["self_s"]
        # none of these functions calls itself, so their inclusive times do not overlap
        incl = {name: entry["incl_s"] for name, entry in fn.items()}
        return {
            "polynomials.gcd_calls": fn["polynomials.poly_gcd"]["calls"],
            "polynomials.gcd_s": incl["polynomials.poly_gcd"],
            "polynomials.gcd_max_degree": fn["polynomials.poly_gcd"]["size_max"],
            "polynomials.rf_built": fn["polynomials.RationalFunction.__init__"]["calls"],
            "polynomials.self_s": self_s["polynomials"],
            "vertex_classes.enumerate_calls": fn["vertex_classes.enumerate_classes"]["calls"],
            "vertex_classes.classes_built": fn["vertex_classes.enumerate_classes"]["size_sum"],
            "vertex_classes.enumerate_s": incl["vertex_classes.enumerate_classes"],
            "vertex_classes.realizable_ratio": self.realizable_ratio(),
            "vertex_classes.self_s": self_s["vertex_classes"],
            "layers.layer_poly_calls": fn["layers.layer_poly_eval"]["calls"],
            "layers.report_calls": fn["layers.intersection_report_eval"]["calls"],
            "layers.self_s": self_s["layers"],
            "probabilities.p_in_s": incl["probabilities.p_in"],
            "probabilities.p_t_symbolic_s": incl["probabilities._p_t_symbolic"],
            "probabilities.p_t_value_s": incl["probabilities.p_t_value"],
            # expected_hops calls hitting_times, so this group needs covered_s
            "probabilities.chain_s": self.covered_s(
                "probabilities.build_chain",
                "probabilities.hitting_times",
                "probabilities.expected_hops",
                "probabilities.DeflectionChain.start_from_input_probabilities",
            ),
            "probabilities.self_s": self_s["probabilities"],
            "graphs.build_s": incl["graphs.build_explicit"],
            "graphs.vertices": fn["graphs.build_explicit"]["size_sum"],
            "graphs.bfs_calls": fn["graphs.bfs_distances"]["calls"],
            "graphs.bfs_s": incl["graphs.bfs_distances"],
            "graphs.distance_calls": fn["graphs.distance"]["calls"],
            "graphs.distance_s": incl["graphs.distance"],
            "graphs.self_s": self_s["graphs"],
            "oracle.apsp_s": incl["oracle.DistanceTable.__init__"],
            "oracle.apsp_bytes": fn["oracle.DistanceTable.__init__"]["size_max"],
            "oracle.pt_table_s": incl["oracle.oracle_transition_table"],
            "oracle.walk_s": incl["oracle.simulate_walk_hops"],
            "oracle.verify_self_s": fn["oracle.verify_graph"]["self_s"],
            "oracle.self_s": self_s["oracle"],
            "cli.self_s": self_s["cli"],
            "trace.spans": len(self.name_id),
        }

    def write(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [
            [self.name_id[k], self.start[k] - t0, self.end[k] - t0, self.parent[k]]
            for k in range(len(self.name_id))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)


def cache_hit_ratio() -> float:
    """Hits over lookups of the program's lru caches; 0 before any lookup."""
    hits = lookups = 0
    for layer, name in CACHED:
        info = getattr(sys.modules[f"layerscope.{layer}"], name).cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits / lookups if lookups else 0.0
