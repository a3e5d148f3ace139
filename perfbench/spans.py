"""Spans recorded from outside the package, at the layer boundaries.

``install`` replaces public functions of ``lassomatroid`` where their
callers look them up (module globals, class attributes) with wrappers that
record one span per call: name, start, end, parent span and operation id.
A generator gets one span per resumption, so its time excludes the
consumer's.  Spans live in flat arrays until the run ends; ``summarize``
turns them into the per-layer metrics, each ``_s`` with its ``_self_s``.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.counts = {}

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name_ix):
        i = len(self.start)
        self.span_name.append(name_ix)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def write(self, path):
        """Header line of JSON (names, count), then the five arrays in order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["span_name:i", "parent:i", "op:i", "start:d", "end:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def _wrap(tracer, name, fn, on_result=None):
    ix = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.open(ix)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _wrap_generator(tracer, name, fn, emitted):
    ix = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            traced = tracer.active
            i = tracer.open(ix) if traced else None
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if traced:
                    tracer.close(i)
            if traced:
                tracer.count(emitted)
            yield item

    return wrapper


def install(tracer):
    """Wrap every traced entry point for the rest of the process."""
    from lassomatroid import cli, exact, lasso, matroid, reconstruct, stargraph, tree

    def patch(owners, attr, wrapped):
        for owner in owners:
            setattr(owner, attr, wrapped)

    def counting(key, predicate):
        return lambda args, result: tracer.count(key) if predicate(args, result) else None

    def on_feasible(args, result):
        system = args[0]
        tracer.count("exact.feasible_constraints", len(system.equalities)
                     + len(system.strict_inequalities) + len(system.weak_inequalities))
        if result:
            tracer.count("exact.feasible_true")

    patch([exact.RowSpace], "add", _wrap(tracer, "exact.rowspace_add", exact.RowSpace.add,
                                         counting("exact.rowspace_add_useful", lambda a, r: r)))
    patch([exact.RowSpace], "contains", _wrap(tracer, "exact.rowspace_contains",
                                              exact.RowSpace.contains))
    patch([exact, lasso], "feasible", _wrap(tracer, "exact.feasible", exact.feasible, on_feasible))
    patch([lasso], "is_topological_lasso", _wrap(
        tracer, "lasso.topological", lasso.is_topological_lasso,
        counting("lasso.topological_negative", lambda a, r: not r)))
    patch([matroid], "bases", _wrap_generator(tracer, "matroid.bases", matroid.bases,
                                              "matroid.bases_emitted"))
    patch([matroid], "contraction_bases", _wrap_generator(
        tracer, "matroid.contraction_bases", matroid.contraction_bases,
        "matroid.contraction_emitted"))
    for name in ("rank_of", "closure", "coloops", "verdict"):
        patch([matroid], name, _wrap(tracer, f"matroid.{name}", getattr(matroid, name)))
    patch([tree, lasso, reconstruct, cli], "enumerate_xtrees", _wrap_generator(
        tracer, "tree.enumerate_xtrees", tree.enumerate_xtrees, "tree.shapes_enumerated"))
    patch([tree, reconstruct, cli], "quartet_topology",
          _wrap(tracer, "tree.quartet_topology", tree.quartet_topology))
    patch([tree, cli], "parse_newick", _wrap(tracer, "tree.parse_newick", tree.parse_newick))
    patch([tree.XTree], "contract", _wrap(tracer, "tree.contract", tree.XTree.contract))
    patch([reconstruct], "tree_from_oracle",
          _wrap(tracer, "reconstruct.tree_from_oracle", reconstruct.tree_from_oracle))
    patch([reconstruct], "quartet_set_from_oracle", _wrap(
        tracer, "reconstruct.quartet_set_from_oracle", reconstruct.quartet_set_from_oracle))
    patch([stargraph, lasso], "analyze", _wrap(tracer, "stargraph.analyze", stargraph.analyze))
    patch([cli], "main", _wrap(tracer, "cli.main", cli.main))


# Per-layer metrics by span name.  "calls" counts the spans; "s" sums their
# durations and adds the matching "_self_s".
SPAN_METRICS = [
    ("exact.rowspace_add", ("calls", "s")),
    ("exact.rowspace_contains", ("calls", "s")),
    ("exact.feasible", ("calls", "s")),
    ("lasso.topological", ("calls", "s")),
    ("matroid.bases", ("s",)),
    ("matroid.contraction_bases", ("s",)),
    ("matroid.rank_of", ("calls", "s")),
    ("matroid.closure", ("s",)),
    ("matroid.coloops", ("s",)),
    ("matroid.verdict", ("s",)),
    ("tree.enumerate_xtrees", ("s",)),
    ("tree.quartet_topology", ("calls", "s")),
    ("tree.parse_newick", ("calls", "s")),
    ("tree.contract", ("calls",)),
    ("reconstruct.tree_from_oracle", ("s",)),
    ("reconstruct.quartet_set_from_oracle", ("s",)),
    ("stargraph.analyze", ("calls", "s")),
    ("cli.main", ("calls", "s")),
]


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer, extra_counts):
    """Per-layer metrics from the recorded spans plus the wrapper counts."""
    n = len(tracer.start)
    start, end, parent, names = tracer.start, tracer.end, tracer.parent, tracer.span_name
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    per_name = {}
    for i in range(n):
        calls, total, own = per_name.get(names[i], (0, 0.0, 0.0))
        dur = end[i] - start[i]
        per_name[names[i]] = (calls + 1, total + dur, own + dur - child[i])
    ix = {name: k for k, name in enumerate(tracer.names)}

    metrics = {}
    for span, kinds in SPAN_METRICS:
        calls, total, own = per_name.get(ix.get(span), (0, 0.0, 0.0))
        if "calls" in kinds:
            metrics[f"{span}_calls"] = (calls, "count")
        if "s" in kinds:
            metrics[f"{span}_s"] = (total, "s")
            metrics[f"{span}_self_s"] = (own, "s")

    counts = dict(tracer.counts)
    counts.update(extra_counts)
    add_calls = metrics["exact.rowspace_add_calls"][0]
    feasible_calls = metrics["exact.feasible_calls"][0]
    topo_calls = metrics["lasso.topological_calls"][0]
    topo_ix = ix.get("lasso.topological")
    feasible_ix = ix.get("exact.feasible")
    shapes_tried = sum(1 for i in range(n) if names[i] == feasible_ix
                       and parent[i] >= 0 and names[parent[i]] == topo_ix)
    metrics.update({
        "exact.rowspace_add_useful_ratio": (
            _ratio(counts.get("exact.rowspace_add_useful", 0), add_calls), "ratio"),
        "exact.feasible_true_ratio": (
            _ratio(counts.get("exact.feasible_true", 0), feasible_calls), "ratio"),
        "exact.feasible_constraints": (counts.get("exact.feasible_constraints", 0), "count"),
        "lasso.shapes_tried": (shapes_tried, "count"),
        "lasso.negative_ratio": (
            _ratio(counts.get("lasso.topological_negative", 0), topo_calls), "ratio"),
        "lasso.memo_entries": (counts.get("lasso.memo_entries", 0), "count"),
        "matroid.bases_emitted": (counts.get("matroid.bases_emitted", 0), "count"),
        "matroid.contraction_emitted": (counts.get("matroid.contraction_emitted", 0), "count"),
        "tree.shapes_enumerated": (counts.get("tree.shapes_enumerated", 0), "count"),
        "reconstruct.rank_queries": (counts.get("reconstruct.rank_queries", 0), "count"),
    })
    return metrics
