"""Span tracing of pvcmon's layers from outside the package.

The tracer substitutes module attributes: every function it traces is
replaced by a wrapper in each pvcmon namespace that bound it by name (the
defining module, the package and any ``from .x import f`` importer), so no
call escapes. A span records its name, start, end, parent span and the id
of the benchmark op that caused it. Spans stay in memory until the run
ends; ``layer_metrics`` turns them into per-layer self times, call counts
and ratios, and ``save`` writes them out.
"""

from __future__ import annotations

import inspect
import json
import math
import time
import weakref
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

MODULES = ("graph", "pvc", "kernels", "monopoly", "reductions", "oracles", "verify", "cli", "corpus")

# Private functions traced besides every public one; each is a layer
# boundary named by the per-layer metrics.
PRIVATE_TARGETS = ("pvc._csr_arrays", "verify._phi_total_profile")

# Symbols the per-layer metrics depend on. One that cannot be found is
# reported as missing and its metrics read 0; the run goes on.
REQUIRED = (
    "graph.from_edges", "graph.parse_graph", "graph.coverage",
    "pvc._csr_arrays", "pvc.pvc_exact", "pvc.pvc_decide", "pvc.pvc_rho_decide",
    "pvc.pvc_greedy_upper", "pvc.pvc_tree", "pvc.pvc_degree_greedy",
    "kernels.bb_min_cover", "kernels.minplus", "kernels.cover_profile",
    "monopoly.smon", "monopoly.sdyn", "monopoly.sdyn_via_subgraph",
    "monopoly.monopoly_witness_tau", "monopoly.dynamo_witness_tau",
    "monopoly.is_monopoly", "monopoly.is_dynamic_monopoly", "monopoly.simulate_spread",
    "reductions.pendant_triple_augment", "reductions.build_gadget",
    "reductions.verify_lemma1", "reductions.verify_lemma2",
    "verify.lemma1_battery", "verify.lemma2_battery", "verify.theorem_battery",
    "verify.witness_identity_battery",
    "cli.main", "cli.build_parser",
)

# Named groups of traced functions whose self times and calls are summed.
GROUPS = {
    "pvc.decide": ("pvc.pvc_decide", "pvc.pvc_rho_decide"),
    "monopoly.witness_tau": ("monopoly.monopoly_witness_tau", "monopoly.dynamo_witness_tau"),
    "monopoly.check": ("monopoly.is_monopoly", "monopoly.is_dynamic_monopoly", "monopoly.simulate_spread"),
    "reductions.verify_lemma": ("reductions.verify_lemma1", "reductions.verify_lemma2"),
    "verify.battery": (
        "verify.lemma1_battery", "verify.lemma2_battery", "verify.theorem_battery",
        "verify.witness_identity_battery", "verify.run_suite",
    ),
}

SELF_MS = (
    "pvc._csr_arrays", "kernels.bb_min_cover", "pvc.pvc_greedy_upper", "pvc.pvc_exact",
    "pvc.decide", "pvc.pvc_tree", "kernels.minplus", "kernels.cover_profile",
    "monopoly.sdyn_via_subgraph", "graph.from_edges", "reductions.build_gadget",
    "reductions.verify_lemma", "graph.coverage", "monopoly.smon", "monopoly.sdyn",
    "monopoly.witness_tau", "monopoly.check", "cli.main", "cli.build_parser",
    "graph.parse_graph", "verify.battery",
)
CALLS = (
    "pvc._csr_arrays", "kernels.bb_min_cover", "pvc.pvc_greedy_upper", "pvc.decide",
    "pvc.pvc_degree_greedy", "kernels.minplus", "graph.from_edges",
    "reductions.pendant_triple_augment", "graph.coverage",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{label}.calls" for label in CALLS]
    names += [f"{label}.self_ms" for label in SELF_MS]
    names += [
        "pvc.csr_builds_per_graph", "pvc.greedy_optimal_ratio", "pvc.decide_shortcut_ratio",
        "kernels.minplus.cells", "kernels.cover_profile.cells", "oracles.self_ms",
        "reductions.augment_per_graph", "monopoly.bb_on_easy_ratio",
    ]
    names += [f"{module}.self_share" for module in MODULES]
    names += ["remainder_share", "trace_overhead"]
    return names


class _DistinctObjects:
    """Counts distinct live objects passed in, by identity.

    A weak reference drops an entry when its object dies, so a new object
    that reuses a dead one's id still counts as new.
    """

    def __init__(self):
        self.count = 0
        self._live: dict[int, object] = {}

    def see(self, obj) -> None:
        key = id(obj)
        ref = self._live.get(key)
        if ref is not None and (ref() if isinstance(ref, weakref.ref) else ref) is obj:
            return
        self.count += 1
        try:
            self._live[key] = weakref.ref(obj, lambda r, k=key: self._drop(k, r))
        except TypeError:  # object without weak-reference support: keep it alive
            self._live[key] = obj

    def _drop(self, key, ref) -> None:
        if self._live.get(key) is ref:
            del self._live[key]


class Tracer:
    """Records spans for calls into pvcmon while installed."""

    def __init__(self, pv):
        self.pv = pv
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_label = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self.counts = Counter()
        self.csr_graphs = _DistinctObjects()
        self.augment_graphs = _DistinctObjects()
        self.reached_bb: set[int] = set()
        self.greedy_size: dict[int, int] = {}
        self.monopoly_queries: list[tuple[str, int, object, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _namespaces(self):
        pv = self.pv
        return [pv.package] + [getattr(pv, name) for name in MODULES]

    def _targets(self) -> list[str]:
        labels = []
        for module_name in MODULES:
            module = getattr(self.pv, module_name)
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    labels.append(f"{module_name}.{name}")
        labels.extend(PRIVATE_TARGETS)
        return labels

    def install(self) -> None:
        graph_cls = getattr(self.pv.graph, "Graph", None)
        raw = graph_cls.__dict__.get("from_edges") if graph_cls is not None else None
        if isinstance(raw, staticmethod):
            wrapper = self._wrap("graph.from_edges", raw.__func__)
            setattr(graph_cls, "from_edges", staticmethod(wrapper))
            self._restore.append((graph_cls, "from_edges", raw))
        found = {"graph.from_edges"} if isinstance(raw, staticmethod) else set()
        for label in self._targets():
            module_name, name = label.split(".", 1)
            original = getattr(getattr(self.pv, module_name), name, None)
            if not callable(original):
                continue
            found.add(label)
            wrapper = self._wrap(label, original)
            for ns in self._namespaces():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, original))
        self.missing = [label for label in REQUIRED if label not in found]

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, label, fn):
        lid = self._label_id(label)
        pre, post = self._hooks(label)
        labels, starts, ends = self.span_label, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self.stack
        clock = time.perf_counter_ns
        tracer = self

        # spans nest, so each span's start and end are stored at its own index
        def wrapper(*args, **kwargs):
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0)
            ends.append(0)
            if pre is not None:
                pre(args)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    # -- per-layer counters ---------------------------------------------------

    def _hooks(self, label):
        counts = self.counts
        if label == "pvc._csr_arrays":
            return (lambda args: self.csr_graphs.see(args[0])), None
        if label == "reductions.pendant_triple_augment":
            return (lambda args: self.augment_graphs.see(args[0])), None
        if label == "kernels.minplus":
            def pre(args):
                counts["minplus.cells"] += len(args[0]) * len(args[1])
            return pre, None
        if label == "kernels.cover_profile":
            def pre(args):
                counts["cover_profile.cells"] += (1 << int(args[0])) * len(args[1])
            return pre, None
        if label == "kernels.bb_min_cover":
            return (lambda args: self.reached_bb.update(self.stack)), None
        if label == "pvc.pvc_greedy_upper":
            exact_id = self._label_id("pvc.pvc_exact")

            def post(idx, args, result):
                for span in reversed(self.stack):
                    if self.span_label[span] == exact_id:
                        self.greedy_size[span] = result.size
                        break
            return None, post
        if label == "pvc.pvc_exact":
            def post(idx, args, result):
                counts["exact.queries"] += 1
                if self.greedy_size.get(idx) == result.size:
                    counts["exact.greedy_optimal"] += 1
            return None, post
        if label in ("pvc.pvc_decide", "pvc.pvc_rho_decide"):
            def post(idx, args, result):
                counts["decide.calls"] += 1
                if idx not in self.reached_bb:
                    counts["decide.shortcut"] += 1
            return None, post
        if label in ("monopoly.smon", "monopoly.sdyn"):
            kind = label.split(".")[1]

            def post(idx, args, result):
                self.monopoly_queries.append((kind, idx, args[0], args[1]))
            return None, post
        return None, None

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Per-span self time in ns: duration minus the time child spans cover."""
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(self.span_start, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        covered = np.zeros(len(dur), dtype=np.int64)
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        return dur - covered

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        selfs = self.self_times()
        label_ids = np.frombuffer(self.span_label, dtype=np.int32)
        n_labels = len(self.labels)
        self_ns = np.bincount(label_ids, weights=selfs, minlength=n_labels)
        calls = np.bincount(label_ids, minlength=n_labels)
        by_label = {lab: (float(self_ns[i]), int(calls[i])) for i, lab in enumerate(self.labels)}

        def total(label):
            members = GROUPS.get(label, (label,))
            return (
                sum(by_label.get(m, (0.0, 0))[0] for m in members),
                sum(by_label.get(m, (0, 0))[1] for m in members),
            )

        out: dict[str, float] = {}
        for label in CALLS:
            out[f"{label}.calls"] = total(label)[1]
        for label in SELF_MS:
            out[f"{label}.self_ms"] = total(label)[0] / 1e6
        c = self.counts
        out["pvc.csr_builds_per_graph"] = _ratio(total("pvc._csr_arrays")[1], self.csr_graphs.count)
        out["pvc.greedy_optimal_ratio"] = _ratio(c["exact.greedy_optimal"], c["exact.queries"])
        out["pvc.decide_shortcut_ratio"] = _ratio(c["decide.shortcut"], c["decide.calls"])
        out["kernels.minplus.cells"] = c["minplus.cells"]
        out["kernels.cover_profile.cells"] = c["cover_profile.cells"]
        module_self = Counter()
        for lab, (ns, _) in by_label.items():
            module_self[lab.split(".", 1)[0]] += ns
        out["oracles.self_ms"] = module_self["oracles"] / 1e6
        out["reductions.augment_per_graph"] = _ratio(
            total("reductions.pendant_triple_augment")[1], self.augment_graphs.count
        )
        out["monopoly.bb_on_easy_ratio"] = self._bb_on_easy_ratio()
        wall_ns = traced_wall_s * 1e9
        for module in MODULES:
            out[f"{module}.self_share"] = module_self[module] / wall_ns
        out["remainder_share"] = 1.0 - sum(module_self.values()) / wall_ns
        out["trace_overhead"] = traced_wall_s / untraced_wall_s
        return out

    def _bb_on_easy_ratio(self) -> float:
        easy_memo: dict[int, bool] = {}
        asked = reached = 0
        for kind, idx, graph, t in self.monopoly_queries:
            if id(graph) not in easy_memo:
                easy_memo[id(graph)] = is_easy_graph(graph.n, graph.edges)
            if not easy_memo[id(graph)]:
                continue
            nt = graph.n * Fraction(t)
            target = math.ceil(nt / 2) if kind == "smon" else math.ceil(nt) - len(graph.edges)
            if target <= 0:
                continue
            asked += 1
            reached += idx in self.reached_bb
        return _ratio(reached, asked)

    def save(self, path: Path) -> None:
        """Write every span (columns) and the label table to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            labels=np.array(json.dumps(self.labels)),
            label=np.frombuffer(self.span_label, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def is_easy_graph(n: int, edges) -> bool:
    """Forest, or bipartite with one side's min degree >= the other's max.

    These are the graphs with a polynomial partial-cover solver (tree DP,
    degree greedy); checked here with the benchmark's own code.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    forest = True
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            forest = False
            break
        parent[ru] = rv
    if forest:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        for v in queue:
            for u in adj[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    deg = [len(a) for a in adj]
    sides = [[v for v in range(n) if color[v] == c] for c in (0, 1)]
    for x, y in (sides, sides[::-1]):
        if min((deg[v] for v in x), default=0) >= max((deg[v] for v in y), default=0):
            return True
    return False
