"""Fully connected layered DAGs and deterministic shortest paths.

The benchmark network has a single source, ``h`` intermediate layers of
``w`` nodes each, a single sink, and every consecutive pair of layers fully
connected.  Costs are linear over arcs, so the deterministic problem is
solved exactly by a forward pass in layer order; no MIP solver is needed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["LayeredGraph", "Decision", "build_layered", "shortest_path", "enumerate_paths",
           "path_incidence", "to_edgelist", "path_cost"]

ENUMERATION_CAP = 100_000


@dataclass(frozen=True)
class LayeredGraph:
    h: int
    w: int
    arcs: tuple  # ordered (tail, head) pairs, layer-major
    source: int
    sink: int

    @property
    def num_nodes(self) -> int:
        return 2 + self.h * self.w

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    @property
    def path_length(self) -> int:
        """Arcs on any source-sink path."""
        return self.h + 1

    def node(self, layer: int, j: int) -> int:
        return 1 + (layer - 1) * self.w + j

    def arc_index(self, tail: int, head: int) -> int:
        lookup = getattr(self, "_lookup_cache", None)
        if lookup is None:
            lookup = {arc: k for k, arc in enumerate(self.arcs)}
            object.__setattr__(self, "_lookup_cache", lookup)
        return lookup[(tail, head)]


@dataclass(frozen=True)
class Decision:
    """Binary incidence vector over arcs; the ones form a source-sink path."""

    incidence: np.ndarray
    nodes: tuple

    def __post_init__(self):
        inc = np.asarray(self.incidence, dtype=np.int8)
        inc.setflags(write=False)
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))

    def __eq__(self, other):
        return isinstance(other, Decision) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)


def build_layered(h: int, w: int) -> LayeredGraph:
    """Deterministic arc ordering: layer-major, then tail index, then head index."""
    if h < 1 or w < 1:
        raise ValueError("h and w must be >= 1")
    source = 0
    sink = 1 + h * w
    arcs = []
    for j in range(w):
        arcs.append((source, 1 + j))
    for layer in range(1, h):
        for jt in range(w):
            for jh in range(w):
                arcs.append((1 + (layer - 1) * w + jt, 1 + layer * w + jh))
    for j in range(w):
        arcs.append((1 + (h - 1) * w + j, sink))
    return LayeredGraph(h, w, tuple(arcs), source, sink)


def decision_from_nodes(g: LayeredGraph, nodes) -> Decision:
    incidence = np.zeros(g.num_arcs, dtype=np.int8)
    for tail, head in zip(nodes[:-1], nodes[1:]):
        incidence[g.arc_index(tail, head)] = 1
    return Decision(incidence, tuple(nodes))


def shortest_path(g: LayeredGraph, costs) -> tuple[Decision, float]:
    """Argmin decision and its value by a forward pass in arc order.

    Arcs are already topologically sorted; updating only on strict
    improvement makes ties resolve to the lowest tail index, so repeated
    runs are bit-for-bit identical.  Costs must be finite: a NaN never
    improves a label, so it would leave nodes without a predecessor.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (g.num_arcs,):
        raise ValueError(f"expected {g.num_arcs} costs, got {costs.shape}")
    finite = np.isfinite(costs)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"arc {k} {g.arcs[k]} has non-finite cost {float(costs[k])!r}")
    dist = np.full(g.num_nodes, np.inf)
    dist[g.source] = 0.0
    pred = np.full(g.num_nodes, -1, dtype=int)
    for k, (tail, head) in enumerate(g.arcs):
        cand = dist[tail] + costs[k]
        if cand < dist[head]:
            dist[head] = cand
            pred[head] = k
    nodes = [g.sink]
    for _ in range(g.path_length):  # every source-sink path has h + 1 arcs
        nodes.append(g.arcs[pred[nodes[-1]]][0])
    nodes.reverse()
    return decision_from_nodes(g, nodes), float(dist[g.sink])


@functools.lru_cache(maxsize=4)
def _paths_and_incidence(g: LayeredGraph) -> tuple[tuple, np.ndarray]:
    total = g.w**g.h
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"{total} paths exceed the enumeration cap {ENUMERATION_CAP}; use a smaller instance"
        )
    paths = []
    for combo in itertools.product(range(g.w), repeat=g.h):
        nodes = [g.source]
        for layer, j in enumerate(combo, start=1):
            nodes.append(g.node(layer, j))
        nodes.append(g.sink)
        paths.append(decision_from_nodes(g, nodes))
    incidence = np.array([x.incidence for x in paths], dtype=float)
    incidence.setflags(write=False)
    return tuple(paths), incidence


def enumerate_paths(g: LayeredGraph) -> tuple[Decision, ...]:
    """All w**h source-sink paths in lexicographic layer order.

    Built once per graph (a small LRU cache keyed by the graph); a graph
    with more than ``ENUMERATION_CAP`` paths raises before any is built.
    """
    return _paths_and_incidence(g)[0]


def path_incidence(g: LayeredGraph) -> np.ndarray:
    """Read-only (paths x arcs) 0/1 float matrix, one row per path of
    :func:`enumerate_paths` in its order; built once per graph with it."""
    return _paths_and_incidence(g)[1]


def path_cost(decision: Decision, costs) -> float:
    """Sum of selected arc costs, accumulated in arc order.

    Sequential order matches the forward pass in :func:`shortest_path`, so
    the two agree exactly in floating point.
    """
    costs = np.asarray(costs, dtype=float)
    total = 0.0
    for k in np.flatnonzero(decision.incidence):
        total += float(costs[k])
    return total


def to_edgelist(g: LayeredGraph) -> str:
    """Debug dump: header ``h w`` then one ``tail head`` line per arc."""
    lines = [f"{g.h} {g.w}"]
    lines.extend(f"{tail} {head}" for tail, head in g.arcs)
    return "\n".join(lines) + "\n"
