"""Fully connected layered DAGs and deterministic shortest paths.

The benchmark network has a single source, ``h`` intermediate layers of
``w`` nodes each, a single sink, and every consecutive pair of layers fully
connected.  Costs are linear over arcs, so the deterministic problem is
solved exactly by dynamic programming over the layers; no MIP solver is
needed.  Only this module knows the arc numbering and the tie rule.
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
    sink = 1 + h * w
    layers = [[0], *(range(1 + l * w, 1 + (l + 1) * w) for l in range(h)), [sink]]
    arcs = [arc for tails, heads in zip(layers, layers[1:])
            for arc in itertools.product(tails, heads)]
    return LayeredGraph(h, w, tuple(arcs), 0, sink)


def _path(g: LayeredGraph, choices) -> Decision:
    """The path through node ``choices[l - 1]`` of each layer l.  In the
    numbering of :func:`build_layered` the source arc to choice j is j, the
    arc from choice a in layer l to choice b in layer l + 1 is
    w + (l - 1) w^2 + a w + b, and the sink arc from choice j is num_arcs - w + j."""
    w = g.w
    inner = [w + (l * w + a) * w + b for l, (a, b) in enumerate(zip(choices, choices[1:]))]
    incidence = np.zeros(g.num_arcs, dtype=np.int8)
    incidence[[choices[0], *inner, g.num_arcs - w + choices[-1]]] = 1
    nodes = (g.source, *(1 + l * w + j for l, j in enumerate(choices)), g.sink)
    return Decision(incidence, nodes)


def decision_from_nodes(g: LayeredGraph, nodes) -> Decision:
    """The decision visiting ``nodes``: the source, one node per layer in order, the sink."""
    nodes = tuple(int(n) for n in nodes)
    choices = np.array(nodes[1:-1], dtype=np.intp) - 1
    choices -= g.w * np.arange(choices.size)
    if (len(nodes) != g.h + 2 or nodes[0] != g.source or nodes[-1] != g.sink
            or np.any((choices < 0) | (choices >= g.w))):
        raise ValueError(f"nodes {nodes} are not a source-sink path of the {g.h}x{g.w} graph")
    return _path(g, choices.tolist())


def shortest_path(g: LayeredGraph, costs) -> tuple[Decision, float]:
    """Argmin decision and its value by dynamic programming over the layers.

    A head's label is the least of its tails' labels plus the arc cost: the
    additions in path order that :func:`path_cost` makes, so the two agree
    exactly.  Ties go to the lowest tail, and at the sink to the lowest node
    of the last layer.  Costs must be finite: NaN (or inf - inf) has no order.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (g.num_arcs,):
        raise ValueError(f"expected {g.num_arcs} costs, got {costs.shape}")
    finite = np.isfinite(costs)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"arc {k} {g.arcs[k]} has non-finite cost {float(costs[k])!r}")
    w = g.w
    heads = np.arange(w)
    dist = 0.0 + costs[:w]  # the source's label is 0.0, as in path_cost
    tails = []
    for block in costs[w:-w].reshape(g.h - 1, w, w):  # rows are tails, columns heads
        cand = dist[:, None] + block
        tail = cand.argmin(axis=0)  # the first minimum: the lowest tail
        dist = cand[tail, heads]
        tails.append(tail)
    last = dist + costs[-w:]
    j = int(last.argmin())
    choices = [j]
    for tail in reversed(tails):
        choices.append(int(tail[choices[-1]]))
    return _path(g, choices[::-1]), float(last[j])


@functools.lru_cache(maxsize=4)
def _paths_and_incidence(g: LayeredGraph) -> tuple[tuple, np.ndarray]:
    total = g.w**g.h
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"{total} paths exceed the enumeration cap {ENUMERATION_CAP}; use a smaller instance"
        )
    paths = [_path(g, choices) for choices in itertools.product(range(g.w), repeat=g.h)]
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

    Arc order is path order, the order in which :func:`shortest_path` adds
    up its labels, so the two agree exactly in floating point.
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
