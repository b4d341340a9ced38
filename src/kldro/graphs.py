"""Fully connected layered DAGs and deterministic shortest paths.

The benchmark network has a single source, ``h`` intermediate layers of
``w`` nodes each, a single sink, and every consecutive pair of layers fully
connected.  A source-sink path is its node choices: the index in
``range(w)`` of the node it visits in each layer, a tuple of h ints for
one path or an (..., h) integer array for many.  Costs are linear over
arcs, so a path's cost is the sum of its h + 1 arc costs, and the
deterministic problem is solved exactly by dynamic programming over the
layers; no MIP solver is needed.  Only this module knows the arc numbering
and the tie rule.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["LayeredGraph", "Routes", "build_layered", "shortest_path", "enumerate_paths",
           "to_edgelist", "path_nodes", "route_costs"]

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


def build_layered(h: int, w: int) -> LayeredGraph:
    """Deterministic arc ordering: layer-major, then tail index, then head index."""
    if h < 1 or w < 1:
        raise ValueError("h and w must be >= 1")
    sink = 1 + h * w
    layers = [[0], *(range(1 + l * w, 1 + (l + 1) * w) for l in range(h)), [sink]]
    arcs = [arc for tails, heads in zip(layers, layers[1:])
            for arc in itertools.product(tails, heads)]
    return LayeredGraph(h, w, tuple(arcs), 0, sink)


def _path_arcs(g: LayeredGraph, choices) -> np.ndarray:
    """The arcs, in path order, of the paths through node ``choices[..., l - 1]``
    of each layer l: (..., h + 1).  In the numbering of :func:`build_layered`
    the source arc to choice j is j, the arc from choice a in layer l to
    choice b in layer l + 1 is w + (l - 1) w^2 + a w + b, and the sink arc
    from choice j is num_arcs - w + j."""
    choices, w = np.asarray(choices), g.w
    inner = w + (np.arange(g.h - 1) * w + choices[..., :-1]) * w + choices[..., 1:]
    return np.concatenate([choices[..., :1], inner, g.num_arcs - w + choices[..., -1:]], axis=-1)


def path_nodes(g: LayeredGraph, choices) -> np.ndarray:
    """The source, node ``choices`` (..., h) of each layer, and the sink."""
    inner = 1 + np.arange(g.h) * g.w + np.asarray(choices)
    ends = [(0, 0)] * (inner.ndim - 1) + [(1, 1)]
    return np.pad(inner, ends, constant_values=(g.source, g.sink))


def route_costs(g: LayeredGraph, choices, costs) -> np.ndarray:
    """Cost of each path through ``choices`` (..., h) under each column of
    arc ``costs`` (arcs, ...): one gather of arc rows, then the h + 1 arc
    costs added left to right, in path order, the order in which
    :func:`shortest_path` adds up its labels, so the two agree exactly."""
    picked = np.asarray(costs, dtype=float)[_path_arcs(g, choices)]
    return functools.reduce(np.add, np.moveaxis(picked, np.ndim(choices) - 1, 0))


@dataclass(frozen=True)
class Routes:
    """Paths for R rows, from ``shortest_path`` or dro1: node ``choices`` (R, h)
    and ``values`` (R,); ``routes[k]`` is row k's ``(path, value)``, the
    path a tuple of h node choices."""

    choices: np.ndarray
    values: np.ndarray

    def __getitem__(self, k: int) -> tuple[tuple, float]:
        return tuple(self.choices[k].tolist()), float(self.values[k])


def shortest_path(g: LayeredGraph, costs):
    """Argmin path and its value by dynamic programming over the layers.

    ``costs`` is one row of arc costs, answered with ``(path, value)``, the
    path a tuple of h node choices, or an (R, arcs) matrix whose rows are
    solved at once, answered with :class:`Routes`; a row's answer is the
    same either way.  A head's label is the least of its tails' labels plus
    the arc cost: the additions in path order that :func:`route_costs`
    makes, so the two agree exactly.  Ties go to the lowest tail, and at
    the sink to the lowest node of the last layer.  Costs must be finite:
    NaN (or inf - inf) has no order.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim not in (1, 2) or costs.shape[-1] != g.num_arcs:
        raise ValueError(f"expected {g.num_arcs} costs per row, got {costs.shape}")
    rows = costs.reshape(-1, g.num_arcs)
    finite = np.isfinite(rows)
    if not finite.all():
        row, k = divmod(int(np.argmin(finite)), g.num_arcs)
        where = f"row {row}: " if costs.ndim == 2 else ""
        raise ValueError(f"{where}arc {k} {g.arcs[k]} has non-finite cost {float(rows[row, k])!r}")
    n, w = rows.shape[0], g.w
    every = np.arange(n)
    dist = 0.0 + rows[:, :w]  # the source's label is 0.0
    tails = []
    # per row, (h - 1) blocks whose rows are tails and columns heads
    for block in np.moveaxis(rows[:, w:-w].reshape(n, g.h - 1, w, w), 1, 0):
        cand = dist[:, :, None] + block
        tail = cand.argmin(axis=1)  # the first minimum: the lowest tail
        dist = np.take_along_axis(cand, tail[:, None, :], axis=1)[:, 0]
        tails.append(tail)
    last = dist + rows[:, -w:]
    choice = last.argmin(axis=1)
    choices = [choice]
    for tail in reversed(tails):
        choices.append(tail[every, choices[-1]])
    routes = Routes(np.stack(choices[::-1], axis=1), last[every, choice])
    return routes[0] if costs.ndim == 1 else routes


def enumerate_paths(g: LayeredGraph) -> np.ndarray:
    """The node choices (w**h, h) of all source-sink paths in the order in
    which :func:`shortest_path` breaks exact ties: by the node of the last
    layer first, then of the layer before it, and so on (``itertools.product``
    over the layers read from the sink).  Built afresh on each call; a graph
    with more than ``ENUMERATION_CAP`` paths raises before any is built.
    """
    total = g.w**g.h
    if total > ENUMERATION_CAP:
        # a power, since str() of a count above 4,300 digits raises
        raise ValueError(
            f"{g.w}**{g.h} paths exceed the enumeration cap {ENUMERATION_CAP}; use a smaller instance"
        )
    return np.stack(np.unravel_index(np.arange(total), (g.w,) * g.h)[::-1], axis=-1)


def to_edgelist(g: LayeredGraph) -> str:
    """Debug dump: header ``h w`` then one ``tail head`` line per arc."""
    lines = [f"{g.h} {g.w}"]
    lines.extend(f"{tail} {head}" for tail, head in g.arcs)
    return "\n".join(lines) + "\n"
