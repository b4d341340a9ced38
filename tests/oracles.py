"""Reference implementations the tests check the package against.

* ``dual_objective`` evaluates the scalar KL dual at one beta;
* ``primal_oracle`` searches the simplex for the worst-case mean directly;
* ``joint_atoms_reference`` builds the joint empirical with ``np.unique``;
* ``dataset_from_costs`` turns per-action cost vectors into a ``DataSet``;
* ``shortest_path_reference`` is a forward pass over the arcs one by one;
* ``path_cost`` sums a path's arc costs one at a time, in path order.
"""

import math

import numpy as np

from kldro.graphs import path_nodes
from kldro.marginals import DataSet, Marginal, Support, _absorb_rounding


def dataset_from_costs(support: Support, samples) -> DataSet:
    """A data set from one cost vector per action.  A cost that is not a
    support point becomes index -1, which ``DataSet`` rejects."""
    samples = [np.asarray(obs, dtype=float) for obs in samples]
    sizes = np.array([obs.size for obs in samples], dtype=int)
    costs = np.concatenate(samples)
    points, d = support.points, support.size
    index = np.searchsorted(points, costs)
    index[(index >= d) | (points[np.minimum(index, d - 1)] != costs)] = -1
    return DataSet(support, index, sizes)


def joint_atoms_reference(data: DataSet) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and probabilities of the joint empirical of the first T_min
    observations, from ``np.unique(rows, axis=0)`` over the cost rows."""
    t_min = data.t_min
    starts = (np.cumsum(data.sizes) - data.sizes).tolist()
    rows = np.stack([data.support.points[data.index[s:s + t_min]] for s in starts], axis=1)
    atoms, counts = np.unique(rows, axis=0, return_counts=True)
    probs = counts.astype(float) / t_min
    _absorb_rounding(probs, 1.0, int(np.argmin(probs)))
    return atoms, probs


def dual_objective(beta: float, empirical: Marginal, r_a: float) -> float:
    """beta - e^{-r} prod_i (beta - z_i)^{q_i}; factors with q_i = 0 drop out."""
    if r_a < 0.0:
        raise ValueError("radius must be nonnegative")
    z_top = empirical.support.max
    if beta < z_top:
        raise ValueError(f"beta={beta!r} below top support point {z_top!r}")
    seen = empirical.probs > 0.0
    diffs = beta - empirical.support.points[seen]
    if np.any(diffs <= 0.0):
        return beta  # the product vanishes on the boundary
    return beta - math.exp(-r_a + float(np.sum(empirical.probs[seen] * np.log(diffs))))




def _kl_to_rows(qhat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """KL(qhat || row) for each row, with the usual 0/inf conventions."""
    mask = qhat > 0.0
    with np.errstate(divide="ignore"):
        logs = np.log(rows[:, mask])
    terms = qhat[mask] * (np.log(qhat[mask]) - logs)
    out = np.sum(terms, axis=1)
    out[np.any(rows[:, mask] == 0.0, axis=1)] = np.inf
    return out


def primal_oracle(empirical: Marginal, r_a: float, grid: float = 1e-3) -> float:
    """Feasible-point grid search for the worst-case mean (d <= 4).

    Searches the simplex on a mesh that is repeatedly recentered on the best
    feasible point and refined until the spacing drops to ``grid``.  Every
    candidate is checked against the KL constraint directly, so the result
    never exceeds the true maximum and approaches it to within O(grid).
    """
    d = empirical.support.size
    if d > 4:
        raise ValueError("oracle cost grows as grid^(d-1); use d <= 4")
    if r_a < 0.0:
        raise ValueError("radius must be nonnegative")
    z = empirical.support.points
    qhat = empirical.probs
    if r_a == 0.0 or d == 1:
        return empirical.mean()

    npts = 17
    lo = np.zeros(d - 1)
    hi = np.ones(d - 1)
    best_q = qhat.copy()
    best_val = empirical.mean()
    while True:
        axes = [np.linspace(lo[k], hi[k], npts) for k in range(d - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        free = np.stack([m.ravel() for m in mesh], axis=1)
        tail = 1.0 - np.sum(free, axis=1)
        keep = tail >= -1e-12
        free, tail = free[keep], np.maximum(tail[keep], 0.0)
        rows = np.concatenate([free, tail[:, None]], axis=1)
        feasible = _kl_to_rows(qhat, rows) <= r_a
        moved = False
        if np.any(feasible):
            vals = rows[feasible] @ z
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                moved = True
                best_val = float(vals[k])
                best_q = rows[feasible][k]
        spacing = (hi - lo) / (npts - 1)
        if np.all(spacing <= grid):
            return best_val
        # Shrink only once the best point stops moving: along a thin curved
        # feasible sliver a shrinking window would stall short of the optimum.
        half = (8.0 if moved else 4.0) * np.maximum(spacing, grid / 4.0)
        center = best_q[: d - 1]
        lo = np.clip(center - half, 0.0, 1.0)
        hi = np.clip(center + half, 0.0, 1.0)


def shortest_path_reference(g, costs) -> tuple[tuple, float]:
    """Nodes and value of a shortest path by a forward pass in arc order.

    The arcs of a layered graph are topologically sorted, so one pass that
    relaxes each (tail, head) arc in turn sets every label.  Updating only
    on strict improvement sends ties to the lowest tail.
    """
    costs = np.asarray(costs, dtype=float)
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
    return tuple(reversed(nodes)), float(dist[g.sink])


def path_cost(g, choices, costs) -> float:
    """Cost of the path through node ``choices``: each pair of consecutive
    nodes looked up in ``g.arcs`` and its cost added, in path order, the
    order in which ``shortest_path`` adds up its labels."""
    nodes = path_nodes(g, choices).tolist()
    total = 0.0
    for arc in zip(nodes, nodes[1:]):
        total += float(costs[g.arcs.index(arc)])
    return total
