"""Prediction and prescription rules for the data-driven path problem.

Each rule prescribes at given parameters and returns a path, its node
choices (one per layer, as ``graphs`` defines a path), with its predicted
loss:

* ``dro_prescribe(data, radii, g)``: per-action worst case over KL balls
  of the given radii, one per action, then a deterministic shortest path;
* ``hoeffding_prescribe(data, epsilon, g)``: empirical means plus a slack;
* ``dro1_prescribe(data, r, g)``: one joint ball of radius r on the
  truncated data, solved per enumerated path.

"dro2" is ``dro_prescribe`` on ``truncate_dataset(data)``.  Calibration is
its own step, a function of ``(data, alpha)``: ``calibrate_ambiguity``
(the radii array), ``hoeffding_slack`` and ``joint_radius``.

Every step also takes a block of replicates stacked into one data set
(``DataSet.stacked``) and runs as array code over its rows; one data set
is a block of one.  Calibration is one ``radius_best`` call per data set,
which evaluates the bounds once per distinct (T_a, alpha_a) of all its
rows, ``worst_case_costs`` solves any stack of pmf rows in one kernel
call, and ``joint_worst_case_paths`` makes one kernel call per joint-atom
count and returns dro1's paths as ``graphs.Routes``, as ``shortest_path``
routes a cost matrix.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import LayeredGraph, Routes, enumerate_paths, route_costs, shortest_path
from .marginals import DataSet, Support, _absorb_rounding
from .radius import radius_best
# The rules solve all arcs or paths in one solve_dual_batch call; the one-row
# solvers stay importable from here because bench/trace_layers.py wraps them.
from .worstcase import minimize_dual, solve_dual, solve_dual_batch  # noqa: F401

__all__ = [
    "Prescription",
    "JointEmpirical",
    "split_alpha",
    "calibrate_ambiguity",
    "hoeffding_slack",
    "joint_radius",
    "worst_case_costs",
    "dro_predict",
    "dro_prescribe",
    "hoeffding_costs",
    "hoeffding_prescribe",
    "truncate_dataset",
    "joint_worst_case_paths",
    "dro1_prescribe",
]


@dataclass(frozen=True)
class Prescription:
    """A path (a tuple of h node choices), the rule's predicted loss at it,
    and (when the rule decomposes per action) the per-arc costs that
    produced it."""

    path: tuple
    predicted_loss: float
    arc_costs: np.ndarray | None = None


def split_alpha(alpha: float, sizes) -> np.ndarray:
    """Confidence budget split in inverse ratio with the sample counts, per
    row of counts (one row, or (R, actions)).

    alpha_a = (alpha / T_a) / sum_b (1 / T_b); computed once per distinct
    row and count in exact integers (weights lcm // T_a) with one correctly
    rounded division, and the smallest share absorbs the rounding so the
    float budget sums to exactly ``alpha``.  It runs once per (data set,
    alpha): the radius calibration and the Hoeffding slack share that one
    result.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sizes = np.asarray(sizes, dtype=int)
    if sizes.ndim not in (1, 2) or sizes.size < 1 or sizes.min() < 1:
        raise ValueError("sizes must be positive integers")
    rows = sizes.reshape(-1, sizes.shape[-1])
    num, den = float(alpha).as_integer_ratio()
    out, done = np.empty(rows.shape), {}  # count row -> its split
    for i, row in enumerate(rows):
        key = row.tobytes()
        if key not in done:
            mult = Counter(row.tolist())  # distinct count -> how many actions have it
            lcm = math.lcm(*mult)
            weight = {t: lcm // t for t in mult}
            total = den * sum(k * weight[t] for t, k in mult.items())
            # int / int true division rounds correctly, as float(Fraction) does.
            share = np.zeros(max(mult) + 1)
            share[list(weight)] = [num * w / total for w in weight.values()]
            done[key] = share[row]
            _absorb_rounding(done[key], alpha, int(np.argmin(done[key])))
        out[i] = done[key]
    return out.reshape(sizes.shape)


def _split_once(data: DataSet, alpha: float) -> np.ndarray:
    """``split_alpha(alpha, data.sizes)``, computed once per (data set,
    alpha) and shared read-only by calibration and the Hoeffding slack."""
    key = ("split_alpha", alpha)
    if key not in data.cache:
        alphas = split_alpha(alpha, data.sizes)
        alphas.setflags(write=False)
        data.cache[key] = alphas
    return data.cache[key]


def calibrate_ambiguity(data: DataSet, alpha: float) -> np.ndarray:
    """Per-action radii, shaped as ``data.sizes``: split the budget, then
    take the best of the three finite-sample bounds, with d_a the support
    size, in one ``radius_best`` call over all rows of the data set."""
    alphas = _split_once(data, alpha)
    return radius_best(data.sizes, data.support.size, data.num_actions, alphas, alpha)[0]


def worst_case_costs(support: Support, pmf: np.ndarray, radii) -> np.ndarray:
    """Worst-case costs of pmf rows (..., d) on ``support`` at radii (...)
    in one kernel call; a row's cost is bit-identical alone or stacked."""
    if np.shape(radii) != pmf.shape[:-1]:
        raise ValueError("one radius per action is required")
    rows = pmf.reshape(-1, support.size)
    points = np.broadcast_to(support.points, rows.shape)
    values = solve_dual_batch(points, rows, np.ravel(radii), np.full(len(rows), support.max)).value
    return values.reshape(np.shape(radii))


def dro_predict(g: LayeredGraph, path, data: DataSet, radii) -> float:
    """Predicted loss of ``path`` (node choices): the sum of the per-action
    worst-case costs on it."""
    return float(route_costs(g, path, worst_case_costs(data.support, data.pmf, radii)))


def dro_prescribe(data: DataSet, radii, g: LayeredGraph) -> Prescription:
    """Worst-case costs at ``radii``, once per action, then one shortest path."""
    costs = worst_case_costs(data.support, data.pmf, radii)
    return Prescription(*shortest_path(g, costs), costs)


def hoeffding_slack(data: DataSet, alpha: float) -> np.ndarray:
    """Per-action slack that inverts Hoeffding's tail for a cost in
    [z_1, z_d] at the split budget:
    eps_a = (z_d - z_1) sqrt(ln(1/alpha_a) / (2 T_a))."""
    points = data.support.points
    alphas = _split_once(data, alpha)
    return (points[-1] - points[0]) * np.sqrt(np.log(1.0 / alphas) / (2.0 * data.sizes))


def hoeffding_costs(data: DataSet, epsilon: float | np.ndarray) -> np.ndarray:
    """Upper confidence bounds for the means, clipped at the top cost:
    ``epsilon`` is one slack per action or a shared scalar."""
    return np.minimum(data.means + epsilon, data.support.max)


def hoeffding_prescribe(data: DataSet, epsilon: float | np.ndarray,
                        g: LayeredGraph) -> Prescription:
    """The shortest path under :func:`hoeffding_costs`."""
    costs = hoeffding_costs(data, epsilon)
    return Prescription(*shortest_path(g, costs), costs)


def truncate_dataset(data: DataSet) -> DataSet:
    """Keep each row's first T_min observations of every action: the data
    itself when every count is its row's T_min, else a gathered data set."""
    sizes = data.sizes.reshape(-1, data.num_actions)
    keep = np.broadcast_to(sizes.min(axis=1, keepdims=True), sizes.shape)
    if (sizes == keep).all():
        return data
    kept, drop = keep.ravel(), (sizes - keep).ravel()
    at = np.arange(kept.sum()) + np.repeat(np.cumsum(drop) - drop, kept)  # skip earlier drops
    return DataSet.stacked(data.support, data.index[at], keep.reshape(data.sizes.shape))


def _joint_atoms(data: DataSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The joint empirical of each row's first T_min observations: atoms as
    (atoms x actions) support indices, row by row, their probabilities and
    each row's atom count.  One lexsort orders all columns by row, then
    lexicographically; each run of equal columns is one atom, and each
    row's probabilities fsum to 1."""
    sizes = data.sizes.reshape(-1, data.num_actions)
    t_min = sizes.min(axis=1)
    row = np.repeat(np.arange(len(t_min)), t_min)  # the row of each column
    starts = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)[row].T
    columns = data.index[starts + np.arange(row.size) - np.repeat(np.cumsum(t_min) - t_min, t_min)]
    order = np.lexsort((*columns[::-1], row))
    columns, row = columns[:, order], row[order]
    first = np.ones(row.size, dtype=bool)
    first[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0) | (row[1:] != row[:-1])
    at = np.flatnonzero(first)
    probs = np.diff(at, append=row.size) / t_min[row[at]]
    counts = np.bincount(row[at])
    for hi, k in zip(np.cumsum(counts).tolist(), counts.tolist()):
        _absorb_rounding(probs[hi - k:hi], 1.0, int(np.argmin(probs[hi - k:hi])))
    return columns[:, at].T, probs, counts


@dataclass(frozen=True)
class JointEmpirical:
    """Distinct observed cost vectors with their frequencies, built from
    sample-index-aligned observations by :meth:`from_dataset` only."""

    atoms: np.ndarray  # (k, num_actions)
    probs: np.ndarray

    # bench/trace_layers.py wraps this method by name.
    @classmethod
    def from_dataset(cls, data: DataSet) -> "JointEmpirical":
        """One atom per distinct column of the first T_min observations, in
        lexicographic order of the cost vectors: ``_joint_atoms`` on a block
        of one."""
        atoms, probs, _ = _joint_atoms(data)
        return cls(data.support.points[atoms], probs)


def joint_radius(data: DataSet, alpha: float):
    """Radius of one ball around the joint empirical of the first T_min
    observations: support size d^m, T_min samples, and the whole confidence
    budget (no union bound over actions); one per row of a block."""
    radii = np.array([_joint_radius(t, data.support.size, data.num_actions, alpha)
                      for t in np.ravel(data.t_min).tolist()])
    return radii if data.sizes.ndim == 2 else float(radii[0])


@functools.cache  # a pure function of four numbers, of which a sweep meets few
def _joint_radius(t_min: int, d: int, m: int, alpha: float) -> float:
    return float(radius_best(t_min, d**m, 1, alpha, alpha)[0])


def joint_worst_case_paths(g: LayeredGraph, data: DataSet, radii) -> Routes:
    """dro1's path and predicted loss for every row of ``data``, from each
    row's first T_min observations and its radius r > 0 in ``radii``: the
    scalar dual of every path, with beta bounded below by the top support
    point times the path length.  Rows with the same number of joint atoms
    share one kernel call, since rows are bit-identical only at equal
    width.  Exact value ties go to the path whose nodes come first read
    from the sink, as in :func:`shortest_path`."""
    choices = enumerate_paths(g)
    atoms, probs, counts = _joint_atoms(data)
    radii = np.ravel(radii)
    # Every path's cost at every atom, (paths x atoms), sorted within each
    # row's atoms (stable, so ties keep atom order), and the probabilities
    # in that order.
    costs = route_costs(g, choices, data.support.points[atoms].T)
    rows = np.broadcast_to(np.repeat(np.arange(len(counts)), counts), costs.shape)
    order = np.lexsort((costs, rows))
    costs, probs = np.take_along_axis(costs, order, -1), probs[order]
    ends, top = np.cumsum(counts), data.support.max * g.path_length
    # argmin takes the first least value, so over the paths in this order a
    # tie goes to the path whose nodes come first read from the sink
    sink_first = np.lexsort(choices.T)
    best, value = np.empty(len(counts), dtype=np.intp), np.empty(len(counts))
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        cols = (ends[rows] - k)[:, None] + np.arange(k)
        z, q = (np.moveaxis(x[:, cols], 0, 1).reshape(-1, k) for x in (costs, probs))
        found = solve_dual_batch(z, q, np.repeat(radii[rows], len(choices)),
                                 np.full(len(z), top)).value.reshape(len(rows), -1)
        best[rows] = sink_first[found[:, sink_first].argmin(axis=1)]
        value[rows] = found[np.arange(len(rows)), best[rows]]
    return Routes(choices[best], value)


def dro1_prescribe(data: DataSet, r: float, g: LayeredGraph) -> Prescription:
    """Joint-ball rule of radius ``r`` on the truncated data: enumerate
    paths and take the one of least worst-case cost over the ball
    (:func:`joint_worst_case_paths`).

    At radius zero the dual value is the joint sample-average path cost,
    the sum of the per-arc means on the path, so the rule is the SAA
    shortest path on the truncated data, as dro at radius zero is there.
    """
    truncated = truncate_dataset(data)
    if r == 0.0:
        return Prescription(*shortest_path(g, truncated.means))
    return Prescription(*joint_worst_case_paths(g, truncated, r)[0], None)
