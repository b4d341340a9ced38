"""Prediction and prescription rules for the data-driven path problem.

Each rule prescribes at given parameters and returns what
``shortest_path`` returns for one cost row: ``(path, predicted_loss)``,
the path as its node choices (one per layer, as ``graphs`` defines a
path):

* ``dro_prescribe(data, radii, g)``: per-action worst case over KL balls
  of the given radii, one per action, then a deterministic shortest path;
* ``hoeffding_prescribe(data, epsilon, g)``: empirical means plus a slack;
* ``dro1_prescribe(data, r, g)``: one joint ball of radius r on the
  truncated data, solved per enumerated path.

"dro2" is ``dro_prescribe`` on ``truncate_dataset(data)``.  Calibration is
its own step, a function of ``(data, alpha)``: ``calibrate_ambiguity``
(the radii array), ``hoeffding_slack`` and ``joint_radius``.

Every step also takes a block of replicates, one data set with (R,
actions) counts, and runs as array code over its rows; one data set is a
block of one.  Calibration is one ``radius_best`` call per data set and
step, the joint radius included, which evaluates the bounds at most once
per distinct input of all its rows; nothing is cached across calls.
``worst_case_costs`` solves any stack of pmf rows in one kernel call, on
the one support row they share, and ``joint_worst_case_paths`` makes one
kernel call for every path of every row and returns dro1's paths as
``graphs.Routes``, as ``shortest_path`` routes a cost matrix.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import LayeredGraph, Routes, enumerate_paths, route_costs, shortest_path
from .marginals import DataSet, Support
from .radius import radius_best
# The rules solve all arcs or paths in one solve_dual_batch call; the one-row
# solvers stay importable from here because bench/trace_layers.py wraps them.
from .worstcase import minimize_dual, solve_dual, solve_dual_batch  # noqa: F401

__all__ = [
    "JointEmpirical",
    "split_alpha",
    "calibrate_ambiguity",
    "hoeffding_slack",
    "joint_radius",
    "worst_case_costs",
    "dro_prescribe",
    "hoeffding_costs",
    "hoeffding_prescribe",
    "truncate_dataset",
    "joint_worst_case_paths",
    "dro1_prescribe",
]


def split_alpha(alpha: float, sizes) -> np.ndarray:
    """Confidence budget split in inverse ratio with the sample counts, per
    row of counts (one row, or (R, actions)).

    alpha_a = (alpha / T_a) / sum_b (1 / T_b); computed once per distinct
    row and count in exact integers (weights lcm // T_a) with one correctly
    rounded division per share.  It runs once per (data set, alpha): the
    radius calibration and the Hoeffding slack share that one result.  An
    alpha so small that a share is not a normal float raises ``ValueError``.
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
            shares = [num * w / total for w in weight.values()]
            if min(shares) < sys.float_info.min:  # where 1 / alpha_a can overflow
                raise ValueError(f"alpha {alpha!r} is too small to split over {row.size} "
                                 f"actions with counts {min(mult)} to {max(mult)}: a share "
                                 f"falls below the smallest normal float")
            share = np.zeros(max(mult) + 1)
            share[list(weight)] = shares
            done[key] = share[row]
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
    values = solve_dual_batch(support.points[None], rows, np.ravel(radii),
                              np.full(len(rows), support.max)).value
    return values.reshape(np.shape(radii))


def dro_prescribe(data: DataSet, radii, g: LayeredGraph) -> tuple[tuple, float]:
    """Worst-case costs at ``radii``, once per action, then one shortest path."""
    return shortest_path(g, worst_case_costs(data.support, data.pmf, radii))


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
                        g: LayeredGraph) -> tuple[tuple, float]:
    """The shortest path under :func:`hoeffding_costs`."""
    return shortest_path(g, hoeffding_costs(data, epsilon))


def truncate_dataset(data: DataSet) -> DataSet:
    """Keep each row's first T_min observations of every action, always as
    a new, gathered data set; a row whose counts are equal keeps them all."""
    sizes = data.sizes.reshape(-1, data.num_actions)
    keep = np.broadcast_to(sizes.min(axis=1, keepdims=True), sizes.shape)
    kept, drop = keep.ravel(), (sizes - keep).ravel()
    at = np.arange(kept.sum()) + np.repeat(np.cumsum(drop) - drop, kept)  # skip earlier drops
    return DataSet(data.support, data.index[at], keep.reshape(data.sizes.shape))


@dataclass(frozen=True)
class JointEmpirical:
    """Distinct observed cost vectors with their frequencies, built from
    sample-index-aligned observations by :meth:`from_dataset` only."""

    atoms: np.ndarray  # (k, num_actions)
    probs: np.ndarray

    # bench/trace_layers.py wraps this method by name.
    @classmethod
    def from_dataset(cls, data: DataSet) -> "JointEmpirical":
        """One atom per distinct vector of the first T_min observations of
        each action, in lexicographic order, of probability its multiplicity
        over T_min; ``data`` is one data set, not a block."""
        starts = np.cumsum(data.sizes) - data.sizes
        columns = data.index[starts + np.arange(data.t_min)[:, None]]  # (T_min, actions)
        atoms, counts = np.unique(columns, axis=0, return_counts=True)
        return cls(data.support.points[atoms], counts / data.t_min)


def joint_radius(data: DataSet, alpha: float):
    """Radius of one ball around the joint empirical of the first T_min
    observations: support size d^m, T_min samples, and the whole confidence
    budget (no union bound over actions); one per row of a block, in one
    ``radius_best`` call."""
    radii = radius_best(data.t_min, data.support.size**data.num_actions, 1, alpha, alpha)[0]
    return radii if radii.ndim else float(radii)


def joint_worst_case_paths(g: LayeredGraph, data: DataSet, radii) -> Routes:
    """dro1's path and predicted loss for every row of ``data``, from each
    row's first T_min observations, each of mass 1/T_min, and its radius
    r > 0 in ``radii``: the scalar dual of every path, with beta bounded
    below by the top support point times the path length, in one kernel
    call.  Exact value ties go to the first path in the order of
    :func:`graphs.enumerate_paths`, the tie order of :func:`shortest_path`."""
    choices = enumerate_paths(g)
    sizes = data.sizes.reshape(-1, data.num_actions)
    t_min = sizes.min(axis=1, keepdims=True)
    width = np.arange(t_min.max())
    # Every row's first T_min observations of each action, (actions, rows,
    # width); rows below the block's largest T_min repeat their last one.
    starts = (np.cumsum(sizes).reshape(sizes.shape) - sizes).T[:, :, None]
    seen = data.index[starts + np.minimum(width, t_min - 1)]
    probs = np.where(width < t_min, 1.0 / t_min, 0.0)  # the repeats carry no weight
    # Every path's cost at every observation, (rows, paths, width), sorted
    # within each path (stable, so ties keep observation order), and the
    # probabilities in that order.
    costs = np.moveaxis(route_costs(g, choices, data.support.points[seen]), 0, 1)
    order = np.argsort(costs, axis=-1, kind="stable")
    z, q = (np.take_along_axis(x, order, -1).reshape(-1, width.size)
            for x in (costs, np.broadcast_to(probs[:, None], costs.shape)))
    found = solve_dual_batch(z, q, np.repeat(np.ravel(radii), len(choices)),
                             np.full(len(z), data.support.max * g.path_length)).value
    found = found.reshape(-1, len(choices))
    best = found.argmin(axis=1)
    return Routes(choices[best], found[np.arange(len(found)), best])


def dro1_prescribe(data: DataSet, r: float, g: LayeredGraph) -> tuple[tuple, float]:
    """Joint-ball rule of radius ``r`` on the truncated data: enumerate
    paths and take the one of least worst-case cost over the ball
    (:func:`joint_worst_case_paths`).

    At radius zero the dual value is the joint sample-average path cost,
    the sum of the per-arc means on the path, so the rule is the SAA
    shortest path on the truncated data, as dro at radius zero is there.
    """
    if r == 0.0:
        return shortest_path(g, truncate_dataset(data).means)
    return joint_worst_case_paths(g, data, r)[0]
