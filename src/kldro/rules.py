"""Prediction and prescription rules for the data-driven path problem.

Each rule prescribes at given parameters and returns a decision with its
predicted loss:

* ``dro_prescribe(data, spec, g)``: per-action worst case over KL balls of
  the spec's radii, then a deterministic shortest path;
* ``hoeffding_prescribe(data, epsilon, g)``: empirical means plus a slack;
* ``dro1_prescribe(data, r, g)``: one joint ball of radius r on the
  truncated data, solved per enumerated path.

"dro2" is ``dro_prescribe`` on ``truncate_dataset(data)``.  Calibration is
its own step, a function of ``(data, alpha)``: ``calibrate_ambiguity``,
``hoeffding_slack`` and ``joint_radius``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (Decision, LayeredGraph, enumerate_paths, path_cost, path_incidence,
                     shortest_path)
from .marginals import DataSet, _absorb_rounding
from .radius import AmbiguitySpec, RadiusInputs, radius_best, rate_from_alpha
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
    "dro_predict",
    "dro_prescribe",
    "hoeffding_prescribe",
    "truncate_dataset",
    "dro1_prescribe",
]


@dataclass(frozen=True)
class Prescription:
    """A decision, the rule's predicted loss at it, and (when the rule
    decomposes per action) the per-arc costs that produced it."""

    decision: Decision
    predicted_loss: float
    arc_costs: np.ndarray | None = None


def split_alpha(alpha: float, sizes) -> np.ndarray:
    """Confidence budget split in inverse ratio with the sample counts.

    alpha_a = (alpha / T_a) / sum_b (1 / T_b); computed once per distinct
    count in exact integers (weights lcm // T_a) with one correctly rounded
    division, and the smallest share absorbs the rounding so the float
    budget sums to exactly ``alpha``.  It runs once per (data set, alpha):
    the radius calibration and the Hoeffding slack share that one result.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sizes = np.asarray(sizes, dtype=int)
    if sizes.ndim != 1 or sizes.size < 1 or np.any(sizes < 1):
        raise ValueError("sizes must be positive integers")
    distinct, inverse, mult = np.unique(sizes, return_inverse=True, return_counts=True)
    distinct = distinct.tolist()
    lcm = math.lcm(*distinct)
    weights = [lcm // t for t in distinct]
    num, den = float(alpha).as_integer_ratio()
    den *= sum(k * w for k, w in zip(mult.tolist(), weights))
    # int / int true division rounds correctly, as float(Fraction) does.
    out = np.array([num * w / den for w in weights])[inverse.reshape(-1)]
    _absorb_rounding(out, alpha, int(np.argmin(out)))
    return out


def _split_once(data: DataSet, alpha: float) -> np.ndarray:
    """``split_alpha(alpha, data.sizes)``, computed once per (data set,
    alpha) and shared read-only by calibration and the Hoeffding slack."""
    key = ("split_alpha", alpha)
    if key not in data.cache:
        alphas = split_alpha(alpha, data.sizes)
        alphas.setflags(write=False)
        data.cache[key] = alphas
    return data.cache[key]


def calibrate_ambiguity(data: DataSet, alpha: float) -> AmbiguitySpec:
    """Per-action radii: split the budget, then take the best of the three
    finite-sample bounds once per distinct (T_a, alpha_a), with d_a the
    size of the shared support.

    alpha_a depends on T_a alone except at the one arc whose share absorbed
    the split's rounding, so the distinct pairs are the distinct counts,
    each split in two where an arc's alpha differs from that of the first
    arc with its count.
    """
    sizes = data.sizes
    t_min = data.t_min
    alphas = _split_once(data, alpha)
    rate = rate_from_alpha(alpha, t_min)
    _, first, count = np.unique(sizes, return_index=True, return_inverse=True)
    _, index, inverse = np.unique(2 * count + (alphas != alphas[first][count]),
                                  return_index=True, return_inverse=True)
    found = [
        radius_best(RadiusInputs(int(sizes[a]), data.support.size, data.num_actions, t_min,
                                 float(alphas[a]), rate))
        for a in index.tolist()
    ]
    radii = np.array([radius for radius, _ in found])[inverse]
    return AmbiguitySpec(radii, tuple(found[k][1] for k in inverse))


def _worst_case_costs(data: DataSet, spec: AmbiguitySpec) -> np.ndarray:
    if spec.num_actions != data.num_actions:
        raise ValueError("ambiguity spec must cover every action")
    pmf, sup = data.pmf, data.support
    points = np.broadcast_to(sup.points, pmf.shape)
    return solve_dual_batch(points, pmf, spec.radii, np.full(len(pmf), sup.max)).value


def dro_predict(x: Decision, data: DataSet, spec: AmbiguitySpec) -> float:
    """Predicted loss of ``x``: sum of per-action worst-case costs on the path."""
    return path_cost(x, _worst_case_costs(data, spec))


def dro_prescribe(data: DataSet, spec: AmbiguitySpec, g: LayeredGraph) -> Prescription:
    """Worst-case costs once per action, then one deterministic shortest path."""
    costs = _worst_case_costs(data, spec)
    decision, value = shortest_path(g, costs)
    return Prescription(decision, value, costs)


def hoeffding_slack(data: DataSet, alpha: float) -> np.ndarray:
    """Per-action slack that inverts Hoeffding's tail for a cost in
    [z_1, z_d] at the split budget:
    eps_a = (z_d - z_1) sqrt(ln(1/alpha_a) / (2 T_a))."""
    points = data.support.points
    alphas = _split_once(data, alpha)
    return (points[-1] - points[0]) * np.sqrt(np.log(1.0 / alphas) / (2.0 * data.sizes))


def hoeffding_prescribe(data: DataSet, epsilon: float | np.ndarray,
                        g: LayeredGraph) -> Prescription:
    """Upper confidence bounds for the means, clipped at the top cost:
    ``epsilon`` is one slack per action or a shared scalar."""
    costs = np.minimum(data.means + epsilon, data.support.max)
    decision, value = shortest_path(g, costs)
    return Prescription(decision, value, costs)


def truncate_dataset(data: DataSet) -> DataSet:
    """Keep the first T_min observations of every action: the data itself
    when every count is T_min, else a data set built once and cached, so
    dro1 and dro2 share it."""
    if (data.sizes == data.t_min).all():
        return data
    if "truncated" not in data.cache:
        t_min = data.t_min
        data.cache["truncated"] = DataSet(data.support, data.prefix(t_min).ravel(),
                                          np.full(data.num_actions, t_min))
    return data.cache["truncated"]


@dataclass(frozen=True)
class JointEmpirical:
    """Distinct observed cost vectors with their frequencies, built from
    sample-index-aligned observations."""

    atoms: np.ndarray  # (k, num_actions)
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        atoms.setflags(write=False)
        probs.setflags(write=False)
        if atoms.ndim != 2 or probs.shape != (atoms.shape[0],):
            raise ValueError("atoms must be (k, m) with one probability per atom")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_dataset(cls, data: DataSet) -> "JointEmpirical":
        """One atom per distinct column of the first T_min observations, in
        lexicographic order of the cost vectors: the columns are lexsorted,
        then each run of equal columns is one atom."""
        t_min = data.t_min
        block = data.prefix(t_min)
        block = block[:, np.lexsort(block[::-1])]
        first = np.ones(t_min, dtype=bool)
        first[1:] = (block[:, 1:] != block[:, :-1]).any(axis=0)
        starts = np.flatnonzero(first)
        probs = np.diff(starts, append=t_min) / t_min
        _absorb_rounding(probs, 1.0, int(np.argmin(probs)))
        return cls(data.support.points[block[:, starts].T], probs)


def joint_radius(data: DataSet, alpha: float) -> float:
    """Radius of one ball around the joint empirical of the first T_min
    observations: support size d^m, T_min samples, and the whole confidence
    budget (no union bound over actions)."""
    t_min = data.t_min
    inputs = RadiusInputs(
        T_a=t_min,
        d_a=data.support.size**data.num_actions,
        num_actions=1,
        T_min=t_min,
        alpha_a=alpha,
        rate=rate_from_alpha(alpha, t_min),
    )
    return radius_best(inputs)[0]


def dro1_prescribe(data: DataSet, r: float, g: LayeredGraph) -> Prescription:
    """Joint-ball rule of radius ``r`` on the truncated data: enumerate
    paths, then solve the scalar dual of every path in one batch with beta
    bounded below by the top support point times the path length.  Exact
    value ties go to the path whose nodes come first read from the sink.

    At radius zero the dual value is the joint sample-average path cost,
    the sum of the per-arc means on the path, so the rule is the SAA
    shortest path on the truncated data, as dro at radius zero is there.
    """
    truncated = truncate_dataset(data)
    if r == 0.0:
        return Prescription(*shortest_path(g, truncated.means))
    joint = JointEmpirical.from_dataset(truncated)
    paths = enumerate_paths(g)
    # One row per path: its cost at every joint atom (integer-valued, so
    # exact), sorted by cost.
    costs = path_incidence(g) @ joint.atoms.T
    order = np.argsort(costs, axis=1, kind="stable")
    rows = np.take_along_axis(costs, order, axis=1)
    lower = np.full(len(paths), data.support.max * g.path_length)
    radii = np.full(len(paths), r)
    values = solve_dual_batch(rows, joint.probs[order], radii, lower).value.tolist()
    best = min(range(len(paths)), key=lambda i: (values[i], tuple(reversed(paths[i].nodes))))
    return Prescription(paths[best], values[best], None)

