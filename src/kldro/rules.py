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

The prescriptions are built from helpers that also serve many data sets at
once, which is how a sweep's block of replicates runs them:
``worst_case_costs`` solves the dual rows of every (data, spec) pair in one
kernel call, ``hoeffding_costs`` gives the Hoeffding cost row, and
``joint_worst_case_paths`` picks dro1's path for every (truncated data, r)
pair with one kernel call per joint-atom count.
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


def worst_case_costs(cases) -> list[np.ndarray]:
    """Per-action worst-case costs of every ``(data, spec)`` pair, from one
    kernel call over the stacked rows of all pairs; every row has the width
    of the one support the data sets share, so each pair's costs are
    bit-identical to those of a call on that pair alone."""
    cases = list(cases)
    if not cases:
        return []
    support = cases[0][0].support
    for data, spec in cases:
        if spec.num_actions != data.num_actions:
            raise ValueError("ambiguity spec must cover every action")
        if not data.support.same_as(support):
            raise ValueError("data sets must share one support")
    pmf = np.concatenate([data.pmf for data, _ in cases])
    radii = np.concatenate([spec.radii for _, spec in cases])
    points = np.broadcast_to(support.points, pmf.shape)
    values = solve_dual_batch(points, pmf, radii, np.full(len(pmf), support.max)).value
    return np.split(values, np.cumsum([data.num_actions for data, _ in cases[:-1]]))


def dro_predict(x: Decision, data: DataSet, spec: AmbiguitySpec) -> float:
    """Predicted loss of ``x``: sum of per-action worst-case costs on the path."""
    return path_cost(x, worst_case_costs([(data, spec)])[0])


def dro_prescribe(data: DataSet, spec: AmbiguitySpec, g: LayeredGraph) -> Prescription:
    """Worst-case costs once per action, then one deterministic shortest path."""
    costs = worst_case_costs([(data, spec)])[0]
    decision, value = shortest_path(g, costs)
    return Prescription(decision, value, costs)


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


def joint_worst_case_paths(g: LayeredGraph, cases) -> list[tuple[Decision, float]]:
    """dro1's path and predicted loss for every ``(truncated data, r)`` pair
    with r > 0, all on one support: the scalar dual of every path, with beta
    bounded below by the top support point times the path length.  Pairs
    with the same number of joint atoms share one kernel call, since rows
    are bit-identical only at equal width.  Exact value ties go to the path
    whose nodes come first read from the sink."""
    cases = list(cases)
    if not cases:
        return []
    support = cases[0][0].support
    if not all(truncated.support.same_as(support) for truncated, _ in cases):
        raise ValueError("data sets must share one support")
    paths = enumerate_paths(g)
    groups = {}  # atom count -> [(case, cost rows, their probabilities, r)]
    for k, (truncated, r) in enumerate(cases):
        joint = JointEmpirical.from_dataset(truncated)
        # One row per path: its cost at every joint atom (integer-valued, so
        # exact), sorted by cost.
        costs = path_incidence(g) @ joint.atoms.T
        order = np.argsort(costs, axis=1, kind="stable")
        rows = np.take_along_axis(costs, order, axis=1)
        groups.setdefault(len(joint.probs), []).append((k, rows, joint.probs[order], r))
    top = support.max * g.path_length
    # argmin takes the first least value, so over the paths in this order a
    # tie goes to the path whose nodes come first read from the sink
    sink_first = np.array(sorted(range(len(paths)), key=lambda i: paths[i].nodes[::-1]))
    found = [None] * len(cases)
    for members in groups.values():
        radii = np.repeat([r for *_, r in members], len(paths))
        values = solve_dual_batch(np.concatenate([rows for _, rows, _, _ in members]),
                                  np.concatenate([probs for _, _, probs, _ in members]),
                                  radii, np.full(radii.size, top)).value.reshape(len(members), -1)
        best = sink_first[values[:, sink_first].argmin(axis=1)].tolist()
        for (k, *_), row, i in zip(members, values.tolist(), best):
            found[k] = (paths[i], row[i])
    return found


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
    return Prescription(*joint_worst_case_paths(g, [(truncated, r)])[0], None)
