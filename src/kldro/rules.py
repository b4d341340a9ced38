"""Prediction and prescription rules for the data-driven path problem.

Four rules share one interface: given a data set they produce per-path
predicted losses and the minimizing decision.

* the robust baseline: per-action worst case over a KL ball, then a
  deterministic shortest path (the two-stage decomposition);
* an upper-confidence-bound benchmark from Hoeffding's inequality;
* a joint-ball benchmark on the truncated data set, solved per enumerated
  path ("dro1");
* the baseline re-run on the truncated data set ("dro2").
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
    "dro_predict",
    "dro_prescribe",
    "hoeffding_prescribe",
    "truncate_dataset",
    "dro1_prescribe",
    "dro2_prescribe",
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
    budget sums to exactly ``alpha``.  The rules call it once per (data
    set, alpha): calibration and the Hoeffding rule share that one result.
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
    alpha) and shared read-only by calibration and the Hoeffding rule."""
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
    return AmbiguitySpec(radii, tuple(found[k][1] for k in inverse), alpha=alpha)


def _worst_case_costs(data: DataSet, spec: AmbiguitySpec, arcs=slice(None)) -> np.ndarray:
    if spec.num_actions != data.num_actions:
        raise ValueError("ambiguity spec must cover every action")
    pmf, sup = data.pmf[arcs], data.support
    points = np.broadcast_to(sup.points, pmf.shape)
    return solve_dual_batch(points, pmf, spec.radii[arcs], np.full(len(pmf), sup.max)).value


def dro_predict(x: Decision, data: DataSet, spec: AmbiguitySpec) -> float:
    """Predicted loss of ``x``: sum of per-action worst-case costs on the path."""
    # Python's sum adds in arc order, as path_cost and shortest_path do.
    return float(sum(_worst_case_costs(data, spec, np.flatnonzero(x.incidence))))


def dro_prescribe(data: DataSet, spec: AmbiguitySpec, g: LayeredGraph) -> Prescription:
    """Worst-case costs once per action, then one deterministic shortest path."""
    costs = _worst_case_costs(data, spec)
    decision, value = shortest_path(g, costs)
    return Prescription(decision, value, costs)


def hoeffding_prescribe(
    data: DataSet,
    alpha: float,
    g: LayeredGraph,
    epsilon: float | np.ndarray | None = None,
) -> Prescription:
    """Upper confidence bounds for the means, clipped at the top cost d.

    The support must be {1, ..., d}.  The per-action slack inverts the
    Hoeffding tail at the split budget:
    eps_a = (d - 1) sqrt(ln(1/alpha_a) / (2 T_a)).  Passing ``epsilon``
    overrides the calibration with a fixed slack (the plain
    empirical-mean-plus-constant rule is the special case of a shared
    scalar).
    """
    d = data.support.size
    if not (data.support.points == np.arange(1.0, d + 1.0)).all():
        raise ValueError("hoeffding rule expects the support {1, ..., d}")
    sizes = data.sizes
    if epsilon is None:
        alphas = _split_once(data, alpha)
        eps = (d - 1) * np.sqrt(np.log(1.0 / alphas) / (2.0 * sizes))
    else:
        eps = np.broadcast_to(np.asarray(epsilon, dtype=float), (data.num_actions,))
    costs = np.minimum(data.means + eps, float(d))
    decision, value = shortest_path(g, costs)
    return Prescription(decision, value, costs)


def truncate_dataset(data: DataSet) -> DataSet:
    """Keep the first T_min observations of every action.

    Built once per data set and kept in its cache, so dro1 and dro2 share
    one truncation.
    """
    if "truncated" not in data.cache:
        t_min = data.t_min
        data.cache["truncated"] = DataSet(data.support, tuple(obs[:t_min] for obs in data.samples))
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
        t_min = data.t_min
        rows = np.stack([obs[:t_min] for obs in data.samples], axis=1)
        atoms, counts = np.unique(rows, axis=0, return_counts=True)
        probs = counts.astype(float) / t_min
        _absorb_rounding(probs, 1.0, int(np.argmin(probs)))
        return cls(atoms, probs)


def _joint_ball_radius(t_min: int, d: int, num_actions: int, alpha: float) -> tuple[float, str]:
    # One ball around the joint empirical: support size d^m, T_min samples,
    # and the whole confidence budget (no union bound over actions).
    inputs = RadiusInputs(
        T_a=t_min,
        d_a=d**num_actions,
        num_actions=1,
        T_min=t_min,
        alpha_a=alpha,
        rate=rate_from_alpha(alpha, t_min),
    )
    return radius_best(inputs)


def dro1_prescribe(
    data: DataSet,
    alpha: float,
    g: LayeredGraph,
    cap: int = 100_000,
    radius_override: float | None = None,
) -> Prescription:
    """Joint-ball rule on the truncated data: enumerate paths, then solve the
    scalar dual of every path in one batch with beta bounded below by the
    top support point times the path length.

    At radius zero the dual value degenerates to the joint sample-average
    path cost, computed through the per-arc decomposition so it matches the
    shortest-path relaxation bit for bit; exact value ties are broken the
    same way the forward pass breaks them (sink-side node order).
    """
    truncated = truncate_dataset(data)
    joint = JointEmpirical.from_dataset(truncated)
    if radius_override is not None:
        r = float(radius_override)
    else:
        r, _ = _joint_ball_radius(truncated.t_min, data.support.size, data.num_actions, alpha)
    paths = enumerate_paths(g, cap=cap)
    if r == 0.0:
        means = truncated.means
        values = [path_cost(x, means) for x in paths]
    else:
        incidence = path_incidence(g, cap=cap)
        # One row per path: its cost at every joint atom (integer-valued, so
        # exact), sorted by cost.
        costs = incidence @ joint.atoms.T
        order = np.argsort(costs, axis=1, kind="stable")
        rows = np.take_along_axis(costs, order, axis=1)
        lower = data.support.max * incidence.sum(axis=1)
        radii = np.full(len(paths), r)
        values = solve_dual_batch(rows, joint.probs[order], radii, lower).value.tolist()
    best = min(range(len(paths)), key=lambda i: (values[i], tuple(reversed(paths[i].nodes))))
    return Prescription(paths[best], values[best], None)


def dro2_prescribe(
    data: DataSet,
    alpha: float,
    g: LayeredGraph,
    radius_override: float | None = None,
) -> Prescription:
    """Baseline rule on the truncated data, radii recalibrated at T_min."""
    truncated = truncate_dataset(data)
    if radius_override is not None:
        spec = AmbiguitySpec.manual(np.full(truncated.num_actions, float(radius_override)))
    else:
        spec = calibrate_ambiguity(truncated, alpha)
    return dro_prescribe(truncated, spec, g)
