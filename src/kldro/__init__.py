"""Distributionally robust prediction and prescription for combinatorial
optimization with unevenly sampled cost components.

The pipeline: estimate per-component empirical pmfs from incomplete data,
calibrate per-component relative-entropy ball radii with finite-sample
bounds, evaluate worst-case expected costs through a scalar convex dual,
and feed those costs to a deterministic shortest-path solver.  Benchmarks
(Hoeffding confidence bounds and two truncated-data variants) and a seeded
Monte-Carlo harness support out-of-sample comparisons.
"""

# The package root re-exports what the demos use; everything else is
# imported from its module.
from .datagen import draw_dataset, nominal_marginals, sample_sizes, substream
from .experiments import ExperimentConfig, run_sweep
from .graphs import build_layered, path_nodes, route_costs, shortest_path
from .marginals import PmfMatrix, Support, kl_divergence
from .radius import radius_agrawal, radius_baseline, radius_best, radius_mardia
from .rules import (
    calibrate_ambiguity,
    dro1_prescribe,
    dro_prescribe,
    hoeffding_prescribe,
    hoeffding_slack,
    joint_radius,
    truncate_dataset,
)
from .worstcase import solve_dual

__version__ = "0.1.0"
