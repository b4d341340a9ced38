"""Distributionally robust prediction and prescription for combinatorial
optimization with unevenly sampled cost components.

The pipeline: estimate per-component empirical pmfs from incomplete data,
calibrate per-component relative-entropy ball radii with finite-sample
bounds, evaluate worst-case expected costs through a scalar convex dual,
and feed those costs to a deterministic shortest-path solver.  Benchmarks
(Hoeffding confidence bounds and two truncated-data variants) and a seeded
Monte-Carlo harness support out-of-sample comparisons.
"""

from .datagen import (
    NominalSpec,
    SampleSizeSpec,
    draw_dataset,
    nominal_marginals,
    random_nominal_spec,
    sample_sizes,
    substream,
)
from .experiments import (
    ExperimentConfig,
    GridPointResult,
    ReplicateError,
    ReplicateResult,
    RuleOutcome,
    emit_results,
    run_replicate,
    run_sweep,
)
from .graphs import (
    Decision,
    LayeredGraph,
    build_layered,
    enumerate_paths,
    path_cost,
    shortest_path,
    to_edgelist,
)
from .marginals import (
    DataSet,
    Marginal,
    PmfMatrix,
    Support,
    kl_divergence,
)
from .radius import (
    AmbiguitySpec,
    RadiusInputs,
    mardia_constant,
    radius_agrawal,
    radius_baseline,
    radius_best,
    radius_mardia,
    rate_from_alpha,
)
from .rules import (
    JointEmpirical,
    Prescription,
    calibrate_ambiguity,
    dro1_prescribe,
    dro_predict,
    dro_prescribe,
    hoeffding_prescribe,
    hoeffding_slack,
    joint_radius,
    split_alpha,
    truncate_dataset,
)
from .worstcase import DualSolution, minimize_dual, solve_dual

__version__ = "0.1.0"
