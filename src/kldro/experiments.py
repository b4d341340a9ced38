"""Monte-Carlo harness: sweeps, replicates, relative losses, CSV output.

A sweep fixes everything except one scalar (the floor of the sample counts,
the spread between them, or the nominal standard deviation) and runs a
batch of seeded replicates per grid value.  Each replicate draws fresh
nominal parameters and data, runs the configured rules, and records the
nominal relative loss rho = achieved / best-possible together with a
disappointment flag (nominal loss strictly above the predicted loss).

Replicates are embarrassingly parallel; each owns a Philox substream and
results are reduced in replicate order, so output is identical whatever the
worker count.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .datagen import (
    NOMINAL_KINDS,
    SIZE_KINDS,
    NominalSpec,
    SampleSizeSpec,
    draw_dataset,
    nominal_marginals,
    random_nominal_spec,
    sample_sizes,
    substream,
)
from .graphs import LayeredGraph, build_layered, path_cost, shortest_path
from .radius import AmbiguitySpec
from .rules import (
    calibrate_ambiguity,
    dro1_prescribe,
    dro2_prescribe,
    dro_prescribe,
    hoeffding_prescribe,
)

__all__ = [
    "ExperimentConfig",
    "RuleOutcome",
    "ReplicateResult",
    "GridPointResult",
    "ReplicateError",
    "run_replicate",
    "run_sweep",
    "emit_results",
    "read_results_csv",
    "aggregate_rows",
]

RULE_NAMES = ("dro", "hoeffding", "dro1", "dro2")
SWEEP_VARIABLES = ("t_min", "delta", "sigma")

# name -> (python type, brief meaning); doubles as the CLI override schema
CONFIG_FIELDS = {
    "h": (int, "intermediate layers"),
    "w": (int, "nodes per layer"),
    "d": (int, "support size of every action"),
    "alpha": (float, "global confidence level in (0, 1)"),
    "n0": (int, "replicates per grid value"),
    "seed": (int, "root seed for the Philox substreams"),
    "nominal": (str, f"nominal kind, one of {NOMINAL_KINDS}"),
    "sample_sizes": (str, f"sample-size kind, one of {SIZE_KINDS}"),
    "t_min": (int, "floor of the per-action sample counts"),
    "delta": (int, "spread: counts lie in [t_min, t_min + delta]"),
    "sigma": (float, "std dev for the discretized-normal nominal"),
    "sweep": (str, f"swept variable, one of {SWEEP_VARIABLES}"),
    "grid": (list, "values of the swept variable"),
    "rules": (list, f"rules to run, subset of {RULE_NAMES}"),
    "redraw_nominal": (bool, "fresh nominal parameters per replicate"),
    "radius_override": (float, "fixed ball radius for dro/dro1/dro2 (else calibrated)"),
    "epsilon_override": (float, "fixed slack for hoeffding (else calibrated)"),
    "mad_center": (str, "center for the MAD statistic: mean or median"),
    "enumeration_cap": (int, "path-count limit for dro1"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    h: int
    w: int
    d: int
    alpha: float
    n0: int
    seed: int
    nominal: str
    sample_sizes: str
    t_min: int
    delta: int
    sweep: str
    grid: tuple
    rules: tuple
    sigma: float | None = None
    redraw_nominal: bool = True
    radius_override: float | None = None
    epsilon_override: float | None = None
    mad_center: str = "mean"
    enumeration_cap: int = 100_000

    def __post_init__(self):
        for key in ("h", "w", "d", "t_min", "n0", "enumeration_cap"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.radius_override is not None and not self.radius_override >= 0.0:
            raise ValueError("radius_override must be >= 0")
        if self.epsilon_override is not None and not 0.0 <= self.epsilon_override < math.inf:
            raise ValueError("epsilon_override must be finite and >= 0")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.nominal not in NOMINAL_KINDS:
            raise ValueError(f"nominal must be one of {NOMINAL_KINDS}")
        if self.sample_sizes not in SIZE_KINDS:
            raise ValueError(f"sample_sizes must be one of {SIZE_KINDS}")
        if self.sweep not in SWEEP_VARIABLES:
            raise ValueError(f"sweep must be one of {SWEEP_VARIABLES}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        low = {"t_min": 1, "delta": 0}.get(self.sweep)
        for value in self.grid:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"sweep value {value!r} is not a number")
            if low is None and not 0.0 < value < math.inf:
                raise ValueError(f"sigma sweep value {value!r} must be positive and finite")
            if low is not None and not (float(value).is_integer() and value >= low):
                raise ValueError(f"{self.sweep} sweep value {value!r} must be an integer >= {low}")
        if len(self.rules) == 0 or any(r not in RULE_NAMES for r in self.rules):
            raise ValueError(f"rules must be a nonempty subset of {RULE_NAMES}")
        if self.nominal == "discretized-normal" and self.sigma is None and self.sweep != "sigma":
            raise ValueError("discretized-normal needs sigma unless sigma is swept")
        if self.mad_center not in ("mean", "median"):
            raise ValueError("mad_center must be 'mean' or 'median'")
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - set(CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in raw.items():
            typ, _ = CONFIG_FIELDS[key]
            if value is None:
                kwargs[key] = None
            elif typ is list:
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"config key {key!r} must be a list")
                kwargs[key] = tuple(value)
            elif typ is bool:
                if not isinstance(value, bool):
                    raise ValueError(f"config key {key!r} must be a boolean")
                kwargs[key] = value
            elif typ is float:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"config key {key!r} must be a number")
                kwargs[key] = float(value)
            elif typ is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"config key {key!r} must be an integer")
                kwargs[key] = value
            else:
                if not isinstance(value, str):
                    raise ValueError(f"config key {key!r} must be a string")
                kwargs[key] = value
        missing = {"h", "w", "d", "alpha", "n0", "seed", "nominal", "sample_sizes",
                   "t_min", "delta", "sweep", "grid", "rules"} - set(kwargs)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**kwargs)


@dataclass(frozen=True)
class RuleOutcome:
    rule: str
    nodes: tuple
    predicted: float
    nominal: float
    rho: float
    disappointed: bool


@dataclass(frozen=True)
class ReplicateResult:
    replicate: int
    sizes: tuple
    outcomes: tuple  # one RuleOutcome per configured rule, in config order


@dataclass(frozen=True)
class GridPointResult:
    sweep_value: float
    replicates: tuple
    aggregates: dict = field(compare=False)


def _resolved(cfg: ExperimentConfig, sweep_value) -> tuple[int, int, float | None]:
    t_min, delta, sigma = cfg.t_min, cfg.delta, cfg.sigma
    if cfg.sweep == "t_min":
        t_min = int(sweep_value)
    elif cfg.sweep == "delta":
        delta = int(sweep_value)
    else:
        sigma = float(sweep_value)
    return t_min, delta, sigma


def _stream_index(cfg: ExperimentConfig, grid_index: int, replicate: int | None) -> int:
    # One reserved slot per grid value for shared nominal parameters.
    base = grid_index * (cfg.n0 + 1)
    return base if replicate is None else base + 1 + replicate


def run_replicate(
    cfg: ExperimentConfig,
    g: LayeredGraph,
    grid_index: int,
    replicate: int,
    shared_spec: NominalSpec | None = None,
) -> ReplicateResult:
    sweep_value = cfg.grid[grid_index]
    t_min, delta, sigma = _resolved(cfg, sweep_value)
    rng = substream(cfg.seed, _stream_index(cfg, grid_index, replicate))
    if shared_spec is not None:
        spec = shared_spec
    else:
        spec = random_nominal_spec(cfg.nominal, g.num_arcs, cfg.d, rng, sigma=sigma)
    marginals = nominal_marginals(spec, g)
    sizes = sample_sizes(SampleSizeSpec(cfg.sample_sizes, t_min, delta), marginals, rng)
    data = draw_dataset(marginals, sizes, rng, joint=(cfg.nominal == "multinomial"))

    means = marginals.means
    _, best_nominal = shortest_path(g, means)

    outcomes = []
    for rule in cfg.rules:
        if rule == "dro":
            if cfg.radius_override is not None:
                amb = AmbiguitySpec.manual(np.full(g.num_arcs, cfg.radius_override))
            else:
                amb = calibrate_ambiguity(data, cfg.alpha)
            pres = dro_prescribe(data, amb, g)
        elif rule == "hoeffding":
            pres = hoeffding_prescribe(data, cfg.alpha, g, epsilon=cfg.epsilon_override)
        elif rule == "dro1":
            pres = dro1_prescribe(data, cfg.alpha, g, cap=cfg.enumeration_cap,
                                  radius_override=cfg.radius_override)
        else:
            pres = dro2_prescribe(data, cfg.alpha, g, radius_override=cfg.radius_override)
        achieved = path_cost(pres.decision, means)
        outcomes.append(
            RuleOutcome(
                rule=rule,
                nodes=pres.decision.nodes,
                predicted=pres.predicted_loss,
                nominal=achieved,
                rho=achieved / best_nominal,
                disappointed=bool(achieved > pres.predicted_loss),
            )
        )
    return ReplicateResult(replicate, tuple(int(t) for t in sizes), tuple(outcomes))


class ReplicateError(RuntimeError):
    """A replicate raised; the message names its sweep value, grid index,
    replicate, seed and substream."""


def _replicate_task(args) -> ReplicateResult:
    cfg, _, grid_index, replicate, _ = args
    try:
        return run_replicate(*args)
    except Exception as exc:
        raise ReplicateError(
            f"replicate failed at sweep value {cfg.grid[grid_index]!r} "
            f"(grid index {grid_index}, replicate {replicate}, seed {cfg.seed}, "
            f"substream {_stream_index(cfg, grid_index, replicate)}): {exc}"
        ) from exc


def aggregate_rows(rhos: np.ndarray, disappointed: np.ndarray, mad_center: str = "mean"):
    """(mean rho, MAD around the chosen center, disappointment frequency)."""
    center = float(np.mean(rhos)) if mad_center == "mean" else float(np.median(rhos))
    return (
        float(np.mean(rhos)),
        float(np.median(np.abs(rhos - center))),
        float(np.mean(disappointed)),
    )


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[GridPointResult]:
    g = build_layered(cfg.h, cfg.w)
    tasks = []
    for grid_index, sweep_value in enumerate(cfg.grid):
        shared_spec = None
        if not cfg.redraw_nominal:
            _, _, sigma = _resolved(cfg, sweep_value)
            shared_spec = random_nominal_spec(
                cfg.nominal, g.num_arcs, cfg.d,
                substream(cfg.seed, _stream_index(cfg, grid_index, None)), sigma=sigma,
            )
        tasks += [(cfg, g, grid_index, i, shared_spec) for i in range(cfg.n0)]
    if workers > 1:
        # One ordered map over the whole sweep, so no grid value waits for
        # the previous one.  Leaving the block shuts the pool down.
        try:
            with ProcessPoolExecutor(workers) as pool:
                replicates = list(pool.map(_replicate_task, tasks))
        except ReplicateError:
            raise
        except Exception as exc:  # a killed worker, a task that does not pickle
            raise RuntimeError(
                f"worker pool failed in the {cfg.sweep} sweep over {cfg.grid!r} "
                f"(seed {cfg.seed}, {workers} workers): {exc!r}"
            ) from exc
    else:
        replicates = list(map(_replicate_task, tasks))
    results = []
    for grid_index, sweep_value in enumerate(cfg.grid):
        batch = replicates[grid_index * cfg.n0 : (grid_index + 1) * cfg.n0]
        aggregates = {}
        for k, rule in enumerate(cfg.rules):
            rhos = np.array([rep.outcomes[k].rho for rep in batch])
            dis = np.array([rep.outcomes[k].disappointed for rep in batch])
            aggregates[rule] = aggregate_rows(rhos, dis, cfg.mad_center)
        results.append(GridPointResult(float(sweep_value), tuple(batch), aggregates))
    return results


def emit_results(
    results: list[GridPointResult], out_dir: str, sweep_var: str, rules
) -> tuple[str, str]:
    """Write results.csv (one row per rule per replicate) and aggregates.csv."""
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    agg_path = os.path.join(out_dir, "aggregates.csv")
    with open(results_path, "w", newline="\n") as fh:
        fh.write("sweep_var,sweep_value,rule,replicate,rho,predicted_loss,nominal_loss,disappointed\n")
        for point in results:
            for rep in point.replicates:
                for out in rep.outcomes:
                    fh.write(
                        f"{sweep_var},{point.sweep_value!r},{out.rule},{rep.replicate},"
                        f"{out.rho!r},{out.predicted!r},{out.nominal!r},{int(out.disappointed)}\n"
                    )
    with open(agg_path, "w", newline="\n") as fh:
        fh.write("sweep_value,rule,mean_rho,mad_rho,disappointment_freq\n")
        for point in results:
            for rule in rules:
                mean_rho, mad_rho, freq = point.aggregates[rule]
                fh.write(f"{point.sweep_value!r},{rule},{mean_rho!r},{mad_rho!r},{freq!r}\n")
    return results_path, agg_path


def read_results_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["sweep_value"] = float(row["sweep_value"])
        row["replicate"] = int(row["replicate"])
        row["rho"] = float(row["rho"])
        row["predicted_loss"] = float(row["predicted_loss"])
        row["nominal_loss"] = float(row["nominal_loss"])
        row["disappointed"] = bool(int(row["disappointed"]))
    return rows
