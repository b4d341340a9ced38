"""Monte-Carlo harness: sweeps, replicates, relative losses, CSV output.

A sweep fixes everything except one scalar (the floor of the sample counts,
the spread between them, or the nominal standard deviation) and runs a
batch of seeded replicates per grid value.  Each replicate draws fresh
nominal parameters and data, runs the configured rules, and records the
nominal relative loss rho = achieved / best-possible together with a
disappointment flag (nominal loss strictly above the predicted loss).
Each rule's parameters are calibrated from the data at the configured
alpha, then the rule runs at them.  ``ExperimentConfig`` holds exactly what
the figure configs set; ``from_dict`` is its one type check.

Replicates are embarrassingly parallel; each owns a Philox substream and
results are reduced in replicate order, so output is identical whatever the
worker count.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .datagen import (
    NOMINAL_KINDS,
    SIZE_KINDS,
    SampleSizeSpec,
    draw_dataset,
    nominal_marginals,
    random_nominal_spec,
    sample_sizes,
    substream,
)
from .graphs import LayeredGraph, build_layered, path_cost, shortest_path
from .rules import (
    calibrate_ambiguity,
    dro1_prescribe,
    dro_prescribe,
    hoeffding_prescribe,
    hoeffding_slack,
    joint_radius,
    truncate_dataset,
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

# The type of every config key, checked by ExperimentConfig.from_dict.
CONFIG_FIELDS = {
    "h": int,  # intermediate layers
    "w": int,  # nodes per layer
    "d": int,  # support size of every action
    "alpha": float,  # global confidence level in (0, 1)
    "n0": int,  # replicates per grid value
    "seed": int,  # root seed for the Philox substreams
    "nominal": str,  # one of NOMINAL_KINDS
    "sample_sizes": str,  # one of SIZE_KINDS
    "t_min": int,  # floor of the per-action sample counts
    "delta": int,  # spread: counts lie in [t_min, t_min + delta]
    "sigma": float,  # std dev for the discretized-normal nominal
    "sweep": str,  # one of SWEEP_VARIABLES
    "grid": list,  # values of the swept variable
    "rules": list,  # nonempty subset of RULE_NAMES
}
# key type -> (accepted JSON values, how an error names them); no bool is accepted
_ACCEPTED = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    list: ((list, tuple), "a list"),
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

    def __post_init__(self):
        for key in ("h", "w", "d", "t_min", "n0"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
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
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The one type check of a config read from JSON or ``--set``; None
        is accepted exactly for the keys whose default is None."""
        unknown = set(raw) - set(CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        declared = fields(cls)
        missing = {f.name for f in declared if f.default is MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        optional = {f.name for f in declared if f.default is None}
        kwargs = {}
        for key, value in raw.items():
            if value is None and key in optional:
                continue
            typ = CONFIG_FIELDS[key]
            accepted, kind = _ACCEPTED[typ]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"config key {key!r} must be {kind}")
            kwargs[key] = float(value) if typ is float else value
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


def _stream_index(cfg: ExperimentConfig, grid_index: int, replicate: int) -> int:
    # Slot 0 of each grid value is unused; skipping it keeps every
    # replicate's substream, and so every pinned seeded output, in place.
    return grid_index * (cfg.n0 + 1) + 1 + replicate


def run_replicate(cfg: ExperimentConfig, g: LayeredGraph, grid_index: int,
                  replicate: int) -> ReplicateResult:
    sweep_value = cfg.grid[grid_index]
    t_min, delta, sigma = _resolved(cfg, sweep_value)
    rng = substream(cfg.seed, _stream_index(cfg, grid_index, replicate))
    spec = random_nominal_spec(cfg.nominal, g.num_arcs, cfg.d, rng, sigma=sigma)
    marginals = nominal_marginals(spec, g)
    sizes = sample_sizes(SampleSizeSpec(cfg.sample_sizes, t_min, delta), marginals, rng)
    data = draw_dataset(marginals, sizes, rng, joint=(cfg.nominal == "multinomial"))

    means = marginals.means
    _, best_nominal = shortest_path(g, means)

    outcomes = []
    robust = {}  # id of a data set -> dro's prescription on it
    for rule in cfg.rules:
        if rule == "hoeffding":
            pres = hoeffding_prescribe(data, hoeffding_slack(data, cfg.alpha), g)
        elif rule == "dro1":
            pres = dro1_prescribe(data, joint_radius(data, cfg.alpha), g)
        else:
            # dro runs on the data and dro2 on its truncation, which is the
            # data itself when every count is equal: then dro2 is dro.
            basis = data if rule == "dro" else truncate_dataset(data)
            if id(basis) not in robust:
                robust[id(basis)] = dro_prescribe(basis, calibrate_ambiguity(basis, cfg.alpha), g)
            pres = robust[id(basis)]
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
    cfg, _, grid_index, replicate = args
    try:
        return run_replicate(*args)
    except Exception as exc:
        raise ReplicateError(
            f"replicate failed at sweep value {cfg.grid[grid_index]!r} "
            f"(grid index {grid_index}, replicate {replicate}, seed {cfg.seed}, "
            f"substream {_stream_index(cfg, grid_index, replicate)}): {exc}"
        ) from exc


def aggregate_rows(rhos: np.ndarray, disappointed: np.ndarray):
    """(mean rho, MAD around the mean, disappointment frequency)."""
    mean = float(np.mean(rhos))
    return mean, float(np.median(np.abs(rhos - mean))), float(np.mean(disappointed))


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[GridPointResult]:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    g = build_layered(cfg.h, cfg.w)
    tasks = [(cfg, g, grid_index, i) for grid_index in range(len(cfg.grid))
             for i in range(cfg.n0)]
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
            aggregates[rule] = aggregate_rows(rhos, dis)
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
