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

A sweep runs as blocks of up to ``BLOCK_SIZE`` consecutive replicates,
which may span grid values.  Each replicate owns a Philox substream, but
data is drawn per block: one pmf tensor and one inverse-cdf search.  The
block then makes one calibration call for all dro and dro2 bases (data
sets with equal counts share a spec), one dual-kernel call for their rows,
one dro1 call per joint-atom count, and one batched shortest-path DP over
every cost row.  Kernel and DP rows are solved independently and results
are reduced in replicate order, so output is identical whatever the block
size or the worker count.  ``run_replicate`` is a block of one.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .datagen import (NOMINAL_KINDS, SIZE_KINDS, draw_dataset, nominal_marginals, sample_sizes,
                      substream)
from .graphs import LayeredGraph, build_layered, path_cost, shortest_path
from .rules import (
    calibrate_ambiguities,
    hoeffding_costs,
    hoeffding_slack,
    joint_radius,
    joint_worst_case_paths,
    truncate_dataset,
    worst_case_costs,
)
# Blocks call the rules' shared helpers; calibrate_ambiguity and the
# prescriptions stay importable here because bench/trace_layers.py wraps them.
from .rules import calibrate_ambiguity, dro1_prescribe, dro_prescribe, hoeffding_prescribe  # noqa: F401

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
# Most replicates per block.  On full fig2a grid values 16 was the fastest
# block size; blocks of 64 or more were slower, from cache pressure.
BLOCK_SIZE = 16
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
        if self.sweep == "sigma" and self.nominal != "discretized-normal":
            raise ValueError("a sigma sweep needs the discretized-normal nominal")
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


def _run_block(cfg: ExperimentConfig, g: LayeredGraph, keys) -> list[ReplicateResult]:
    """The replicates ``keys``, (grid index, replicate) pairs, as one block.

    Each replicate draws its data from its own substream, one call per stage
    for the whole block.  Then the block makes one calibration call and one
    dual-kernel call for the dro and dro2 rows of all its replicates, one
    dro1 kernel call per joint-atom count, and one dynamic program over
    every cost row to route.  Rows are solved independently, so a
    replicate's result does not depend on the block it runs in.
    """
    rngs = [substream(cfg.seed, _stream_index(cfg, *key)) for key in keys]
    t_min, delta, sigma = zip(*(_resolved(cfg, cfg.grid[grid_index]) for grid_index, _ in keys))
    nominal = nominal_marginals(cfg.nominal, g.num_arcs, cfg.d, rngs,
                                sigma=None if sigma[0] is None else np.array(sigma))
    sizes = sample_sizes(cfg.sample_sizes, np.array(t_min), np.array(delta), nominal, rngs)
    drawn = draw_dataset(nominal, sizes, rngs, joint=(cfg.nominal == "multinomial"))
    rows = {}  # (replicate in block, rule) -> cost row to route; rule None: the nominal best
    bases = {}  # id of a data set -> data set: dro on the data, dro2 on the truncation
    routes = {}  # (replicate in block, rule) -> id of the data set whose worst-case costs it routes
    joint = {}  # (replicate in block, "dro1") -> (truncated data, joint radius), always > 0
    for k, data in enumerate(drawn):
        rows[k, None] = nominal.means[k]
        for rule in cfg.rules:
            if rule == "hoeffding":
                rows[k, rule] = hoeffding_costs(data, hoeffding_slack(data, cfg.alpha))
            elif rule == "dro1":
                joint[k, rule] = (truncate_dataset(data), joint_radius(data, cfg.alpha))
            else:
                # dro runs on the data and dro2 on its truncation, which is the
                # data itself when every count is equal: then dro2 is dro.
                basis = data if rule == "dro" else truncate_dataset(data)
                bases[id(basis)] = basis
                routes[k, rule] = id(basis)
    specs = calibrate_ambiguities(bases.values(), cfg.alpha)
    solved = dict(zip(bases, worst_case_costs(zip(bases.values(), specs))))
    rows.update((slot, solved[basis]) for slot, basis in routes.items())
    picked = dict(zip(joint, joint_worst_case_paths(g, joint.values())))
    picked.update(zip(rows, shortest_path(g, np.stack(list(rows.values())))))

    results = []
    for k, ((_, replicate), data) in enumerate(zip(keys, drawn)):
        best_nominal = picked[k, None][1]
        outcomes = []
        for rule in cfg.rules:
            decision, predicted = picked[k, rule]
            achieved = path_cost(decision, nominal.means[k])
            outcomes.append(RuleOutcome(rule, decision.nodes, predicted, achieved,
                                        achieved / best_nominal, bool(achieved > predicted)))
        results.append(ReplicateResult(replicate, tuple(data.sizes.tolist()), tuple(outcomes)))
    return results


def run_replicate(cfg: ExperimentConfig, g: LayeredGraph, grid_index: int,
                  replicate: int) -> ReplicateResult:
    """One replicate, run as a block of one: what any block computes for it."""
    return _run_block(cfg, g, [(grid_index, replicate)])[0]


class ReplicateError(RuntimeError):
    """A replicate raised; the message names its sweep value, grid index,
    replicate, seed and substream."""


def _replicate_task(cfg: ExperimentConfig, g: LayeredGraph, grid_index: int,
                    replicate: int) -> ReplicateResult:
    try:
        return run_replicate(cfg, g, grid_index, replicate)
    except Exception as exc:
        raise ReplicateError(
            f"replicate failed at sweep value {cfg.grid[grid_index]!r} "
            f"(grid index {grid_index}, replicate {replicate}, seed {cfg.seed}, "
            f"substream {_stream_index(cfg, grid_index, replicate)}): {exc}"
        ) from exc


def _block_task(args) -> list[ReplicateResult]:
    cfg, g, keys = args
    try:
        return _run_block(cfg, g, keys)
    except Exception:
        # Run the block again one replicate at a time, so that the error
        # names the replicate that fails.
        for key in keys:
            _replicate_task(cfg, g, *key)
        raise


def aggregate_rows(rhos: np.ndarray, disappointed: np.ndarray):
    """(mean rho, MAD around the mean, disappointment frequency); the MAD is
    the median deviation as ``np.median`` takes it, at (a + b) / 2 if even."""
    mean = float(np.mean(rhos))
    dev = sorted(np.abs(rhos - mean).tolist())
    mid = len(dev) // 2
    mad = dev[mid] if len(dev) % 2 else (dev[mid - 1] + dev[mid]) / 2
    return mean, mad, float(np.mean(disappointed))


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[GridPointResult]:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    g = build_layered(cfg.h, cfg.w)
    keys = [(grid_index, i) for grid_index in range(len(cfg.grid)) for i in range(cfg.n0)]
    size = min(BLOCK_SIZE, -(-len(keys) // workers))
    tasks = [(cfg, g, keys[k:k + size]) for k in range(0, len(keys), size)]
    if workers > 1:
        # One ordered map over the whole sweep, one task per block, so no
        # grid value waits for the previous one.  Leaving the block shuts
        # the pool down.
        try:
            with ProcessPoolExecutor(min(workers, len(tasks))) as pool:
                blocks = list(pool.map(_block_task, tasks))
        except ReplicateError:
            raise
        except Exception as exc:  # a killed worker, a task that does not pickle
            raise RuntimeError(
                f"worker pool failed in the {cfg.sweep} sweep over {cfg.grid!r} "
                f"(seed {cfg.seed}, {workers} workers): {exc!r}"
            ) from exc
    else:
        blocks = list(map(_block_task, tasks))
    replicates = [result for block in blocks for result in block]
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
