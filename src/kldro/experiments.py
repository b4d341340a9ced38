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
data is drawn per block: one pmf tensor, one inverse-cdf search and one
data set stacking the block's rows.  The rules run as array code over
those rows: one calibration call per data set (the block's, and its
truncation's when a row is cut), one dual-kernel call for all dro and
dro2 rows, one dro1 call per joint-atom count, and one batched
shortest-path DP over every cost row, whose layer choices give each
rule's nodes and, by one gather, its achieved cost; dro1 returns routes
too.  Kernel and DP rows are solved independently, so output is identical
whatever the block size or the worker count.  ``run_replicate`` is a block
of one.  The aggregates are one reduction of a (grid, rule, replicate) array.
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
from .graphs import (ENUMERATION_CAP, LayeredGraph, build_layered, path_nodes, route_costs,
                     shortest_path)
from .rules import (
    calibrate_ambiguity,
    hoeffding_costs,
    hoeffding_slack,
    joint_radius,
    joint_worst_case_paths,
    truncate_dataset,
    worst_case_costs,
)
# Blocks call the rules' shared helpers; the prescriptions stay importable
# here because bench/trace_layers.py wraps them.
from .rules import dro1_prescribe, dro_prescribe, hoeffding_prescribe  # noqa: F401

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

# field annotation -> (accepted JSON values, how an error names them); no bool is accepted
_ACCEPTED = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float), "a number"),
    "str": (str, "a string"),
    "tuple": ((list, tuple), "a list"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's config; each annotation is the JSON type ``from_dict``
    accepts for its key, a list for a tuple."""

    h: int  # intermediate layers
    w: int  # nodes per layer
    d: int  # support size of every action
    alpha: float  # global confidence level in (0, 1)
    n0: int  # replicates per grid value
    seed: int  # root seed for the Philox substreams, in [0, 2**64)
    nominal: str  # one of NOMINAL_KINDS
    sample_sizes: str  # one of SIZE_KINDS
    t_min: int  # floor of the per-action sample counts
    delta: int  # spread: counts lie in [t_min, t_min + delta]
    sweep: str  # one of SWEEP_VARIABLES
    grid: tuple  # values of the swept variable
    rules: tuple  # nonempty subset of RULE_NAMES
    sigma: float | None = None  # std dev for the discretized-normal nominal

    def __post_init__(self):
        for key in ("h", "w", "d", "t_min", "n0"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
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
        if self.sample_sizes != "uniform" and self.d < 2:
            # at d = 1 every nominal mean is 1, so the tilt cannot normalize
            raise ValueError(f"{self.sample_sizes} sample sizes need d >= 2")
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
        if (len(self.rules) == 0 or any(r not in RULE_NAMES for r in self.rules)
                or len(set(self.rules)) < len(self.rules)):
            raise ValueError(f"rules must be a nonempty subset of {RULE_NAMES}")
        if "dro1" in self.rules and self.w**self.h > ENUMERATION_CAP:
            raise ValueError(f"dro1 enumerates {self.w}**{self.h} paths, above the enumeration "
                             f"cap {ENUMERATION_CAP}")
        if self.nominal == "discretized-normal" and self.sigma is None and self.sweep != "sigma":
            raise ValueError("discretized-normal needs sigma unless sigma is swept")
        if self.sweep == "sigma" and self.nominal != "discretized-normal":
            raise ValueError("a sigma sweep needs the discretized-normal nominal")
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The one type check of a config read from JSON or ``--set``, by
        the field annotations; None is accepted exactly for the keys whose
        default is None."""
        declared = {f.name: f for f in fields(cls)}
        unknown = set(raw) - set(declared)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {key for key, f in declared.items() if f.default is MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        kwargs = {}
        for key, value in raw.items():
            if value is None and declared[key].default is None:
                continue
            accepted, kind = _ACCEPTED[declared[key].type]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"config key {key!r} must be {kind}")
            kwargs[key] = float(value) if kind == "a number" else value
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
    for the whole block.  Then the block makes one calibration call for the
    data and one for its truncation when a row is cut, one dual-kernel call
    for the dro and dro2 rows of all its replicates, one dro1 kernel call
    per joint-atom count, and one dynamic program over every cost row to
    route.  Rows are solved independently, so a
    replicate's result does not depend on the block it runs in.
    """
    rngs = [substream(cfg.seed, _stream_index(cfg, *key)) for key in keys]
    t_min, delta, sigma = zip(*(_resolved(cfg, cfg.grid[grid_index]) for grid_index, _ in keys))
    nominal = nominal_marginals(cfg.nominal, g.num_arcs, cfg.d, rngs,
                                sigma=None if sigma[0] is None else np.array(sigma))
    sizes = sample_sizes(cfg.sample_sizes, np.array(t_min), np.array(delta), nominal, rngs)
    data = draw_dataset(nominal, sizes, rngs, joint=(cfg.nominal == "multinomial"))
    costs = {None: nominal.means}  # rule -> (replicates x arcs) cost rows to route; None: nominal
    if "hoeffding" in cfg.rules:
        costs["hoeffding"] = hoeffding_costs(data, hoeffding_slack(data, cfg.alpha))
    if "dro" in cfg.rules or "dro2" in cfg.rules:
        # dro runs on the data and dro2 on its truncation, which is the data
        # itself in the rows where every count is equal: there dro2 is dro.
        truncated = truncate_dataset(data) if "dro2" in cfg.rules else data
        cut = (truncated.sizes != data.sizes).any(axis=1)
        whole = ~cut | ("dro" in cfg.rules)
        r_whole = calibrate_ambiguity(data, cfg.alpha)
        r_cut = calibrate_ambiguity(truncated, cfg.alpha) if cut.any() else r_whole
        robust = np.zeros((2, *data.sizes.shape))  # the data's rows, then the truncation's
        robust[0][whole], robust[1][cut] = np.split(worst_case_costs(
            data.support, np.concatenate([data.pmf[whole], truncated.pmf[cut]]),
            np.concatenate([r_whole[whole], r_cut[cut]])), [whole.sum()])
        costs["dro"], costs["dro2"] = robust[0], np.where(cut[:, None], robust[1], robust[0])
    routed = [None, *(rule for rule in costs if rule in cfg.rules)]
    routes = shortest_path(g, np.concatenate([costs[rule] for rule in routed]))
    choices = dict(zip(routed, np.split(routes.choices, len(routed))))
    predicted = dict(zip(routed, np.split(routes.values, len(routed))))
    if "dro1" in cfg.rules:
        dro1 = joint_worst_case_paths(g, data, joint_radius(data, cfg.alpha))
        choices["dro1"], predicted["dro1"] = dro1.choices, dro1.values

    chosen = np.stack([choices[rule] for rule in cfg.rules], axis=1)  # (replicates, rules, h)
    guess = np.stack([predicted[rule] for rule in cfg.rules], axis=1)
    # every route under every replicate's means: a replicate's own on the diagonal
    every = np.arange(len(keys))
    achieved = route_costs(g, chosen, nominal.means.T)[every, :, every]
    rho = achieved / predicted[None][:, None]
    return [ReplicateResult(replicate, tuple(counts), tuple(
                RuleOutcome(rule, tuple(nodes), guessed, got, ratio, got > guessed)
                for rule, nodes, guessed, got, ratio in zip(cfg.rules, *outcomes)))
            for (_, replicate), counts, *outcomes in zip(
                keys, data.sizes.tolist(), path_nodes(g, chosen).tolist(), guess.tolist(),
                achieved.tolist(), rho.tolist())]


def run_replicate(cfg: ExperimentConfig, g: LayeredGraph, grid_index: int,
                  replicate: int) -> ReplicateResult:
    """One replicate, run as a block of one: what any block computes for it."""
    return _run_block(cfg, g, [(grid_index, replicate)])[0]


class ReplicateError(RuntimeError):
    """A replicate raised; the message names its sweep value, grid index,
    replicate, seed and substream."""


def _block_task(args) -> list[ReplicateResult]:
    cfg, g, keys = args
    try:
        return _run_block(cfg, g, keys)
    except Exception:
        # Run the block again one replicate at a time, so that the error
        # names the replicate that fails.
        for grid_index, replicate in keys:
            try:
                run_replicate(cfg, g, grid_index, replicate)
            except Exception as exc:
                raise ReplicateError(
                    f"replicate failed at sweep value {cfg.grid[grid_index]!r} "
                    f"(grid index {grid_index}, replicate {replicate}, seed {cfg.seed}, "
                    f"substream {_stream_index(cfg, grid_index, replicate)}): {exc}"
                ) from exc
        raise


def aggregate_rows(rhos: np.ndarray, disappointed: np.ndarray):
    """(mean rho, MAD around the mean, disappointment frequency) along the
    last axis; the MAD is the median deviation, the mean (a + b) / 2 of the
    two middle ones if their count is even."""
    mean = np.mean(rhos, axis=-1)
    dev, n = np.sort(np.abs(rhos - mean[..., None]), axis=-1), rhos.shape[-1]
    mad = (dev[..., (n - 1) // 2] + dev[..., n // 2]) / 2
    return mean, mad, np.mean(disappointed, axis=-1)


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[GridPointResult]:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    g = build_layered(cfg.h, cfg.w)
    keys = [(grid_index, i) for grid_index in range(len(cfg.grid)) for i in range(cfg.n0)]
    size = min(BLOCK_SIZE, -(-len(keys) // workers))
    tasks = [(cfg, g, keys[k:k + size]) for k in range(0, len(keys), size)]
    if workers > 1:
        # One ordered map over the whole sweep, one task per block, so no
        # grid value waits for the previous one; at most one process per
        # CPU.  Leaving the block shuts the pool down.
        try:
            with ProcessPoolExecutor(min(workers, len(tasks), os.cpu_count() or 1)) as pool:
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
    # (grid, rule, replicate) per field; a contiguous row sums as a 1-d array does
    rho, dis = (np.array([[getattr(out, name) for out in rep.outcomes] for rep in replicates])
                .reshape(len(cfg.grid), cfg.n0, -1).swapaxes(1, 2).copy()
                for name in ("rho", "disappointed"))
    stats = np.stack(aggregate_rows(rho, dis), axis=-1).tolist()  # (grid, rule, 3)
    return [GridPointResult(float(sweep_value), tuple(replicates[i * cfg.n0:(i + 1) * cfg.n0]),
                            dict(zip(cfg.rules, map(tuple, stats[i]))))
            for i, sweep_value in enumerate(cfg.grid)]


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
