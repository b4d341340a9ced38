"""Sweep-throughput benchmark for kldro.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kldro is imported from ``src/``.
Each workload is a reduced grid taken from a checked-in figure config.  A
batch runs that grid through ``run_sweep`` + ``emit_results``, the path
``kldro run`` takes.  The seed picks INPUT_SETS input sets; batch i runs
set i % INPUT_SETS, so a run covers several inputs and repeats them.

--trace 0 alternates one-worker and two-worker batches on the same inputs
for --seconds seconds, then times set-up and peak memory in fresh
interpreters, and prints the end-to-end metrics.  --trace 1 alternates
untraced and traced one-worker batches and prints per-layer self time and
counts per replicate (see trace_layers.py).  All times except the traced /
untraced overhead are scaled to a reference host speed (see host_speed.py).

Every batch is checked (see output_checks.py), and so is a batch at the
pinned seed against the stored reference.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Exit
code 0 means every check passed, 1 that some check failed, 2 that the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import host_speed
import output_checks as checks
from trace_layers import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str  # file under configs/
    grid: tuple  # reduced grid spanning the config's range
    n0: int  # replicates per grid value in one batch


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "binomial-t_min": Workload("fig2a.json", (5, 15, 25, 35), 2),
    "normal-sigma": Workload("fig4.json", (1, 25, 49), 2),
    "joint-delta": Workload("fig7.json", (0, 14, 26, 40), 2),
}

PINNED_SEED = 1  # seed of the stored reference batch
INPUT_SETS = 4
MIN_PAIRS = 3
WORKERS = 2
SETUP_SAMPLES = 5

END_TO_END = {
    "replicates_per_s": "1/s",
    "replicates_per_s_2w": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = [
    "datagen.nominal_marginals_ms",
    "datagen.draw_dataset_ms",
    "datagen.sample_sizes_ms",
    "marginals.empirical_ms",
    "radius.radius_best_ms",
    "rules.split_alpha_ms",
    "rules.calibrate_ambiguity_ms",
    "worstcase.solve_dual_ms",
    "worstcase.minimize_dual_ms",
    "graphs.enumerate_paths_ms",
    "rules.truncate_dataset_ms",
    "rules.joint_empirical_ms",
    "rules.dro1_prescribe_self_ms",
    "rules.dro_prescribe_self_ms",
    "rules.hoeffding_prescribe_self_ms",
    "graphs.shortest_path_ms",
    "experiments.emit_results_ms",
]
LAYER_COUNTS = [
    "marginals.empirical_calls",
    "radius.radius_best_calls",
    "worstcase.solve_dual_calls",
    "worstcase.dual_iterations",
    "worstcase.minimize_dual_calls",
    "worstcase.minimize_dual_iterations",
    "graphs.paths_enumerated",
]
LAYER_UNITS = {
    **{m: "ms" for m in LAYER_TIMES},
    **{m: "count" for m in LAYER_COUNTS},
    "experiments.run_replicate_ms.p50": "ms",
    "experiments.run_replicate_ms.p90": "ms",
    "experiments.run_replicate_samples": "count",
    "trace.overhead_frac": "fraction",
}


def make_config(wl: Workload, seed: int):
    from kldro.experiments import ExperimentConfig

    with open(ROOT / "configs" / wl.config) as fh:
        raw = json.load(fh)
    raw.update(grid=list(wl.grid), n0=wl.n0, seed=seed)
    return ExperimentConfig.from_dict(raw)


def input_configs(wl: Workload, seed: int) -> list:
    return [make_config(wl, seed * INPUT_SETS + k) for k in range(INPUT_SETS)]


@dataclasses.dataclass
class Batch:
    results: list
    csv: bytes
    seconds: float


class Tally:
    """Replicates attempted and failed over one run; a replicate counts as
    failed once per batch however many checks it fails."""

    def __init__(self):
        self.attempted = 0
        self.failed_keys: set = set()
        self.problems: list = []

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    def fail(self, label: str, keys, why: str) -> None:
        if keys:
            self.failed_keys.update((label, k) for k in keys)
            self.problems.append(f"{label}: {len(keys)} replicate(s) {why}")


def run_checked(cfg, workers: int, out_dir: Path, graph, tally: Tally, label: str):
    """Run and check one batch; None when it raised or came back malformed."""
    from kldro import experiments

    keys = checks.replicate_keys(cfg)
    tally.attempted += len(keys)
    start = time.perf_counter()
    try:
        results = experiments.run_sweep(cfg, workers=workers)
        path, _ = experiments.emit_results(results, str(out_dir), cfg.sweep, cfg.rules)
    except Exception:
        traceback.print_exc()
        tally.fail(label, keys, "raised")
        return None
    seconds = time.perf_counter() - start
    if not checks.shape_ok(results, cfg):
        tally.fail(label, keys, "came back malformed")
        return None
    bad = checks.invariant_failures(results, graph)
    bad |= checks.csv_failures(experiments.read_results_csv(path), results, cfg.sweep)
    tally.fail(label, bad, "broke an invariant or the CSV")
    return Batch(results, Path(path).read_bytes(), seconds)


def compare(a: Batch | None, b: Batch | None, cfg, tally: Tally, label: str, why: str) -> bool:
    """Both batches ran; fail the replicates of ``b`` that differ from ``a``."""
    if a is None or b is None:
        return False
    bad = checks.difference_failures(a.results, b.results)
    if a.csv != b.csv:
        bad = checks.replicate_keys(cfg)
    tally.fail(label, bad, why)
    return True


def reference_path(name: str) -> Path:
    return BENCH / "reference" / f"{name}.json"


def reference_record(wl: Workload) -> dict:
    """Run the pinned-seed batch with one worker and return what the
    reference stores: the batch shape, the results.csv sha256 (information
    only) and one row per rule and replicate."""
    from kldro.graphs import build_layered

    cfg = make_config(wl, PINNED_SEED)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        batch = run_checked(cfg, 1, Path(out), build_layered(cfg.h, cfg.w), tally, "reference")
    if batch is None or tally.failed:
        raise RuntimeError(f"pinned-seed batch failed its checks: {tally.problems}")
    return {
        "config": wl.config,
        "grid": list(wl.grid),
        "n0": wl.n0,
        "seed": PINNED_SEED,
        "rtol": checks.RTOL,
        "results_csv_sha256": hashlib.sha256(batch.csv).hexdigest(),
        "rows": checks.reference_rows(batch.results),
    }


def check_reference(name: str, wl: Workload, graph, tally: Tally, work: Path) -> None:
    """Run the pinned-seed batch (which also warms up) and compare it with
    the stored reference."""
    cfg = make_config(wl, PINNED_SEED)
    batch = run_checked(cfg, 1, work / "reference", graph, tally, "reference")
    ref = json.loads(reference_path(name).read_text())
    if batch is None:
        return
    if (ref["grid"], ref["n0"], ref["seed"]) != (list(wl.grid), wl.n0, PINNED_SEED):
        tally.fail("reference", checks.replicate_keys(cfg), "has no stored reference for this grid")
        return
    tally.fail("reference", checks.reference_failures(batch.results, ref["rows"]),
               f"differ from the stored reference beyond rtol {checks.RTOL}")
    sha = hashlib.sha256(batch.csv).hexdigest()
    same = "same as" if sha == ref["results_csv_sha256"] else "differs from"
    print(f"reference results.csv sha256 {sha} ({same} the stored one; information only)")


def probe_setup(cfg, work: Path) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, scaled to the reference
    host speed, and the peak RSS of a fresh process that runs the batch at
    one worker."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    setups, rss = [], None
    for k in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config_path)]
        if k == 0:
            cmd.append(str(work / "probe"))
        # the probe may land on any CPU
        before = host_speed.loop_seconds(every_cpu=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        after = host_speed.loop_seconds(every_cpu=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        setups.append(host_speed.scaled(report["setup_s"], before, after))
        rss = report.get("peak_rss_mb", rss)
    return statistics.median(setups), rss


def measure_end_to_end(name: str, seed: int, seconds: float, tally: Tally, work: Path) -> dict:
    from kldro.graphs import build_layered

    wl = WORKLOADS[name]
    configs = input_configs(wl, seed)
    graph = build_layered(configs[0].h, configs[0].w)
    check_reference(name, wl, graph, tally, work)
    raw = {1: [], WORKERS: []}
    scaled = {1: [], WORKERS: []}
    start = time.perf_counter()
    i = 0
    while i < MIN_PAIRS or time.perf_counter() - start < seconds:
        cfg = configs[i % INPUT_SETS]
        done, loops = {}, {}
        for w in ((1, WORKERS) if i % 2 == 0 else (WORKERS, 1)):
            # a 1-worker batch runs here; a pool spreads over every CPU
            before = host_speed.loop_seconds(every_cpu=w > 1)
            done[w] = run_checked(cfg, w, work / f"w{w}", graph, tally, f"batch {i} ({w}w)")
            loops[w] = (before, host_speed.loop_seconds(every_cpu=w > 1))
        if compare(done[1], done[WORKERS], cfg, tally, f"batch {i} ({WORKERS}w)",
                   "differ between 1 and 2 workers"):
            for w in raw:
                raw[w].append(done[w].seconds)
                scaled[w].append(host_speed.scaled(done[w].seconds, *loops[w]))
        i += 1
    reps = len(checks.replicate_keys(configs[0]))
    rate = {w: reps / statistics.median(t) if t else 0.0 for w, t in scaled.items()}
    raw_rate = {w: reps / statistics.median(t) if t else 0.0 for w, t in raw.items()}
    print(f"{len(raw[1])} batch pairs of {reps} replicates in {time.perf_counter() - start:.1f} s; "
          f"unscaled wall-clock rates {raw_rate[1]:.3f} and {raw_rate[WORKERS]:.3f} replicates/s "
          f"at 1 and {WORKERS} workers (information only)")
    setup_s, rss = probe_setup(configs[0], work)
    return {
        "replicates_per_s": rate[1],
        "replicates_per_s_2w": rate[WORKERS],
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def measure_layers(name: str, seed: int, seconds: float, tally: Tally, work: Path,
                   tracer: Tracer | None = None) -> dict:
    from kldro.graphs import build_layered

    wl = WORKLOADS[name]
    configs = input_configs(wl, seed)
    graph = build_layered(configs[0].h, configs[0].w)
    check_reference(name, wl, graph, tally, work)
    tracer = tracer or Tracer()
    ratios, counts_by_set, traced_batches = [], {}, 0
    layer_ms, replicate_ms = Counter(), []  # scaled to the reference host speed
    start = time.perf_counter()
    i = 0
    while i <= INPUT_SETS or time.perf_counter() - start < seconds:
        k = i % INPUT_SETS
        cfg = configs[k]
        done = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            label = f"batch {i} ({'traced' if traced else 'untraced'})"
            if not traced:
                done[traced] = run_checked(cfg, 1, work / "untraced", graph, tally, label)
                continue
            before = host_speed.loop_seconds(every_cpu=False)
            self_ns, seen = Counter(tracer.self_ns), len(tracer.durations_ns)
            with tracer.installed():
                done[traced] = run_checked(cfg, 1, work / "traced", graph, tally, label)
            ns_to_ms = host_speed.scaled(1e-6, before, host_speed.loop_seconds(every_cpu=False))
            batch_ms = {m: (tracer.self_ns[m] - self_ns[m]) * ns_to_ms for m in LAYER_TIMES}
            batch_replicate_ms = [ns * ns_to_ms for ns in tracer.durations_ns[seen:]]
            counts = tracer.take_counts()
        label = f"batch {i} (traced)"
        if compare(done[False], done[True], cfg, tally, label, "differ between traced and untraced"):
            ratios.append(done[True].seconds / done[False].seconds)
            traced_batches += 1
            layer_ms.update(batch_ms)
            replicate_ms.extend(batch_replicate_ms)
            if counts_by_set.setdefault(k, counts) != counts:
                tally.fail(label, checks.replicate_keys(cfg), "gave counts that did not repeat")
        i += 1
    reps = len(checks.replicate_keys(configs[0]))
    traced_reps = max(traced_batches * reps, 1)
    counted_reps = max(len(counts_by_set) * reps, 1)
    metrics = {m: layer_ms[m] / traced_reps for m in LAYER_TIMES}
    for m in LAYER_COUNTS:
        metrics[m] = sum(c.get(m, 0) for c in counts_by_set.values()) / counted_reps
    durations = replicate_ms or [0.0]
    deciles = statistics.quantiles(durations, n=10) if len(durations) > 1 else durations * 9
    metrics["experiments.run_replicate_ms.p50"] = statistics.median(durations)
    metrics["experiments.run_replicate_ms.p90"] = deciles[8]
    metrics["experiments.run_replicate_samples"] = len(replicate_ms)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    return metrics


def run_info() -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "kldro").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_kldro_lines": lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kldro" / "__init__.py").is_file():
        print(f"error: no kldro sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.trace and WORKERS > len(os.sched_getaffinity(0)):
        print(f"error: {WORKERS} workers exceed the {len(os.sched_getaffinity(0))} available CPUs",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tally = Tally()
    try:
        if args.trace:
            values = measure_layers(args.workload, args.seed, args.seconds, tally, work)
            units = LAYER_UNITS
        else:
            values = measure_end_to_end(args.workload, args.seed, args.seconds, tally, work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("info " + json.dumps(run_info()))
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {tally.failed / max(tally.attempted, 1)!r} fraction "
          f"({tally.failed} of {tally.attempted} replicates)")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
