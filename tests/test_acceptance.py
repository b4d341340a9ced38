"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success; run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the lines inline).  The
directional suites in criterion 6 assert paired mean separations of at
least three standard errors at the pinned seed; the direction of every
claim was additionally checked to be stable across independent seeds.
"""

import math
import time

import numpy as np
import pytest

from kldro.cli import main as cli_main
from kldro.datagen import draw_dataset, nominal_marginals, sample_sizes, substream
from kldro.experiments import ExperimentConfig, run_sweep
from kldro.graphs import build_layered, enumerate_paths, route_costs, shortest_path
from kldro.marginals import PmfMatrix, Support, kl_divergence
from kldro.radius import (_log_mardia_sum, radius_agrawal, radius_baseline, radius_best,
                          radius_mardia)
from kldro.rules import (calibrate_ambiguity, dro1_prescribe, dro_prescribe, hoeffding_prescribe,
                         truncate_dataset, worst_case_costs)
from kldro.worstcase import solve_dual
from oracles import path_cost, primal_oracle


def report(line: str) -> None:
    print(line, flush=True)


def paired_stats(results, rules, base_rule, other_rule):
    """Per grid point and pooled: mean and sem of rho(other) - rho(base)."""
    per_point, pooled = [], []
    for point in results:
        ia, ib = rules.index(base_rule), rules.index(other_rule)
        diff = np.array([rep.outcomes[ib].rho - rep.outcomes[ia].rho for rep in point.replicates])
        pooled.append(diff)
        sem = float(np.std(diff, ddof=1)) / math.sqrt(len(diff))
        per_point.append((float(point.sweep_value), float(np.mean(diff)), sem))
    alldiff = np.concatenate(pooled)
    pooled_sem = float(np.std(alldiff, ddof=1)) / math.sqrt(len(alldiff))
    return per_point, (float(np.mean(alldiff)), pooled_sem)


def test_criterion_1_duality_suite():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst_gap = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        points = np.sort(rng.uniform(0.5, 9.0, d)) + np.arange(d) * 1e-2
        floor = 0.05
        probs = floor + rng.dirichlet(np.ones(d)) * (1.0 - floor * d)
        probs = probs / probs.sum()
        m = PmfMatrix(Support(points), probs)
        r = float(rng.uniform(0.01, 2.0))
        sol = solve_dual(m, r)
        oracle = primal_oracle(m, r, grid=1e-3)
        gap = abs(sol.value - oracle)
        worst_gap = max(worst_gap, gap / m.support.max)
        assert gap <= 5e-3 * m.support.max
        rec = sol.primal
        assert np.all(rec.probs >= 0.0)
        assert float(np.sum(rec.probs)) == pytest.approx(1.0, abs=1e-12)
        assert kl_divergence(m.probs, rec.probs) <= r + 1e-8
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(f"ACCEPTANCE 1 duality: 1000 instances, worst gap {worst_gap:.2e} of top cost, "
           f"{elapsed:.1f}s -- PASS")


def test_criterion_2_decomposition_suite():
    shapes = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2),
              (1, 3), (2, 3), (3, 3), (4, 3), (1, 4), (2, 4), (3, 4),
              (1, 5), (2, 5), (1, 6), (2, 6), (1, 8), (2, 8), (1, 10), (2, 10)]
    rng = np.random.default_rng(1002)
    start = time.time()
    for k in range(200):
        h, w = shapes[k % len(shapes)]
        assert w**h <= 100
        g = build_layered(h, w)
        d = int(rng.integers(3, 9))
        marg = nominal_marginals("shifted-binomial", g.num_arcs, d, rng)
        sizes = rng.integers(3, 11, size=g.num_arcs)
        data = draw_dataset(marg, sizes, rng)
        amb = calibrate_ambiguity(data, 0.05)
        path, predicted_loss = dro_prescribe(data, amb, g)
        paths = enumerate_paths(g)
        # the predictor decomposes per arc, so its enumeration reduces to
        # path sums of per-arc worst cases; spot-check the identity exactly,
        # then brute-force the argmin over those sums
        costs = np.array([solve_dual(data.empirical(a), float(amb[a])).value
                          for a in range(g.num_arcs)])
        predicted = route_costs(g, paths, worst_case_costs(data.support, data.pmf, amb))
        for k in (0, len(paths) // 2, -1):
            assert predicted[k] == path_cost(g, paths[k], costs)
        # enumerate_paths lists paths in shortest_path's tie order, so the
        # first least sum is the prescribed path
        values = [path_cost(g, x, costs) for x in paths]
        best = int(np.argmin(values))
        assert predicted_loss == values[best]
        assert path == tuple(paths[best].tolist())
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(f"ACCEPTANCE 2 decomposition: 200 instances, exact argmin match, "
           f"{elapsed:.1f}s -- PASS")


def test_criterion_3_finite_sample_guarantee():
    g = build_layered(3, 3)
    d, alpha = 10, 0.05
    fixed_path = enumerate_paths(g)[0]
    start = time.time()
    n = 1000
    disappoint_fixed = 0
    disappoint_prescribed = 0
    for i in range(n):
        rng = substream(3001, i)
        marg = nominal_marginals("shifted-binomial", g.num_arcs, d, rng)
        sizes = sample_sizes("uniform", 5, 10, marg, rng)
        data = draw_dataset(marg, sizes, rng)
        costs = worst_case_costs(data.support, data.pmf, calibrate_ambiguity(data, alpha))
        path, predicted_loss = shortest_path(g, costs)
        means = marg.means
        if path_cost(g, fixed_path, means) > path_cost(g, fixed_path, costs):
            disappoint_fixed += 1
        if path_cost(g, path, means) > predicted_loss:
            disappoint_prescribed += 1
    elapsed = time.time() - start
    assert disappoint_fixed / n <= alpha
    assert disappoint_prescribed / n <= alpha
    assert elapsed < 300.0
    report(f"ACCEPTANCE 3 finite-sample guarantee: disappointment "
           f"{disappoint_fixed / n:.4f} (fixed path), {disappoint_prescribed / n:.4f} "
           f"(prescribed) <= {alpha}, {elapsed:.1f}s -- PASS")


def test_criterion_4_radius_calibrations():
    # root bound re-substitutes to the confidence within 1e-8 relative
    for T in range(2, 201, 6):
        for d in (2, 5, 17, 50):
            r = radius_agrawal(T, d, 0.05)
            log_lhs = (d - 1) * (1 + math.log(r * T) - math.log(d - 1)) - r * T
            assert abs(math.exp(log_lhs) - 0.05) <= 1e-8 * 0.05
    # partial-sum constant at d=2 is 12/pi exactly: the sum is its j = 0 term
    assert _log_mardia_sum(2, 10) == 0.0
    # the combined estimate never exceeds the always-applicable baseline
    rng = np.random.default_rng(1004)
    for _ in range(200):
        T, d, m = int(rng.integers(2, 150)), int(rng.integers(1, 60)), int(rng.integers(1, 40))
        alpha_a, alpha = float(rng.uniform(1e-5, 0.99)), math.exp(-float(rng.uniform(0.01, 2.0)))
        value, _ = radius_best(T, d, m, alpha_a, alpha)
        assert value <= radius_baseline(T, d, m, alpha) + 1e-15
    # strict decay in the sample count for every bound
    T = np.arange(2, 201)
    for d in (2, 7, 50):
        for values in (radius_baseline(T, d, 24, 0.05), radius_agrawal(T, d, 0.002),
                       radius_mardia(T, d, 0.002)):
            assert np.all(np.diff(values) < 0.0)
    report("ACCEPTANCE 4 radius calibrations: resubstitution, 12/pi constant, "
           "min dominance, strict decay -- PASS")


def test_criterion_5_degeneration_to_saa():
    cfg = ExperimentConfig(
        h=2, w=3, d=8, alpha=0.05, n0=100, seed=1005,
        nominal="shifted-binomial", sample_sizes="uniform",
        t_min=6, delta=0, sweep="delta", grid=(0,),
        rules=("dro", "hoeffding", "dro1", "dro2"),
    )
    g = build_layered(cfg.h, cfg.w)
    zero = np.zeros(g.num_arcs)
    for replicate in range(cfg.n0):
        # the replicate's data, regenerated from its substream
        rng = substream(cfg.seed, 1 + replicate)
        marg = nominal_marginals(cfg.nominal, g.num_arcs, cfg.d, rng)
        sizes = sample_sizes("uniform", 6, 0, marg, rng)
        data = draw_dataset(marg, sizes, rng)
        prescriptions = [
            dro_prescribe(data, zero, g),
            hoeffding_prescribe(data, 0.0, g),
            dro1_prescribe(data, 0.0, g),
            dro_prescribe(truncate_dataset(data), zero, g),
        ]
        # independent SAA: the shortest path on plain empirical means
        means = [float(data.empirical(a).means) for a in range(g.num_arcs)]
        saa_path, _ = shortest_path(g, means)
        assert [path for path, _ in prescriptions] == [saa_path] * 4
    report("ACCEPTANCE 5 degeneration: zero radius and zero slack reproduce the "
           "sample-average path for all four rules on 100 replicates -- PASS")


def test_criterion_6a_spread_crossover():
    cfg = ExperimentConfig(
        h=7, w=4, d=50, alpha=0.05, n0=50, seed=7,
        nominal="shifted-binomial", sample_sizes="uniform",
        t_min=5, delta=0, sweep="delta", grid=(0, 40),
        rules=("dro", "hoeffding"),
    )
    start = time.time()
    results = run_sweep(cfg)
    per_point, _ = paired_stats(results, cfg.rules, "dro", "hoeffding")
    (v0, mean0, sem0), (v40, mean40, sem40) = per_point
    assert v0 == 0.0 and v40 == 40.0
    assert mean0 > 3.0 * sem0  # robust rule wins with even samples
    assert mean40 < -3.0 * sem40  # ordering reversed at wide spread
    report(f"ACCEPTANCE 6a spread crossover: diff {mean0:+.4f} (z={mean0 / sem0:+.1f}) at 0, "
           f"{mean40:+.4f} (z={mean40 / sem40:+.1f}) at 40, {time.time() - start:.0f}s -- PASS")


def test_criterion_6b_favorable_sampling():
    cfg = ExperimentConfig(
        h=7, w=4, d=50, alpha=0.05, n0=50, seed=7,
        nominal="shifted-binomial", sample_sizes="binomial2",
        t_min=15, delta=10, sweep="t_min", grid=(15, 25, 35),
        rules=("dro", "hoeffding"),
    )
    start = time.time()
    results = run_sweep(cfg)
    per_point, (pooled_mean, pooled_sem) = paired_stats(results, cfg.rules, "dro", "hoeffding")
    for _, point_mean, _ in per_point:
        assert point_mean > 0.0  # robust rule ahead at every sample floor
    assert pooled_mean > 3.0 * pooled_sem
    report(f"ACCEPTANCE 6b favorable sampling: robust rule ahead at all floors, pooled diff "
           f"{pooled_mean:+.4f} (z={pooled_mean / pooled_sem:+.1f}), {time.time() - start:.0f}s -- PASS")


def test_criterion_6c_truncation_helps():
    cfg = ExperimentConfig(
        h=3, w=3, d=50, alpha=0.05, n0=50, seed=7,
        nominal="discretized-normal", sigma=12.5, sample_sizes="uniform",
        t_min=10, delta=0, sweep="delta", grid=(0, 10, 20, 30, 40),
        rules=("dro", "dro2"),
    )
    start = time.time()
    results = run_sweep(cfg)
    _, (pooled_mean, pooled_sem) = paired_stats(results, cfg.rules, "dro2", "dro")
    assert pooled_mean > 3.0 * pooled_sem  # baseline loses to its truncated variant
    report(f"ACCEPTANCE 6c truncation: mean rho(truncated) < mean rho(baseline) over the "
           f"spread grid, diff {pooled_mean:+.4f} (z={pooled_mean / pooled_sem:+.1f}), "
           f"{time.time() - start:.0f}s -- PASS")


def test_criterion_7_run_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        h=2, w=2, d=10, alpha=0.05, n0=5, seed=99,
        nominal="shifted-binomial", sample_sizes="uniform",
        t_min=4, delta=6, sweep="delta", grid=[0, 6],
        rules=["dro", "hoeffding", "dro1", "dro2"],
    )))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "results.csv").read_bytes()
    bytes_b = (out_b / "results.csv").read_bytes()
    assert bytes_a == bytes_b
    assert (out_a / "aggregates.csv").read_bytes() == (out_b / "aggregates.csv").read_bytes()
    report("ACCEPTANCE 7 determinism: byte-identical results.csv across executions -- PASS")
