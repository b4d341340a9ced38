import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import kldro.radius
from kldro import datagen, experiments, rules
from kldro.datagen import binomial_pmfs, nominal_marginals, substream
from kldro.experiments import (
    ExperimentConfig,
    aggregate_rows,
    emit_results,
    read_results_csv,
    run_replicate,
    run_sweep,
)
from kldro.graphs import build_layered, enumerate_paths, path_nodes, shortest_path
from kldro.marginals import DataSet, PmfMatrix, Support
from kldro.radius import radius_best
from oracles import path_cost, radius_best_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(**overrides):
    base = dict(
        h=2, w=2, d=6, alpha=0.05, n0=5, seed=17,
        nominal="shifted-binomial", sample_sizes="uniform",
        t_min=4, delta=3, sweep="delta", grid=(0, 3),
        rules=("dro", "hoeffding"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def binomial_marginals(g, p, d=6):
    assert len(p) == g.num_arcs
    return binomial_pmfs(p, d)


class TestLosses:
    def test_point_mass_nominals_give_deterministic_cost(self):
        g = build_layered(1, 2)
        marg = binomial_marginals(g, [0.0, 1.0, 0.0, 1.0], d=4)
        assert path_cost(g, (0,), marg.means) == pytest.approx(2.0, rel=1e-12)

    def test_uniform_marginals_value_depends_only_on_length(self):
        g = build_layered(3, 2)
        d = 5
        sup_probs = np.full(d, 1.0 / d)
        marg = PmfMatrix(Support.integers(d), np.tile(sup_probs, (g.num_arcs, 1)))
        for path in enumerate_paths(g):
            assert path_cost(g, path, marg.means) == pytest.approx((g.h + 1) * (d + 1) / 2,
                                                                   rel=1e-12)

    def test_nominal_loss_matches_monte_carlo(self):
        g = build_layered(1, 2)
        marg = binomial_marginals(g, [0.3, 0.6, 0.8, 0.2], d=6)
        rng = substream(99, 0)
        n = 100_000
        draws = sum(marg.support.points[rng.choice(6, size=n, p=marg.probs[a])] for a in (1, 3))
        sd = float(np.std(draws))
        assert path_cost(g, (1,), marg.means) == pytest.approx(
            float(np.mean(draws)), abs=3 * sd / math.sqrt(n)
        )

    def test_relative_loss_of_optimum_is_one(self):
        g = build_layered(2, 2)
        marg = binomial_marginals(g, np.linspace(0.1, 0.9, g.num_arcs))
        path, best = shortest_path(g, marg.means)
        assert path_cost(g, path, marg.means) / best == 1.0
        assert all(path_cost(g, x, marg.means) / best >= 1.0 - 1e-12 for x in enumerate_paths(g))

    def test_two_branch_ratio(self):
        # single path, so every rule's rho is 1 by construction
        cfg = small_config(h=1, w=1, rules=("dro", "hoeffding", "dro1", "dro2"))
        result = run_replicate(cfg, build_layered(1, 1), 0, 0)
        assert [out.rho for out in result.outcomes] == [1.0] * 4

    @pytest.mark.parametrize("nominal", ["shifted-binomial", "multinomial"])
    def test_replicate_rho_is_nominal_cost_over_the_nominal_optimum(self, nominal):
        cfg = small_config(nominal=nominal, rules=("dro", "hoeffding", "dro1", "dro2"))
        g = build_layered(cfg.h, cfg.w)
        result = run_replicate(cfg, g, 1, 2)
        assert experiments._stream_index(cfg, 1, 2) == 1 * (cfg.n0 + 1) + 1 + 2
        rng = substream(cfg.seed, experiments._stream_index(cfg, 1, 2))
        means = nominal_marginals(nominal, g.num_arcs, cfg.d, rng).means
        _, best = shortest_path(g, means)
        for out in result.outcomes:
            choices = [(node - 1) % g.w for node in out.nodes[1:-1]]
            assert tuple(path_nodes(g, choices).tolist()) == out.nodes
            assert out.nominal == path_cost(g, choices, means)
            assert out.rho == out.nominal / best
            assert out.rho >= 1.0


class TestConfig:
    def test_from_dict_validates_keys_and_types(self):
        raw = dict(
            h=2, w=2, d=6, alpha=0.05, n0=5, seed=17,
            nominal="shifted-binomial", sample_sizes="uniform",
            t_min=4, delta=3, sweep="delta", grid=[0, 3],
            rules=["dro"],
        )
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.grid == (0, 3)
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({**raw, "bogus": 1})
        with pytest.raises(ValueError, match="missing config keys"):
            ExperimentConfig.from_dict({k: v for k, v in raw.items() if k != "d"})
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig.from_dict({**raw, "n0": 2.5})
        for key, value, kind in [("h", None, "an integer"), ("seed", True, "an integer"),
                                 ("alpha", "0.05", "a number"), ("nominal", 5, "a string"),
                                 ("grid", 3, "a list")]:
            with pytest.raises(ValueError, match=f"^config key '{key}' must be {kind}$"):
                ExperimentConfig.from_dict({**raw, key: value})
        for removed in ("redraw_nominal", "mad_center", "enumeration_cap", "radius_override",
                        "epsilon_override"):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{removed}'\\]"):
                ExperimentConfig.from_dict({**raw, removed: None})
        assert ExperimentConfig.from_dict({**raw, "sigma": None}).sigma is None
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**raw, "rules": ["nope"]})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**raw, "grid": []})

    def test_fields_are_the_keys_the_figure_configs_set(self):
        keys = set().union(*(json.loads(path.read_text()) for path in CONFIGS.glob("fig*.json")))
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} == keys

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("fig*.json")), ids=lambda p: p.stem)
    def test_figure_configs_survive_a_json_round_trip(self, path):
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
        text = json.dumps(dataclasses.asdict(cfg))
        assert ExperimentConfig.from_dict(json.loads(text)) == cfg

    def test_sigma_required_for_normal(self):
        with pytest.raises(ValueError, match="sigma"):
            small_config(nominal="discretized-normal")
        cfg = small_config(nominal="discretized-normal", sweep="sigma", grid=(5.0,))
        assert cfg.sigma is None

    @pytest.mark.parametrize("nominal", ["shifted-binomial", "multinomial"])
    def test_sigma_sweep_needs_the_normal_nominal(self, nominal):
        # Only the discretized normal reads sigma; any other sweep of it
        # would run the same instances at every grid value.
        with pytest.raises(ValueError, match="^a sigma sweep needs the discretized-normal nominal$"):
            small_config(nominal=nominal, sweep="sigma", grid=(5.0,))


    @pytest.mark.parametrize("overrides, message", [
        (dict(h=0), "^h must be >= 1"),
        (dict(w=0), "^w must be >= 1"),
        (dict(d=0), "^d must be >= 1"),
        (dict(t_min=0), "^t_min must be >= 1"),
        (dict(delta=-1), "^delta must be >= 0"),
        (dict(sigma=0.0), "^sigma must be positive"),
        (dict(sigma=-2.0), "^sigma must be positive"),
        (dict(sweep="t_min", grid=(4, 0)), "^t_min sweep value 0 must be an integer >= 1"),
        (dict(sweep="t_min", grid=(-3,)), "^t_min sweep value -3 must be an integer >= 1"),
        (dict(sweep="t_min", grid=(5.5,)), "^t_min sweep value 5.5 must be an integer >= 1"),
        (dict(sweep="delta", grid=(-1,)), "^delta sweep value -1 must be an integer >= 0"),
        (dict(sweep="delta", grid=(0, 1.5)), "^delta sweep value 1.5 must be an integer >= 0"),
        (dict(sweep="delta", grid=(math.inf,)), "^delta sweep value inf must be an integer"),
        (dict(nominal="discretized-normal", sweep="sigma", grid=(2.0, 0.0)),
         "^sigma sweep value 0.0 must be positive"),
        (dict(nominal="discretized-normal", sweep="sigma", grid=(-1.0,)),
         "^sigma sweep value -1.0 must be positive"),
        (dict(nominal="discretized-normal", sweep="sigma", grid=(math.nan,)),
         "^sigma sweep value nan must be positive"),
        (dict(sweep="t_min", grid=("5",)), "^sweep value '5' is not a number"),
        (dict(sweep="delta", grid=(True,)), "^sweep value True is not a number"),
        (dict(seed=-1), r"^seed must lie in \[0, 2\*\*64\)$"),
        (dict(seed=2**64), r"^seed must lie in \[0, 2\*\*64\)$"),
        (dict(rules=("dro", "hoeffding", "dro")), "^rules must be a nonempty subset"),
        (dict(alpha=1.0), r"^alpha must lie in \(0, 1\)$"),
        (dict(n0=0), "^n0 must be >= 1$"),
        (dict(h=10, w=4, rules=("dro", "dro1")),
         r"^dro1 enumerates 4\*\*10 paths, above the enumeration cap 100000$"),
        (dict(h=10**5, w=4, rules=("dro1",)),
         r"^dro1 enumerates 4\*\*100000 paths, above the enumeration cap 100000$"),
        (dict(alpha=5e-324), r"^alpha 5e-324 is too small to split over 8 actions"),
        (dict(sigma=1e20), r"^sigma must be positive and at most 1e\+06$"),
        (dict(nominal="discretized-normal", sweep="sigma", grid=(49.0, 1e20)),
         r"^sigma sweep value 1e\+20 must be positive and at most 1e\+06$"),
    ])
    def test_rejects_out_of_range_values(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)

    @pytest.mark.parametrize("kind", ["binomial1", "binomial2"])
    def test_binomial_sizes_run_at_d_1(self, kind):
        # At d = 1 every nominal mean is 1, so every action's share is 1/2;
        # every path costs 1 per arc, so every rule is exact.
        cfg = small_config(sample_sizes=kind, d=1, rules=experiments.RULE_NAMES)
        for point in run_sweep(cfg):
            for rep in point.replicates:
                assert all(4 <= t <= 4 + point.sweep_value for t in rep.sizes)
                assert [o.rho for o in rep.outcomes] == [1.0] * len(cfg.rules)

    def test_path_cap_binds_only_dro1(self):
        # 4**10 paths are legal without dro1, and 10**5, exactly the cap, with it
        assert small_config(h=10, w=4, rules=("dro", "hoeffding", "dro2")).h == 10
        assert small_config(h=5, w=10, rules=("dro1",)).w == 10

    def test_alpha_is_refused_exactly_when_a_share_can_leave_the_normal_floats(self):
        """The smallest share goes to one action at t_min + delta with the
        other three at t_min: alpha / 7 at t_min 4 and delta 4 on four arcs.
        At 7 times the smallest normal float every rule runs, with warnings
        as errors; one float lower is refused.  dro1 splits no alpha."""
        edge = 7.0 * sys.float_info.min
        cfg = small_config(h=1, t_min=4, grid=(0, 4), alpha=edge, rules=experiments.RULE_NAMES)
        assert len(run_sweep(cfg)) == 2
        with pytest.raises(ValueError, match=r"over 4 actions with counts 4 to 8: a share falls"):
            dataclasses.replace(cfg, alpha=math.nextafter(edge, 0.0))
        assert len(run_sweep(small_config(alpha=5e-324, rules=("dro1",)))) == 2

    def test_integral_float_counts_are_accepted(self):
        assert small_config(sweep="t_min", grid=(5.0, 7)).grid == (5.0, 7)
        assert small_config(nominal="discretized-normal", sweep="sigma", grid=(0.5,),
                            sigma=None).grid == (0.5,)


class TestRunSweep:
    def test_replay_is_bit_for_bit(self, tmp_path):
        cfg = small_config()
        r1 = run_sweep(cfg)
        r2 = run_sweep(cfg)
        p1 = emit_results(r1, str(tmp_path / "a"), cfg.sweep, cfg.rules)
        p2 = emit_results(r2, str(tmp_path / "b"), cfg.sweep, cfg.rules)
        assert Path(p1[0]).read_bytes() == Path(p2[0]).read_bytes()
        assert Path(p1[1]).read_bytes() == Path(p2[1]).read_bytes()

    def test_rho_at_least_one_everywhere(self):
        results = run_sweep(small_config(rules=("dro", "hoeffding", "dro1", "dro2")))
        for point in results:
            for rep in point.replicates:
                for out in rep.outcomes:
                    assert out.rho >= 1.0 - 1e-12

    def test_point_mass_nominals_make_every_rule_exact(self):
        # p=0 for every action puts all mass on cost 1: nothing to learn
        cfg = small_config(rules=("dro", "hoeffding", "dro1", "dro2"), n0=3)
        results = run_sweep(cfg)
        # can't force p=0 through the public config (parameters are drawn),
        # so check the degenerate-instance property directly instead
        g = build_layered(cfg.h, cfg.w)
        marg = binomial_marginals(g, np.zeros(g.num_arcs), d=cfg.d)
        from kldro.datagen import draw_dataset
        from kldro.rules import calibrate_ambiguity, dro_prescribe

        data = draw_dataset(marg, np.full(g.num_arcs, 30), substream(5, 5))
        path, _ = dro_prescribe(data, calibrate_ambiguity(data, 0.05), g)
        assert path_cost(g, path, marg.means) == shortest_path(g, marg.means)[1]
        assert results  # the sweep itself ran

    def test_sweep_variable_is_applied(self):
        cfg = small_config(sweep="t_min", grid=(2, 9), delta=0, n0=4)
        results = run_sweep(cfg)
        for point, expected in zip(results, (2, 9)):
            for rep in point.replicates:
                assert all(t == expected for t in rep.sizes)

    def test_failing_replicate_aborts_with_context(self, monkeypatch):
        # a size draw that raises aborts the sweep with the offending grid value
        def failing(*args):
            raise ValueError("injected")

        # workers are forked after the patch, so they run ``failing``
        monkeypatch.setattr(experiments, "sample_sizes", failing)
        cfg = small_config(n0=9, rules=("dro",))  # 18 replicates: two blocks
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match=r"^replicate failed at sweep value 0 .*replicate 0, seed 17"):
                run_sweep(cfg, workers=workers)

    def test_killed_worker_aborts_with_sweep_context(self, monkeypatch):
        parent = os.getpid()

        def die(*args):
            if os.getpid() == parent:
                raise AssertionError("the block ran in the parent process")
            os._exit(1)

        # workers are forked after the patch, so they run ``die``; 18
        # replicates are two blocks, so two CPUs open a pool of two
        monkeypatch.setattr(experiments, "_run_block", die)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match=r"pool failed in the delta sweep .*seed 17"):
            run_sweep(small_config(n0=9), workers=2)

    @pytest.mark.parametrize("nominal, sizes, sigma", [
        ("shifted-binomial", "uniform", None),
        ("multinomial", "binomial1", None),
        ("discretized-normal", "binomial2", 2.0),
    ])
    def test_no_marginal_built_per_replicate(self, monkeypatch, nominal, sizes, sigma):
        """A replicate with all four rules builds one PmfMatrix, the nominal,
        and calls none of the one-row names the bench tracer wraps."""
        cfg = small_config(nominal=nominal, sample_sizes=sizes, sigma=sigma,
                           rules=("dro", "hoeffding", "dro1", "dro2"))
        g = build_layered(cfg.h, cfg.w)
        built, calls = [], []
        post_init = PmfMatrix.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(PmfMatrix, "__post_init__", counting)
        for owner, name in ((DataSet, "empirical"), (rules, "solve_dual"),
                            (rules, "minimize_dual"), (rules.JointEmpirical, "from_dataset")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        run_replicate(cfg, g, 1, 0)
        assert calls == [] and len(built) == 1
        # the counters work: a one-row pmf and the worst case on it
        one = DataSet(Support.integers(2), np.array([0, 1]), np.array([2])).empirical(0)
        rules.solve_dual(one, 0.1)
        assert calls == ["empirical", "solve_dual"] and len(built) == 3

    def test_fig7_replicate_builds_data_and_one_truncation(self, monkeypatch):
        raw = json.loads((CONFIGS / "fig7.json").read_text())
        cfg = ExperimentConfig.from_dict({**raw, "grid": [14], "n0": 3})
        built = []
        post_init = DataSet.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        splits = []
        split_alpha = rules.split_alpha

        def counting_split(alpha, sizes):
            splits.append(len(sizes))
            return split_alpha(alpha, sizes)

        monkeypatch.setattr(DataSet, "__post_init__", counting)
        monkeypatch.setattr(rules, "split_alpha", counting_split)
        for replicate in range(cfg.n0):
            run_replicate(cfg, build_layered(cfg.h, cfg.w), 0, replicate)
            assert len(built) == 2 * (replicate + 1)  # the data and its truncation
            # once for the data (dro and hoeffding), once for the truncation (dro2)
            assert len(splits) == 2 * (replicate + 1)

    def test_fig7_dro2_equals_dro_when_counts_are_equal(self, monkeypatch):
        raw = json.loads((CONFIGS / "fig7.json").read_text())
        cfg = ExperimentConfig.from_dict({**raw, "grid": [0, 14], "n0": 2})
        g = build_layered(cfg.h, cfg.w)
        calls = []
        solve_dual_batch = rules.solve_dual_batch

        def counting(*args):
            calls.append(len(args[1]))  # weight rows: dro's call shares one support row
            return solve_dual_batch(*args)

        monkeypatch.setattr(rules, "solve_dual_batch", counting)
        # one call for the rows of dro and dro2 (one per arc each, equal
        # counts or not), then one with a row per path for dro1
        for grid_index in range(2):
            for replicate in range(cfg.n0):
                calls.clear()
                result = run_replicate(cfg, g, grid_index, replicate)
                assert calls == [48, 27]
                dro, dro2 = result.outcomes[0], result.outcomes[3]
                if grid_index == 0:
                    assert (dro.nodes, dro.predicted) == (dro2.nodes, dro2.predicted)

    def test_fig7_block_makes_one_robust_call_and_one_dro1_call(self, monkeypatch):
        raw = json.loads((CONFIGS / "fig7.json").read_text())
        cfg = ExperimentConfig.from_dict({**raw, "grid": [0, 14], "n0": 3})
        g = build_layered(cfg.h, cfg.w)
        keys = [(grid_index, i) for grid_index in range(2) for i in range(cfg.n0)]
        calls, values = [], []
        solve_dual_batch = rules.solve_dual_batch

        def counting(*args):
            found = solve_dual_batch(*args)
            calls.append(np.shape(args[1]))  # the weights, one row per arc or path
            values.append(found.value)
            return found

        monkeypatch.setattr(rules, "solve_dual_batch", counting)
        widths = []
        for key in keys:
            calls.clear()
            experiments._run_block(cfg, g, [key])
            widths.append(calls[-1][1])  # dro1's call comes last; its width is the T_min
        assert len(set(widths)) > 1  # uniform sizes lift one replicate's T_min to 11
        calls.clear()
        values.clear()
        results = experiments._run_block(cfg, g, keys)
        # dro on all six data sets, dro2 on all six truncations, then dro1
        # on every path of all six, padded to the largest T_min
        assert calls == [(12 * 24, cfg.d), (6 * 27, max(widths))]
        # dro2's cost rows equal dro's bit for bit on every row it keeps whole
        dro, dro2 = np.split(values[0].reshape(12, 24), 2)
        sizes = np.array([result.sizes for result in results])
        whole = (sizes == sizes.min(axis=1, keepdims=True)).all(axis=1)
        assert whole.tolist() == [True] * 3 + [False] * 3  # a mixed block
        assert dro2[whole].tobytes() == dro[whole].tobytes()
        assert (dro2[~whole] != dro[~whole]).any()

    def test_fig7_block_calibrates_each_data_set_and_each_input_once(self, monkeypatch):
        raw = json.loads((CONFIGS / "fig7.json").read_text())
        cfg = ExperimentConfig.from_dict({**raw, "grid": [0, 14], "n0": 3})
        g = build_layered(cfg.h, cfg.w)
        keys = [(grid_index, i) for grid_index in range(2) for i in range(cfg.n0)]
        calibrated, solved, agrawal = [], [], []
        calibrate_ambiguity = experiments.calibrate_ambiguity
        radius_agrawal = kldro.radius.radius_agrawal

        def calibrating(data, alpha):
            found = calibrate_ambiguity(data, alpha)
            calibrated.append((data, found))
            return found

        def solving(*args):
            solved.append(args)
            return radius_best(*args)

        def bounding(T, d, alpha_a):
            agrawal.append(np.size(T))
            return radius_agrawal(T, d, alpha_a)

        monkeypatch.setattr(experiments, "calibrate_ambiguity", calibrating)
        monkeypatch.setattr(rules, "radius_best", solving)
        monkeypatch.setattr(kldro.radius, "radius_agrawal", bounding)
        # nothing is cached across blocks: a second block on the same
        # inputs makes the same calls
        for _ in range(2):
            for calls in (calibrated, solved, agrawal):
                calls.clear()
            experiments._run_block(cfg, g, keys)
            # one call for the block's data and one for its truncation, six
            # replicates each: the delta = 14 rows are cut
            [(data, r_data), (truncated, _)] = calibrated
            assert data.sizes.shape == truncated.sizes.shape == (6, 24)
            assert (truncated.sizes != data.sizes).any()
            # one radius_best call per data set, over all its rows; at d = 50
            # no Agrawal root can win, so each call, the joint radius's
            # included, passes Agrawal no input
            per_arc = [args for args in solved if args[2] > 1]
            assert [(np.shape(args[0]), args[1:3]) for args in per_arc] == [
                ((6, 24), (cfg.d, g.num_arcs))] * 2
            for (found, _), (sizes, *_) in zip(calibrated, per_arc):
                assert sizes is found.sizes
            assert agrawal == [0] * len(solved)
            # and every radius is that of radius_best on its input alone, and
            # the least of all three bounds
            for found, radii in calibrated:
                alphas = rules.split_alpha(cfg.alpha, found.sizes)
                for t, alpha_a, radius in zip(found.sizes.ravel().tolist(),
                                              alphas.ravel().tolist(), radii.ravel().tolist()):
                    args = (t, cfg.d, g.num_arcs, alpha_a, cfg.alpha)
                    assert radius == radius_best(*args)[0] == radius_best_reference(*args)[0]
            # the three delta = 0 replicates have equal counts, so equal radii
            assert np.array_equal(r_data[0], r_data[1])
            assert np.array_equal(r_data[0], r_data[2])
            # dro1's joint radius: one radius_best call over all six rows
            [joint] = [args for args in solved if args[2] == 1]
            assert len(solved) == 3
            assert np.array_equal(joint[0], data.t_min) and np.shape(joint[0]) == (6,)
            assert joint[1:] == (cfg.d**g.num_arcs, 1, cfg.alpha, cfg.alpha)
        # with no row cut, the data and its truncation are each calibrated
        # once, to equal radii
        calibrated.clear()
        experiments._run_block(cfg, g, keys[:cfg.n0])
        [(data, r_data), (truncated, r_cut)] = calibrated
        assert truncated is not data and np.array_equal(truncated.sizes, data.sizes)
        assert data.sizes.shape == (3, 24) and np.array_equal(r_cut, r_data)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_inside_a_block_names_its_replicate(self, monkeypatch, workers):
        cfg = small_config(n0=9, grid=(0, 3))  # blocks of 16 and 2, or two of 9
        stream = experiments._stream_index(cfg, 1, 2)
        substream = experiments.substream

        def failing(seed, index):
            if index == stream:
                raise ValueError("injected")
            return substream(seed, index)

        monkeypatch.setattr(experiments, "substream", failing)
        with pytest.raises(experiments.ReplicateError, match=(
                rf"^replicate failed at sweep value 3 \(grid index 1, replicate 2, seed 17, "
                rf"substream {stream}\): injected$")):
            run_sweep(cfg, workers=workers)

    def test_a_block_that_fails_only_as_a_block_raises_its_own_error(self, monkeypatch):
        shortest_path = experiments.shortest_path

        def one_replicate_only(g, costs):
            if len(costs) > len(small_config().rules) + 1:
                raise RuntimeError("more than one replicate's rows")
            return shortest_path(g, costs)

        monkeypatch.setattr(experiments, "shortest_path", one_replicate_only)
        with pytest.raises(RuntimeError, match="^more than one replicate's rows$"):
            run_sweep(small_config(n0=2))
        assert len(run_sweep(small_config(n0=1, grid=(0,)))) == 1

    def test_parallel_matches_sequential(self, tmp_path):
        cfg = small_config(n0=9, grid=(0, 3))  # 18 replicates: two blocks
        seq = run_sweep(cfg, workers=1)
        par = run_sweep(cfg, workers=2)
        a = emit_results(seq, str(tmp_path / "seq"), cfg.sweep, cfg.rules)
        b = emit_results(par, str(tmp_path / "par"), cfg.sweep, cfg.rules)
        assert Path(a[0]).read_bytes() == Path(b[0]).read_bytes()
        assert Path(a[1]).read_bytes() == Path(b[1]).read_bytes()

    @pytest.mark.parametrize("cpus, processes", [(3, 3), (None, 1)])
    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch, cpus, processes):
        """10,000 workers on 34 replicates, three blocks' worth, run on a
        pool of three processes at three CPUs, and in this process, with no
        pool, when the CPU count is unknown; the stand-in pool maps in this
        process, so no process starts."""
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = small_config(n0=17, grid=(0, 3))
        many, one = run_sweep(cfg, workers=10_000), run_sweep(cfg, workers=1)
        assert opened == ([processes] if processes > 1 else [])
        assert many == one
        assert [p.aggregates for p in many] == [p.aggregates for p in one]

    def test_one_block_runs_in_this_process(self, monkeypatch):
        """A sweep of at most BLOCK_SIZE replicates opens no pool, whatever
        the worker and CPU counts."""
        def refuse(*args):
            raise AssertionError("a pool was opened")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = small_config(n0=8, grid=(0, 3))  # 16 replicates
        one = run_sweep(cfg, workers=1)
        for workers in (2, 10_000):
            assert run_sweep(cfg, workers=workers) == one


class TestAggregatesAndEmit:
    def test_mad_definition_around_mean(self):
        rhos = np.array([1.0, 1.2, 1.5, 2.3])
        mean_rho, mad, freq = aggregate_rows(rhos, np.array([0, 1, 0, 0]))
        assert mean_rho == pytest.approx(1.5)
        assert mad == pytest.approx(np.median(np.abs(rhos - 1.5)))
        assert freq == 0.25

    @pytest.mark.parametrize("n0", [1, 2, 3, 9, 50, 129])
    def test_stacked_aggregates_equal_each_row_alone(self, n0):
        """The (grid, rules, n0) reduction equals, bit for bit, the 1-d
        definition on each row: the mean, and the median deviation from a
        sorted list at (a + b) / 2 when n0 is even."""
        def one_row(rhos, disappointed):
            mean = float(np.mean(rhos))
            dev = sorted(np.abs(rhos - mean).tolist())
            mid = len(dev) // 2
            mad = dev[mid] if len(dev) % 2 else (dev[mid - 1] + dev[mid]) / 2
            return mean, mad, float(np.mean(disappointed))

        rng = np.random.default_rng(n0)
        rhos = 1.0 + rng.exponential(0.3, size=(3, 4, n0))
        dis = rng.random((3, 4, n0)) < 0.3
        stats = np.stack(aggregate_rows(rhos, dis), axis=-1)
        assert stats.shape == (3, 4, 3)
        assert dis.any()
        for grid in range(3):
            for rule in range(4):
                assert stats[grid, rule].tolist() == list(one_row(rhos[grid, rule], dis[grid, rule]))

    def test_csv_round_trip_reproduces_aggregates(self, tmp_path):
        cfg = small_config(rules=("dro", "hoeffding", "dro2"))
        results = run_sweep(cfg)
        res_path, agg_path = emit_results(results, str(tmp_path), cfg.sweep, cfg.rules)
        rows = read_results_csv(res_path)
        with open(agg_path, newline="") as fh:
            aggs = list(csv.DictReader(fh))
        assert rows[0]["sweep_var"] == "delta"
        for agg in aggs:
            sel = [
                r for r in rows
                if r["rule"] == agg["rule"] and r["sweep_value"] == float(agg["sweep_value"])
            ]
            assert len(sel) == cfg.n0
            rhos = np.array([r["rho"] for r in sel])
            dis = np.array([r["disappointed"] for r in sel])
            mean_rho, mad, freq = aggregate_rows(rhos, dis)
            assert float(agg["mean_rho"]) == mean_rho
            assert float(agg["mad_rho"]) == mad
            assert float(agg["disappointment_freq"]) == freq

    def test_emit_over_longer_files_leaves_the_bytes_of_a_fresh_emit(self, tmp_path):
        """A shorter sweep emitted over a longer one's files leaves the same
        bytes as in a fresh directory: no trailing bytes, no extra file."""
        cfg = small_config(rules=("dro", "hoeffding"))
        longer, shorter = run_sweep(cfg), run_sweep(dataclasses.replace(cfg, n0=2, grid=(3,)))
        first = emit_results(longer, str(tmp_path / "reused"), cfg.sweep, cfg.rules)
        sizes = [os.path.getsize(path) for path in first]
        reused = emit_results(shorter, str(tmp_path / "reused"), cfg.sweep, cfg.rules)
        fresh = emit_results(shorter, str(tmp_path / "fresh"), cfg.sweep, cfg.rules)
        assert sorted(os.listdir(tmp_path / "reused")) == ["aggregates.csv", "results.csv"]
        for a, b, size in zip(reused, fresh, sizes):
            assert Path(a).read_bytes() == Path(b).read_bytes()
            assert os.path.getsize(b) < size

    def test_column_order_fixed(self, tmp_path):
        cfg = small_config(n0=1, grid=(0,), rules=("dro",))
        res_path, agg_path = emit_results(run_sweep(cfg), str(tmp_path), cfg.sweep, cfg.rules)
        assert Path(res_path).read_text().splitlines()[0] == (
            "sweep_var,sweep_value,rule,replicate,rho,predicted_loss,nominal_loss,disappointed"
        )
        assert Path(agg_path).read_text().splitlines()[0] == (
            "sweep_value,rule,mean_rho,mad_rho,disappointment_freq"
        )

    def test_disappointment_rare_under_calibrated_radii(self):
        cfg = small_config(n0=30, grid=(2,), rules=("dro", "hoeffding"), seed=77)
        results = run_sweep(cfg)
        for rule in cfg.rules:
            _, _, freq = results[0].aggregates[rule]
            assert freq <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 30)


# config -> reduced grid, one config per nominal kind and more.  At delta =
# 40, fig7's uniform sizes lift T_min above 10 in some replicates, so its
# blocks mix dro1 atom counts (10, 12 and 13 at n0 = 5); fig8b runs dro1 and
# dro2 on binomial2 sizes; fig2b draws the multinomial jointly; fig4's
# blocks span several sigma values.
REDUCED = {"fig2a.json": (5, 35), "fig2b.json": (5, 35), "fig4.json": (1, 25, 49),
           "fig7.json": (0, 40), "fig8b.json": (0, 40)}


def reduced_config(name, n0):
    raw = json.loads((CONFIGS / name).read_text())
    return ExperimentConfig.from_dict({**raw, "grid": list(REDUCED[name]), "n0": n0})


class TestBlocks:
    @pytest.mark.parametrize("name", sorted(REDUCED))
    def test_block_size_does_not_change_results(self, name):
        cfg = reduced_config(name, n0=5)
        g = build_layered(cfg.h, cfg.w)
        keys = [(grid_index, i) for grid_index in range(len(cfg.grid)) for i in range(cfg.n0)]
        by_size = {
            size: [result for k in range(0, len(keys), size)
                   for result in experiments._run_block(cfg, g, keys[k:k + size])]
            for size in (1, 7, cfg.n0, len(keys))  # 7 and the whole sweep cross grid values
        }
        assert by_size[1] == by_size[7] == by_size[cfg.n0] == by_size[len(keys)]
        assert [r.replicate for r in by_size[1]] == [i for _, i in keys]

    @pytest.mark.parametrize("name, build", [("fig2a.json", "binomial_pmfs"),
                                             ("fig4.json", "normal_pmfs")])
    def test_a_block_builds_one_pmf_tensor_and_makes_one_keyed_search(self, monkeypatch,
                                                                       name, build):
        cfg = reduced_config(name, n0=4)
        g = build_layered(cfg.h, cfg.w)
        keys = [(grid_index, i) for grid_index in range(len(cfg.grid)) for i in range(cfg.n0)]
        calls = []

        def counting(attr):
            original = getattr(datagen, attr)

            def counted(*args):
                calls.append((attr, np.shape(args[0])))
                return original(*args)

            return counted

        for attr in (build, "_inverse_cdf"):
            monkeypatch.setattr(datagen, attr, counting(attr))
        experiments._run_block(cfg, g, keys[:8])  # crosses a grid value
        assert calls == [(build, (8, g.num_arcs)), ("_inverse_cdf", (8 * g.num_arcs, cfg.d))]

    @pytest.mark.parametrize("name, validations", [("fig2a.json", 1), ("fig7.json", 2)])
    def test_a_block_validates_its_data_once(self, monkeypatch, name, validations):
        """One validation over all rows of a block of 8, and one more for its
        truncation where dro2 runs (fig7: the delta = 40 rows are cut)."""
        cfg = reduced_config(name, n0=4)
        g = build_layered(cfg.h, cfg.w)
        keys = [(grid_index, i) for grid_index in range(len(cfg.grid)) for i in range(cfg.n0)]
        validated = []
        post_init = DataSet.__post_init__

        def counting(self):
            validated.append(self.sizes.shape)
            post_init(self)

        monkeypatch.setattr(DataSet, "__post_init__", counting)
        experiments._run_block(cfg, g, keys[:8])
        assert validated == [(8, g.num_arcs)] * validations

    @pytest.mark.parametrize("name", sorted(REDUCED))
    def test_worker_count_does_not_change_the_csvs(self, name, tmp_path):
        cfg = reduced_config(name, n0=9)  # 18 or 27 replicates: two blocks
        written = {}
        for workers in (1, 2, 3):  # blocks of 16 and the rest, or one block per process
            paths = emit_results(run_sweep(cfg, workers=workers), str(tmp_path / str(workers)),
                                 cfg.sweep, cfg.rules)
            written[workers] = [Path(path).read_bytes() for path in paths]
        assert written[1] == written[2] == written[3]
