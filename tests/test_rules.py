import functools
import math

import numpy as np
import pytest

from kldro import rules
from kldro.datagen import draw_dataset, nominal_marginals, sample_sizes, substream
from kldro.graphs import build_layered, enumerate_paths, path_nodes, route_costs, shortest_path
from kldro.marginals import DataSet, Support
from kldro.radius import radius_best
from kldro.rules import (
    JointEmpirical,
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
from oracles import dataset_from_costs, path_cost

VALUE_R01 = 1.7128786314558240  # worked worst case: {1,2}, q=(1/2,1/2), r=0.1


def integer_dataset(samples, d):
    return dataset_from_costs(Support.integers(d), samples)


def random_dataset(g, d, seed, t_lo=4, t_hi=12):
    rng = substream(seed, 0)
    marg = nominal_marginals("shifted-binomial", g.num_arcs, d, rng)
    sizes = rng.integers(t_lo, t_hi + 1, size=g.num_arcs)
    return draw_dataset(marg, sizes, rng), marg


class TestSplitAlpha:
    def test_symmetric(self):
        assert split_alpha(0.05, [1, 1]).tolist() == [0.025, 0.025]

    def test_inverse_ratio(self):
        got = split_alpha(0.05, [1, 3])
        assert got[0] == pytest.approx(0.0375, rel=1e-14)
        assert got[1] == pytest.approx(0.0125, rel=1e-14)

    def test_single_action(self):
        assert split_alpha(0.07, [9]).tolist() == [0.07]

    def test_sums_exactly(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            m = int(rng.integers(1, 40))
            sizes = rng.integers(1, 300, size=m)
            alpha = float(rng.uniform(0.001, 0.9))
            got = split_alpha(alpha, sizes)
            assert math.fsum(got) == alpha
            assert np.all(got > 0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            split_alpha(1.0, [1, 2])


class TestDroRules:
    def test_zero_radius_predict_is_sample_average(self):
        g = build_layered(1, 2)
        data = integer_dataset([[1, 2], [2, 2], [1, 1], [1, 3]], d=3)
        radii = np.zeros(4)
        for x in enumerate_paths(g):
            expected = path_cost(g, x, [float(data.empirical(a).means) for a in range(4)])
            assert dro_predict(g, x, data, radii) == expected

    def test_saturated_radius_predicts_top_cost_per_arc(self):
        g = build_layered(2, 2)
        d = 4
        data = integer_dataset([[1, 2]] * g.num_arcs, d)
        radii = np.full(g.num_arcs, 50.0)
        x = enumerate_paths(g)[0]
        assert dro_predict(g, x, data, radii) == pytest.approx((g.h + 1) * d, rel=1e-9)

    def test_two_arc_worked_values(self):
        g = build_layered(1, 1)
        data = integer_dataset([[1, 1], [1, 2]], d=2)
        radii = np.array([math.log(2), 0.1])
        x = enumerate_paths(g)[0]
        assert dro_predict(g, x, data, radii) == pytest.approx(1.5 + VALUE_R01, abs=1e-9)

    def test_zero_radius_prescribe_equals_saa(self):
        g = build_layered(2, 3)
        data, _ = random_dataset(g, 6, seed=31)
        robust = dro_prescribe(data, np.zeros(g.num_arcs), g)
        means = [float(data.empirical(a).means) for a in range(g.num_arcs)]
        saa_path, saa_value = shortest_path(g, means)
        assert robust.path == saa_path
        assert robust.predicted_loss == saa_value

    def test_prescribe_matches_enumeration(self):
        for h, w, seed in [(2, 2, 32), (3, 2, 33), (2, 3, 34), (4, 2, 35)]:
            g = build_layered(h, w)
            data, _ = random_dataset(g, 5, seed=seed)
            radii = calibrate_ambiguity(data, 0.05)
            pres = dro_prescribe(data, radii, g)
            values = [dro_predict(g, x, data, radii) for x in enumerate_paths(g)]
            best = int(np.argmin(values))
            assert pres.path == tuple(enumerate_paths(g)[best].tolist())
            assert pres.predicted_loss == values[best]

    def test_worst_case_costs_dominate_means_and_stay_below_top(self):
        g = build_layered(3, 3)
        data, _ = random_dataset(g, 8, seed=36)
        pres = dro_prescribe(data, calibrate_ambiguity(data, 0.05), g)
        for a in range(g.num_arcs):
            assert pres.arc_costs[a] >= float(data.empirical(a).means) - 1e-12
            assert pres.arc_costs[a] <= 8.0 + 1e-12

    def test_spec_size_mismatch_rejected(self):
        g = build_layered(1, 2)
        data = integer_dataset([[1], [2], [1], [2]], d=2)
        with pytest.raises(ValueError, match="one radius per action is required"):
            dro_prescribe(data, np.array([0.1]), g)


class TestHoeffding:
    def test_epsilon_inversion(self):
        # two arcs, T=(2,2), alpha = 2/e so each arc gets alpha_a = 1/e and
        # eps = (d-1) sqrt(ln(e)/4) = 0.5 on the d=2 grid
        g = build_layered(1, 1)
        data = integer_dataset([[1, 1], [1, 2]], d=2)
        pres = hoeffding_prescribe(data, hoeffding_slack(data, 2 / math.e), g)
        assert pres.arc_costs[0] == pytest.approx(1.0 + 0.5, rel=1e-12)
        assert pres.arc_costs[1] == pytest.approx(1.5 + 0.5, rel=1e-12)

    def test_clipping_at_top_cost(self):
        g = build_layered(1, 1)
        data = integer_dataset([[2, 2], [2, 2]], d=2)
        pres = hoeffding_prescribe(data, hoeffding_slack(data, 0.05), g)
        assert np.all(pres.arc_costs == 2.0)

    def test_costs_follow_the_tail_inversion_formula(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 5, seed=37)
        means = np.array([float(data.empirical(a).means) for a in range(g.num_arcs)])
        sizes = data.sizes
        alphas = split_alpha(0.4, sizes)
        eps = (5 - 1) * np.sqrt(np.log(1.0 / alphas) / (2.0 * sizes))
        pres = hoeffding_prescribe(data, hoeffding_slack(data, 0.4), g)
        assert pres.arc_costs == pytest.approx(np.minimum(means + eps, 5.0), rel=1e-12)
        # slack vanishes as the per-action confidence approaches one
        assert (5 - 1) * math.sqrt(math.log(1.0 / (1 - 1e-12)) / 2.0) < 1e-5

    def test_manual_epsilon_override(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 5, seed=38)
        means = np.array([float(data.empirical(a).means) for a in range(g.num_arcs)])
        pres = hoeffding_prescribe(data, 0.0, g)
        assert np.array_equal(pres.arc_costs, np.minimum(means, 5.0))
        pres1 = hoeffding_prescribe(data, 1.0, g)
        assert np.array_equal(pres1.arc_costs, np.minimum(means + 1.0, 5.0))

    def test_slack_scales_with_the_support_range(self):
        # Hoeffding's range form on {1, 3}: eps_a = (3 - 1) sqrt(ln(1/alpha_a) / (2 T_a))
        data = dataset_from_costs(Support(np.array([1.0, 3.0])), ([1.0] * 7 + [3.0], [3.0] * 4))
        sizes = np.array([8, 4])
        eps = hoeffding_slack(data, 0.05)
        expected = 2.0 * np.sqrt(np.log(1.0 / split_alpha(0.05, sizes)) / (2.0 * sizes))
        assert eps.tolist() == expected.tolist()
        pres = hoeffding_prescribe(data, eps, build_layered(1, 1))
        assert pres.arc_costs.tolist() == [1.25 + eps[0], 3.0]


class TestTruncate:
    def test_identity_when_equal(self):
        data = integer_dataset([[1, 2], [2, 1]], d=2)
        assert truncate_dataset(data) is data

    def test_prefix_and_t_min(self):
        data = integer_dataset([[1, 2, 1], [2, 1, 1, 2, 2]], d=2)
        got, again = truncate_dataset(data), truncate_dataset(data)
        assert got is not data and not data.cache  # the cache holds only alpha splits
        assert np.array_equal(again.index, got.index) and np.array_equal(again.sizes, got.sizes)
        assert got.sizes.tolist() == [3, 3]
        assert got.index.tolist() == [0, 1, 0, 1, 0, 0]
        assert got.t_min == data.t_min


class TestJointEmpirical:
    def test_atoms_deduplicated(self):
        data = integer_dataset([[1, 1, 2, 1], [2, 2, 1, 2]], d=2)
        joint = JointEmpirical.from_dataset(data)
        assert joint.atoms.shape == (2, 2)
        assert sorted(joint.probs.tolist()) == [0.25, 0.75]
        assert math.fsum(joint.probs) == 1.0

    def test_alignment_by_sample_index(self):
        data = integer_dataset([[1, 2, 2], [1, 2, 1]], d=2)
        joint = JointEmpirical.from_dataset(data)
        rows = {tuple(r) for r in joint.atoms}
        assert rows == {(1.0, 1.0), (2.0, 2.0), (2.0, 1.0)}


def path_atom_sums(g, x, atoms):
    """The cost of path ``x`` at each joint atom, by one gather, checked
    against the atom columns of its arcs looked up in ``g.arcs``."""
    sums = route_costs(g, x, atoms.T)
    nodes = path_nodes(g, x).tolist()
    lookup = [atoms[:, g.arcs.index(arc)] for arc in zip(nodes, nodes[1:])]
    assert np.array_equal(sums, functools.reduce(np.add, lookup))
    return sums


def dro1_grid_oracle(data, r, d, g, step=1e-4):
    """Independent re-implementation: dense beta grid on the raw product."""
    joint = JointEmpirical.from_dataset(truncate_dataset(data))
    best_value, best_path = math.inf, None
    for x in enumerate_paths(g):
        s = path_atom_sums(g, x, joint.atoms)
        lo = d * g.path_length
        span = 2.0 * lo
        while True:
            betas = np.arange(lo, lo + span, step)
            obj = betas - math.exp(-r) * np.prod(
                np.maximum(betas[:, None] - s[None, :], 0.0) ** joint.probs[None, :], axis=1
            )
            k = int(np.argmin(obj))
            if k < len(betas) - 1:
                break
            span *= 2
        if obj[k] < best_value:
            best_value, best_path = float(obj[k]), tuple(x.tolist())
    return best_value, best_path


class TestDro1:
    def test_zero_radius_matches_joint_sample_average(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 4, seed=39, t_lo=6, t_hi=6)
        pres = dro1_prescribe(data, 0.0, g)
        joint = JointEmpirical.from_dataset(data)
        values = [float(np.dot(joint.probs, path_atom_sums(g, x, joint.atoms)))
                  for x in enumerate_paths(g)]
        assert pres.predicted_loss == pytest.approx(min(values), rel=1e-12)

    def test_zero_radius_is_dro2_at_zero_without_enumerating(self, monkeypatch):
        g = build_layered(3, 3)
        data, _ = random_dataset(g, 4, seed=46, t_lo=3, t_hi=9)
        expected = dro_prescribe(truncate_dataset(data), np.zeros(g.num_arcs), g)

        def refuse(*args):
            raise AssertionError("paths were enumerated")

        monkeypatch.setattr(rules, "enumerate_paths", refuse)
        pres = dro1_prescribe(data, 0.0, g)
        assert pres.path == expected.path
        assert pres.predicted_loss == expected.predicted_loss

    def test_single_path_graph(self):
        g = build_layered(2, 1)
        data = integer_dataset([[1, 2], [2, 1], [1, 1]], d=2)
        pres = dro1_prescribe(data, joint_radius(data, 0.05), g)
        assert pres.path == (0, 0)
        assert pres.predicted_loss >= path_cost(g, pres.path, [1.5, 1.5, 1.0]) - 1e-9

    def test_matches_dense_beta_grid_oracle(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 4, seed=40, t_lo=5, t_hi=9)
        rng = np.random.default_rng(41)
        for r in (0.05, 0.3, 1.0):
            pres = dro1_prescribe(data, r, g)
            oracle_value, oracle_path = dro1_grid_oracle(data, r, 4, g)
            assert pres.predicted_loss == pytest.approx(oracle_value, abs=2e-4)
            assert pres.path == oracle_path

    def test_beta_bound_is_the_top_support_point(self):
        # Three support points, the top one 7: beta >= 7 per arc on the path.
        g = build_layered(1, 2)
        points = np.array([2.0, 3.0, 7.0])
        rng = np.random.default_rng(45)
        index = np.concatenate([rng.integers(0, 3, size=6) for _ in range(g.num_arcs)])
        data = DataSet(Support(points), index, np.full(g.num_arcs, 6))
        pres = dro1_prescribe(data, 0.3, g)
        oracle_value, oracle_path = dro1_grid_oracle(data, 0.3, 7.0, g)
        assert pres.predicted_loss == pytest.approx(oracle_value, abs=2e-4)
        assert pres.path == oracle_path

    def test_block_routes_are_rows_of_the_one_enumeration(self):
        g = build_layered(3, 3)
        rngs = [substream(48, k) for k in range(6)]
        marg = nominal_marginals("shifted-binomial", g.num_arcs, 4, rngs)
        sizes = sample_sizes("uniform", np.full(6, 3), np.full(6, 6), marg, rngs)
        block = draw_dataset(marg, sizes, rngs)
        routes = rules.joint_worst_case_paths(g, truncate_dataset(block), joint_radius(block, 0.05))
        paths = enumerate_paths(g)
        assert routes.choices.shape == (6, g.h)
        assert ((routes.choices[:, None, :] == paths).all(axis=-1).sum(axis=1) == 1).all()

    def test_exact_ties_go_to_the_path_shortest_path_picks(self):
        # Arcs with equal data columns give paths equal cost vectors at
        # every atom, so their dual values tie exactly.  Row 0: every arc
        # has the same columns, so all w**h paths tie.  Row 1: the arcs from
        # layer-1 node a to layer-2 node a cost more, so only the paths that
        # switch nodes tie; read from the sink, (1, 0) comes first, where
        # the first in path order is (0, 1).
        g = build_layered(2, 2)
        cheap, dear = [1, 2, 2, 1, 3], [3, 3, 2, 3, 3]
        columns = [[cheap] * g.num_arcs,
                   [dear if arc in ((1, 3), (2, 4)) else cheap for arc in g.arcs]]
        block = DataSet.stacked(Support.integers(3), np.concatenate(
            [integer_dataset(row, d=3).index for row in columns]), np.full((2, g.num_arcs), 5))
        routes = rules.joint_worst_case_paths(g, block, np.array([0.2, 0.2]))
        for k, row in enumerate(columns):
            data = integer_dataset(row, d=3)
            tie_rule, _ = shortest_path(g, data.means)  # equal costs on the tied paths
            assert path_nodes(g, tie_rule).tolist() == ([0, 1, 3, 5], [0, 2, 3, 5])[k]
            pres = dro1_prescribe(data, 0.2, g)
            assert pres.path == tie_rule
            assert routes[k][0] == tie_rule
            assert routes.values[k] == pres.predicted_loss

    def test_joint_radius_is_one_ball_at_t_min_with_the_whole_budget(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 4, seed=42)
        expected, _ = radius_best(data.t_min, 4**g.num_arcs, 1, 0.05, 0.05)
        assert joint_radius(data, 0.05) == expected
        assert joint_radius(truncate_dataset(data), 0.05) == expected

    def test_calibrated_radius_runs(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 4, seed=42)
        pres = dro1_prescribe(data, joint_radius(data, 0.05), g)
        assert pres.arc_costs is None
        assert pres.predicted_loss <= 4 * (g.h + 1) + 1e-9

    def test_enumeration_cap_propagates(self):
        g = build_layered(10, 4)
        data = DataSet(Support.integers(2), np.zeros(g.num_arcs, dtype=int),
                       np.ones(g.num_arcs, dtype=int))
        with pytest.raises(ValueError, match="cap"):
            dro1_prescribe(data, 0.3, g)

    def test_path_objective_convex_in_beta(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 4, seed=43)
        joint = JointEmpirical.from_dataset(truncate_dataset(data))
        s = path_atom_sums(g, enumerate_paths(g)[1], joint.atoms)
        lo = 4.0 * (g.h + 1)
        rng = np.random.default_rng(44)
        for _ in range(100):
            a, b = np.sort(rng.uniform(lo, lo + 30, 2))
            mid = 0.5 * (a + b)

            def f(beta):
                return beta - math.exp(-0.3) * float(np.prod((beta - s) ** joint.probs))

            assert f(mid) <= 0.5 * (f(a) + f(b)) + 1e-9


class TestDro2:
    def test_equal_sizes_identical_to_baseline(self):
        g = build_layered(2, 2)
        data, _ = random_dataset(g, 5, seed=45, t_lo=7, t_hi=7)
        base = dro_prescribe(data, calibrate_ambiguity(data, 0.05), g)
        truncated = truncate_dataset(data)
        assert truncated is data
        trunc = dro_prescribe(truncated, calibrate_ambiguity(truncated, 0.05), g)
        assert base.path == trunc.path
        assert base.predicted_loss == trunc.predicted_loss

    def test_duplicated_prefix_costs_dominate(self):
        # duplicated samples keep the empirical pmf fixed while halving T,
        # so every truncated worst-case cost must dominate the baseline one
        g = build_layered(1, 1)
        data = integer_dataset([[1, 2, 1, 2], [1, 2]], d=2)
        base = dro_prescribe(data, calibrate_ambiguity(data, 0.05), g)
        truncated = truncate_dataset(data)
        trunc = dro_prescribe(truncated, calibrate_ambiguity(truncated, 0.05), g)
        assert np.all(trunc.arc_costs >= base.arc_costs - 1e-12)
        assert trunc.arc_costs[0] > base.arc_costs[0]

    def test_extreme_tail_changes_decision(self):
        # second branch looks cheap on the prefix but expensive later; the
        # truncated rule ignores the tail and flips the decision
        g = build_layered(1, 2)
        samples = [
            [2, 2, 2],            # source -> node1
            [1, 1, 1, 5, 5],      # source -> node2
            [2, 2, 2],            # node1 -> sink
            [1, 1, 1, 5, 5],      # node2 -> sink
        ]
        data = integer_dataset(samples, d=5)
        zero = np.zeros(4)
        base = dro_prescribe(data, zero, g)
        trunc = dro_prescribe(truncate_dataset(data), zero, g)
        assert base.path != trunc.path
        assert path_nodes(g, trunc.path).tolist() == [0, 2, 3]
        assert path_nodes(g, base.path).tolist() == [0, 1, 3]
