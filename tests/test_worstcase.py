import math

import numpy as np
import pytest

from kldro import worstcase
from kldro.marginals import Marginal, Support, kl_divergence
from kldro.worstcase import dual_objective, minimize_dual, primal_oracle, solve_dual


def marginal(points, probs):
    return Marginal(Support(np.array(points, dtype=float)), np.array(probs, dtype=float))


def random_marginal(rng, d, floor=0.05):
    z = np.sort(rng.uniform(0.5, 8.0, d)) + np.arange(d) * 1e-2
    q = floor + rng.dirichlet(np.ones(d)) * (1 - floor * d)
    q = q / q.sum()
    return Marginal(Support(z), q)


M5050 = marginal([1, 2], [0.5, 0.5])
M10 = marginal([1, 2], [1.0, 0.0])

# Worked value for support {1,2}, q=(1/2,1/2), r=0.1, from the active-KL
# primal: q1 = (1 - sqrt(1 - e^{-0.2}))/2, value = 2 - q1 (50-digit eval).
VALUE_R01 = 1.7128786314558240
BETA_R01 = 2.6743780871302686


class TestDualObjective:
    def test_large_beta_limit_recovers_mean_at_zero_radius(self):
        for beta in (1e4, 1e6, 1e8):
            assert dual_objective(beta, M5050, 0.0) == pytest.approx(1.5, abs=1e-3 * 1.5e4 / beta)

    def test_boundary_value_with_observed_top(self):
        assert dual_objective(2.0, M5050, 0.0) == 2.0

    def test_hand_evaluated_point(self):
        got = dual_objective(3.0, M10, math.log(2))
        assert got == pytest.approx(2.0, rel=1e-15)

    def test_rejects_beta_below_top(self):
        with pytest.raises(ValueError):
            dual_objective(1.5, M5050, 0.1)


class TestSolveDual:
    def test_zero_radius_degenerates_to_empirical_mean(self):
        sol = solve_dual(M5050, 0.0)
        assert sol.value == 1.5
        assert sol.beta == math.inf
        assert np.array_equal(sol.primal.probs, M5050.probs)

    def test_worked_example(self):
        sol = solve_dual(M5050, 0.1)
        assert sol.value == pytest.approx(VALUE_R01, abs=1e-10)
        assert sol.beta == pytest.approx(BETA_R01, abs=1e-7)
        assert kl_divergence(M5050, sol.primal) == pytest.approx(0.1, abs=1e-10)
        assert sol.primal.mean() == pytest.approx(sol.value, abs=1e-10)

    def test_mass_constraint_with_unobserved_top(self):
        # KL forces q1 >= 1/2, worst value is 2 - 1/2
        sol = solve_dual(M10, math.log(2))
        assert sol.value == pytest.approx(1.5, rel=1e-12)
        assert sol.primal.probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_monotone_in_radius_and_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = random_marginal(rng, int(rng.integers(2, 5)))
            radii = np.sort(rng.uniform(0.0, 3.0, 5))
            values = [solve_dual(m, float(r)).value for r in radii]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12
            for v in values:
                assert m.mean() - 1e-12 <= v <= m.support.max + 1e-12

    def test_saturates_at_top_for_large_radius(self):
        m = marginal([1, 2, 3], [0.0, 0.0, 1.0])
        assert solve_dual(m, 5.0).value == pytest.approx(3.0, rel=1e-12)

    def test_kkt_primal_feasible_and_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = random_marginal(rng, int(rng.integers(2, 5)))
            r = float(rng.uniform(0.01, 2.0))
            sol = solve_dual(m, r)
            probs = sol.primal.probs
            assert np.all(probs >= 0.0)
            assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
            assert kl_divergence(m, sol.primal) <= r + 1e-8
            assert sol.primal.mean() == pytest.approx(sol.value, abs=1e-6)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            solve_dual(M5050, -0.1)

    def test_costs_near_1e9_scale_exactly_and_converge(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = random_marginal(rng, int(rng.integers(2, 9)))
            r = float(rng.uniform(0.01, 3.0))
            base = solve_dual(m, r)
            for shift in (0.0, 123.0):
                big = solve_dual(Marginal(Support(1e9 * m.support.points + shift), m.probs), r)
                assert big.value == pytest.approx(1e9 * base.value + shift, rel=1e-12)
                assert big.iterations < 50

    @pytest.mark.parametrize("r", [300.0, 800.0, 1e3])
    def test_primal_stays_in_ball_at_large_radius(self, r):
        # at the larger radii the second pmf's bottom mass underflows unless floored
        for m in (marginal([1, 2, 3, 4, 5], [0.2] * 5), marginal([1, 2, 3], [1e-25, 0.5, 0.5])):
            sol = solve_dual(m, r)
            assert kl_divergence(m, sol.primal) <= r * (1 + 1e-9)
            assert sol.primal.mean() == pytest.approx(sol.value, rel=1e-15)

    def test_non_convergence_raises_with_row_context(self, monkeypatch):
        monkeypatch.setattr(worstcase, "_MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match=r"row 0, r=0\.1, top=2\.0"):
            solve_dual(M5050, 0.1)


class TestMinimizeDual:
    def test_beta_lower_above_support_moves_the_boundary(self):
        values = np.array([1.0, 2.0])
        weights = np.array([0.5, 0.5])
        free_beta, free_value, _ = minimize_dual(values, weights, 0.1)
        _, floored_value, _ = minimize_dual(values, weights, 0.1, beta_lower=4.0)
        assert floored_value >= free_value
        assert free_beta < 4.0

    def test_dual_objective_convex_on_domain(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = random_marginal(rng, int(rng.integers(2, 5)))
            r = float(rng.uniform(0.01, 2.0))
            top = m.support.max
            a, b = sorted(rng.uniform(top + 1e-6, top + 20.0, 2))
            mid = 0.5 * (a + b)
            fa = dual_objective(a, m, r)
            fb = dual_objective(b, m, r)
            fmid = dual_objective(mid, m, r)
            assert fmid <= 0.5 * (fa + fb) + 1e-9


class TestPrimalOracle:
    def test_zero_radius(self):
        assert primal_oracle(M5050, 0.0) == 1.5

    def test_matches_dual_on_worked_example(self):
        got = primal_oracle(M5050, 0.1, grid=1e-3)
        assert got == pytest.approx(VALUE_R01, abs=2e-3)
        assert got <= VALUE_R01 + 1e-9

    def test_top_vertex_feasible_when_empirical_is_point_mass(self):
        m = marginal([1, 2, 3], [0.0, 0.0, 1.0])
        for r in (0.0, 0.5, 10.0):
            assert primal_oracle(m, r, grid=1e-2) == pytest.approx(3.0, rel=1e-12)

    def test_rejects_large_support(self):
        m = marginal([1, 2, 3, 4, 5], [0.2] * 5)
        with pytest.raises(ValueError):
            primal_oracle(m, 0.1)

    def test_refinement_agrees_with_exhaustive_grid_d2(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_marginal(rng, 2)
            r = float(rng.uniform(0.01, 1.5))
            # exhaustive reference at the same resolution
            q1 = np.linspace(0.0, 1.0, 1001)
            rows = np.stack([q1, 1.0 - q1], axis=1)
            mask = m.probs > 0
            with np.errstate(divide="ignore"):
                logs = np.log(rows[:, mask])
            kl = np.sum(m.probs[mask] * (np.log(m.probs[mask]) - logs), axis=1)
            kl[np.any(rows[:, mask] == 0.0, axis=1)] = np.inf
            feasible = kl <= r
            reference = float(np.max(rows[feasible] @ m.support.points))
            got = primal_oracle(m, r, grid=1e-3)
            assert got == pytest.approx(reference, abs=2e-3 * m.support.max)

    def test_strong_duality_small_batch(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            m = random_marginal(rng, d)
            r = float(rng.uniform(0.01, 2.0))
            dual = solve_dual(m, r).value
            oracle = primal_oracle(m, r, grid=1e-3)
            assert abs(dual - oracle) <= 5e-3 * m.support.max
            assert oracle <= dual + 1e-9
