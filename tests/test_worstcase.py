import math

import numpy as np
import pytest

from kldro import worstcase
from kldro.marginals import PmfMatrix, Support, kl_divergence
from kldro.worstcase import minimize_dual, solve_dual
from oracles import dual_objective, primal_oracle


def marginal(points, probs):
    return PmfMatrix(Support(np.array(points, dtype=float)), np.array(probs, dtype=float))


def random_marginal(rng, d, floor=0.05):
    z = np.sort(rng.uniform(0.5, 8.0, d)) + np.arange(d) * 1e-2
    q = floor + rng.dirichlet(np.ones(d)) * (1 - floor * d)
    q = q / q.sum()
    return PmfMatrix(Support(z), q)


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
        assert kl_divergence(M5050.probs, sol.primal.probs) == pytest.approx(0.1, abs=1e-10)
        assert float(sol.primal.means) == pytest.approx(sol.value, abs=1e-10)

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
                assert m.means - 1e-12 <= v <= m.support.max + 1e-12

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
            assert kl_divergence(m.probs, probs) <= r + 1e-8
            assert float(sol.primal.means) == pytest.approx(sol.value, abs=1e-6)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            solve_dual(M5050, -0.1)
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            solve_dual(M5050, math.nan)

    def test_costs_near_1e9_scale_exactly_and_converge(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = random_marginal(rng, int(rng.integers(2, 9)))
            r = float(rng.uniform(0.01, 3.0))
            base = solve_dual(m, r)
            for shift in (0.0, 123.0):
                big = solve_dual(PmfMatrix(Support(1e9 * m.support.points + shift), m.probs), r)
                assert big.value == pytest.approx(1e9 * base.value + shift, rel=1e-12)
                assert big.iterations < 50

    @pytest.mark.parametrize("r", [300.0, 800.0, 1e3])
    def test_primal_stays_in_ball_at_large_radius(self, r):
        # at the larger radii the second pmf's bottom mass underflows unless
        # floored, and so do the third's masses on the boundary
        for m in (marginal([1, 2, 3, 4, 5], [0.2] * 5), marginal([1, 2, 3], [1e-25, 0.5, 0.5]),
                  marginal([1, 2, 3], [0.5, 0.5, 0.0])):
            sol = solve_dual(m, r)
            assert kl_divergence(m.probs, sol.primal.probs) <= r * (1 + 1e-9)
            assert float(sol.primal.means) == pytest.approx(sol.value, rel=1e-15)

    def test_tiny_newton_step_far_below_the_root_does_not_stop(self):
        # With the top unobserved and r a few % below K_inf = 0.0976, a
        # bisection lands near u = -350, where every share rounds to 1 and
        # the Newton step reads ~1e-121: stopping there returned f(top),
        # 1.8725316, with a pmf at KL 0.0976 outside the ball.
        m = marginal([1, 2, 3, 4], [4 / 6, 1 / 6, 1 / 6, 0.0])
        sol = solve_dual(m, 0.093)
        assert math.log(sol.beta - 4.0) > -10.0
        assert sol.value == pytest.approx(1.8724441819347275, rel=1e-12)
        assert kl_divergence(m.probs, sol.primal.probs) == pytest.approx(0.093, rel=1e-9)
        assert float(sol.primal.means) == pytest.approx(sol.value, rel=1e-12)
        for beta in sol.beta + np.array([-1e-3, 1e-3, 1.0]):
            assert sol.value <= dual_objective(beta, m, 0.093)

    def test_row_values_do_not_depend_on_memory_layout(self):
        # a dro1-sized batch (27 paths) passed C-ordered, Fortran-ordered,
        # as a column slice of a wider array and with broadcast values
        rng = np.random.default_rng(16)
        for _ in range(100):
            k = int(rng.integers(2, 12))
            z = np.sort(rng.uniform(1.0, 50.0, (27, k)), axis=1)
            q = rng.dirichlet(np.ones(k), size=27)
            r, top = np.full(27, float(rng.uniform(0.01, 2.0))), np.full(27, 50.0)
            wide = np.zeros((27, k + 3))
            wide[:, :k] = q
            c_order = worstcase.solve_dual_batch(z, q, r, top)
            for zs, qs in [(np.asfortranarray(z), np.asfortranarray(q)), (z, wide[:, :k])]:
                other = worstcase.solve_dual_batch(zs, qs, r, top)
                assert np.array_equal(c_order.value, other.value)
                assert np.array_equal(c_order.beta, other.beta)
            shared = np.broadcast_to(z[0], z.shape)
            assert np.array_equal(worstcase.solve_dual_batch(shared, q, r, top).value,
                                  worstcase.solve_dual_batch(shared.copy(), q, r, top).value)

    def test_rejects_weights_that_are_not_a_pmf(self):
        z, r, top = [[1.0, 2.0, 3.0]] * 2, [0.5, 0.5], [3.0, 3.0]
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            worstcase.solve_dual_batch(z, [[0.5, 0.5, 0.0], [0.7, 0.5, -0.2]], r, top)
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            worstcase.solve_dual_batch(z, [[0.5, 0.5, 0.0], [0.5, math.nan, 0.5]], r, top)
        # a row without weight is no pmf, though its dual would read top - e^{-r}
        with pytest.raises(ValueError, match="every row of weights needs a positive weight"):
            worstcase.solve_dual_batch(z, [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]], r, top)

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
