import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from kldro.datagen import (
    SIGMA_MAX,
    binomial_pmfs,
    draw_dataset,
    nominal_marginals,
    normal_pmfs,
    sample_sizes,
    substream,
)
from kldro.graphs import build_layered

G33 = build_layered(3, 3)  # 24 arcs
SRC = Path(__file__).resolve().parent.parent / "src"


def sample_bytes(data) -> bytes:
    return data.index.tobytes()


def loaded_on_import(*packages) -> list:
    """The modules of ``packages``, submodules included, that a fresh
    interpreter holds after importing the package and its command line."""
    code = ("import json, sys, kldro, kldro.experiments, kldro.cli; print(json.dumps(sorted("
            f"m for m in sys.modules if m.split('.')[0] in {packages!r})))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_scipy():
    # scipy.special is most of the package's import time; only normal_pmfs needs it
    assert loaded_on_import("scipy") == []


def test_importing_the_package_loads_no_process_pool():
    # only a sweep of several blocks on several workers imports the pool
    assert loaded_on_import("multiprocessing", "concurrent") == []


class TestNominalMarginals:
    def test_binomial_point_masses_at_parameter_extremes(self):
        p = np.zeros(G33.num_arcs)
        p[0] = 1.0
        marg = binomial_pmfs(p, 5)
        assert marg.probs[0, -1] == pytest.approx(1.0, abs=1e-15)
        assert marg.probs[1, 0] == pytest.approx(1.0, abs=1e-15)

    def test_binomial_mean_formula(self):
        rng = substream(100, 0)
        p = rng.uniform(0.0, 1.0, G33.num_arcs)
        marg = binomial_pmfs(p, 11)
        for mean, p_a in zip(marg.means, p):
            assert mean == pytest.approx((11 - 1) * p_a + 1, rel=1e-10)

    def test_binomial_pmf_matches_scipy(self):
        marg = binomial_pmfs(np.full(G33.num_arcs, 0.3), 6)
        expected = stats.binom.pmf(np.arange(6), 5, 0.3)
        assert marg.probs[0] == pytest.approx(expected, rel=1e-12)

    def test_normal_symmetry(self):
        marg = normal_pmfs(np.full(G33.num_arcs, 2.0), 0.9, 3)
        assert marg.probs[0, 0] == pytest.approx(marg.probs[0, 2], abs=1e-12)

    def test_normal_cells_match_cdf_differences(self):
        q = normal_pmfs(np.full(G33.num_arcs, 3.7), 1.8, 8).probs[0]
        edges = np.arange(0.5, 9.0)
        cells = np.diff(stats.norm.cdf(edges, loc=3.7, scale=1.8))
        assert q == pytest.approx(cells / cells.sum(), abs=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="p must lie in"):
            binomial_pmfs([1.2], 5)
        with pytest.raises(ValueError, match="p must lie in"):
            binomial_pmfs([np.nan], 5)
        with pytest.raises(ValueError, match="d must be >= 1"):
            binomial_pmfs([0.5], 0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            normal_pmfs([2.0], 0.0, 5)
        # past SIGMA_MAX the cells cancel: 2.6% off at 1e14, empty from 1e16
        for sigma in (SIGMA_MAX * (1 + 2**-52), 1e14, [1.0, 1e20]):
            with pytest.raises(ValueError, match=r"sigma must be positive and at most 1e\+06"):
                normal_pmfs([2.0], sigma, 5)
        assert normal_pmfs([2.0], SIGMA_MAX, 5).probs.min() > 0.0
        with pytest.raises(ValueError, match="mu must lie in"):
            normal_pmfs([6.0], 1.0, 5)
        with pytest.raises(ValueError, match="unknown nominal kind"):
            nominal_marginals("bogus", 3, 5, substream(2, 0))
        with pytest.raises(ValueError, match="requires sigma"):
            nominal_marginals("discretized-normal", 3, 5, substream(2, 0))

    def test_random_spec_defaults(self):
        # The parameters are drawn p_a ~ U(0, 1), normalized for the
        # multinomial, then mu_a ~ U(1, d), in that order from one stream.
        rng, ref = substream(3, 0), substream(3, 0)
        marg = nominal_marginals("multinomial", 10, 50, rng)
        p = ref.uniform(0.0, 1.0, 10)
        assert np.array_equal(marg.probs, binomial_pmfs(p / p.sum(), 50).probs)
        assert float(((marg.means - 1.0) / 49.0).sum()) == pytest.approx(1.0, rel=1e-12)
        marg_n = nominal_marginals("discretized-normal", 10, 50, rng, sigma=12.5)
        mu = ref.uniform(1.0, 50.0, 10)
        assert np.all((1.0 <= mu) & (mu <= 50.0))
        assert np.array_equal(marg_n.probs, normal_pmfs(mu, 12.5, 50).probs)


class TestSampleSizes:
    def test_zero_spread_pins_everything_to_t_min(self):
        marg = binomial_pmfs(np.linspace(0.1, 0.9, G33.num_arcs), 6)
        for kind in ("uniform", "binomial1", "binomial2"):
            sizes = sample_sizes(kind, 7, 0, marg, substream(4, 0))
            assert np.all(sizes == 7)

    def test_tilted_extremes_are_deterministic(self):
        p = np.linspace(0.1, 0.9, G33.num_arcs)
        marg = binomial_pmfs(p, 6)
        lo_action = int(np.argmin(p))
        hi_action = int(np.argmax(p))
        s1 = sample_sizes("binomial1", 5, 12, marg, substream(5, 0))
        assert s1[lo_action] == 5
        assert s1[hi_action] == 17
        s2 = sample_sizes("binomial2", 5, 12, marg, substream(5, 1))
        assert s2[lo_action] == 17
        assert s2[hi_action] == 5

    def test_range_invariant(self):
        marg = binomial_pmfs(np.linspace(0.05, 0.95, G33.num_arcs), 6)
        for kind in ("uniform", "binomial1", "binomial2"):
            for seed in range(5):
                sizes = sample_sizes(kind, 4, 9, marg, substream(6, seed))
                assert np.all((4 <= sizes) & (sizes <= 13))

    def test_equal_means_give_every_action_share_one_half(self):
        # nothing to normalize over, so neither tilt favors an action
        marg = binomial_pmfs(np.full(G33.num_arcs, 0.4), 6)
        expected = 5 + substream(7, 0).binomial(3, np.full(G33.num_arcs, 0.5))
        for kind in ("binomial1", "binomial2"):
            assert np.array_equal(sample_sizes(kind, 5, 3, marg, substream(7, 0)), expected)

    def test_spec_validation(self):
        marg = binomial_pmfs(np.linspace(0.1, 0.9, G33.num_arcs), 6)
        with pytest.raises(ValueError, match="unknown sample-size kind"):
            sample_sizes("bogus", 5, 3, marg, substream(7, 1))
        with pytest.raises(ValueError, match="t_min must be >= 1"):
            sample_sizes("uniform", 0, 3, marg, substream(7, 1))
        with pytest.raises(ValueError, match="delta must be >= 0"):
            sample_sizes("uniform", 5, -1, marg, substream(7, 1))


class TestDrawDataset:
    def test_point_mass_marginal(self):
        marg = binomial_pmfs(np.zeros(G33.num_arcs), 4)
        data = draw_dataset(marg, np.full(G33.num_arcs, 3), substream(8, 0))
        assert np.array_equal(data.index, np.zeros(3 * G33.num_arcs))

    def test_costs_stay_on_support(self):
        marg = binomial_pmfs(np.linspace(0.2, 0.8, G33.num_arcs), 7)
        data = draw_dataset(marg, np.full(G33.num_arcs, 40), substream(9, 0))
        assert np.array_equal(data.support.points, np.arange(1.0, 8.0))
        assert data.index.min() >= 0 and data.index.max() < 7

    def test_empirical_means_converge(self):
        marg = binomial_pmfs(np.linspace(0.2, 0.8, G33.num_arcs), 7)
        data = draw_dataset(marg, np.full(G33.num_arcs, 10_000), substream(10, 0))
        costs = data.support.points[data.index.reshape(G33.num_arcs, -1)]
        for a in (0, 11, 23):
            mean = marg.means[a]
            sd = np.sqrt(np.dot(marg.support.points**2, marg.probs[a]) - mean**2)
            assert abs(float(np.mean(costs[a])) - mean) <= 3 * sd / 100.0

    def test_joint_draws_satisfy_support_sum_constraint(self):
        marg = nominal_marginals("multinomial", G33.num_arcs, 9, substream(11, 0))
        sizes = np.full(G33.num_arcs, 6)
        data = draw_dataset(marg, sizes, substream(11, 1), joint=True)
        costs = data.support.points[data.index.reshape(G33.num_arcs, -1)]
        assert np.all(costs.sum(axis=0) == 9 - 1 + G33.num_arcs)

    def test_joint_draws_reject_non_multinomial_marginals(self):
        # Multinomial p is normalized when drawn, so the joint draw is what
        # rejects marginals whose shifted means do not sum like one.
        marg = binomial_pmfs(np.linspace(0.1, 0.9, G33.num_arcs), 6)
        with pytest.raises(ValueError, match="joint sampling requires multinomial"):
            draw_dataset(marg, np.full(G33.num_arcs, 3), substream(11, 2), joint=True)

    def test_joint_prefix_lengths(self):
        marg = nominal_marginals("multinomial", G33.num_arcs, 5, substream(12, 0))
        sizes = np.arange(1, G33.num_arcs + 1)
        data = draw_dataset(marg, sizes, substream(12, 1), joint=True)
        assert data.sizes.tolist() == sizes.tolist()
        # Action a's indices are its counts in the first T_a joint draws.
        owner = np.repeat(np.arange(G33.num_arcs), sizes)
        draw = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        p = np.clip((marg.means - 1.0) / 4.0, 0.0, 1.0)
        counts = substream(12, 1).multinomial(4, p / p.sum(), size=int(sizes.max()))
        assert np.array_equal(data.index, counts[draw, owner])

    def test_seed_determinism_byte_for_byte(self):
        marg = binomial_pmfs(np.linspace(0.1, 0.9, G33.num_arcs), 6)
        sizes = sample_sizes("uniform", 3, 5, marg, substream(13, 0))
        d1 = draw_dataset(marg, sizes, substream(13, 1))
        d2 = draw_dataset(marg, sizes, substream(13, 1))
        assert d1.sizes.tolist() == d2.sizes.tolist()
        assert sample_bytes(d1) == sample_bytes(d2)

    def test_substreams_differ(self):
        marg = binomial_pmfs(np.linspace(0.1, 0.9, G33.num_arcs), 6)
        d1 = draw_dataset(marg, np.full(G33.num_arcs, 5), substream(13, 1))
        d2 = draw_dataset(marg, np.full(G33.num_arcs, 5), substream(13, 2))
        assert sample_bytes(d1) != sample_bytes(d2)

