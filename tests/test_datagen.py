import numpy as np
import pytest
from scipy import stats

from kldro.datagen import (
    NominalSpec,
    SampleSizeSpec,
    draw_dataset,
    nominal_marginals,
    random_nominal_spec,
    sample_sizes,
    substream,
)
from kldro.graphs import build_layered

G33 = build_layered(3, 3)  # 24 arcs


def sample_bytes(data) -> bytes:
    return b"".join(obs.tobytes() for obs in data.samples)


def binomial_spec(p, d=6):
    return NominalSpec("shifted-binomial", d, p=np.asarray(p, dtype=float))


class TestNominalMarginals:
    def test_binomial_point_masses_at_parameter_extremes(self):
        p = np.zeros(G33.num_arcs)
        p[0] = 1.0
        marg = nominal_marginals(binomial_spec(p, d=5), G33)
        assert marg[0].probs[-1] == pytest.approx(1.0, abs=1e-15)
        assert marg[1].probs[0] == pytest.approx(1.0, abs=1e-15)

    def test_binomial_mean_formula(self):
        rng = substream(100, 0)
        p = rng.uniform(0.0, 1.0, G33.num_arcs)
        marg = nominal_marginals(binomial_spec(p, d=11), G33)
        for q, p_a in zip(marg, p):
            assert q.mean() == pytest.approx((11 - 1) * p_a + 1, rel=1e-10)

    def test_binomial_pmf_matches_scipy(self):
        marg = nominal_marginals(binomial_spec(np.full(G33.num_arcs, 0.3), d=6), G33)
        expected = stats.binom.pmf(np.arange(6), 5, 0.3)
        assert marg[0].probs == pytest.approx(expected, rel=1e-12)

    def test_normal_symmetry(self):
        spec = NominalSpec(
            "discretized-normal", 3,
            mu=np.full(G33.num_arcs, 2.0), sigma=np.full(G33.num_arcs, 0.9),
        )
        marg = nominal_marginals(spec, G33)
        assert marg[0].probs[0] == pytest.approx(marg[0].probs[2], abs=1e-12)

    def test_normal_cells_match_cdf_differences(self):
        spec = NominalSpec(
            "discretized-normal", 8,
            mu=np.full(G33.num_arcs, 3.7), sigma=np.full(G33.num_arcs, 1.8),
        )
        q = nominal_marginals(spec, G33)[0]
        edges = np.arange(0.5, 9.0)
        cells = np.diff(stats.norm.cdf(edges, loc=3.7, scale=1.8))
        assert q.probs == pytest.approx(cells / cells.sum(), abs=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NominalSpec("shifted-binomial", 5, p=np.array([1.2]))
        with pytest.raises(ValueError):
            NominalSpec("multinomial", 5, p=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            NominalSpec("discretized-normal", 5, mu=np.array([2.0]), sigma=np.array([0.0]))
        with pytest.raises(ValueError):
            NominalSpec("discretized-normal", 5, mu=np.array([6.0]), sigma=np.array([1.0]))
        with pytest.raises(ValueError):
            nominal_marginals(binomial_spec([0.5]), G33)

    def test_random_spec_defaults(self):
        rng = substream(3, 0)
        spec = random_nominal_spec("multinomial", 10, 50, rng)
        assert spec.p.sum() == pytest.approx(1.0, rel=1e-12)
        spec_n = random_nominal_spec("discretized-normal", 10, 50, rng, sigma=12.5)
        assert np.all((1.0 <= spec_n.mu) & (spec_n.mu <= 50.0))
        assert np.all(spec_n.sigma == 12.5)


class TestSampleSizes:
    def test_zero_spread_pins_everything_to_t_min(self):
        marg = nominal_marginals(binomial_spec(np.linspace(0.1, 0.9, G33.num_arcs)), G33)
        for kind in ("uniform", "binomial1", "binomial2"):
            sizes = sample_sizes(SampleSizeSpec(kind, 7, 0), marg, substream(4, 0))
            assert np.all(sizes == 7)

    def test_tilted_extremes_are_deterministic(self):
        p = np.linspace(0.1, 0.9, G33.num_arcs)
        marg = nominal_marginals(binomial_spec(p), G33)
        lo_action = int(np.argmin(p))
        hi_action = int(np.argmax(p))
        s1 = sample_sizes(SampleSizeSpec("binomial1", 5, 12), marg, substream(5, 0))
        assert s1[lo_action] == 5
        assert s1[hi_action] == 17
        s2 = sample_sizes(SampleSizeSpec("binomial2", 5, 12), marg, substream(5, 1))
        assert s2[lo_action] == 17
        assert s2[hi_action] == 5

    def test_range_invariant(self):
        marg = nominal_marginals(binomial_spec(np.linspace(0.05, 0.95, G33.num_arcs)), G33)
        for kind in ("uniform", "binomial1", "binomial2"):
            for seed in range(5):
                sizes = sample_sizes(SampleSizeSpec(kind, 4, 9), marg, substream(6, seed))
                assert np.all((4 <= sizes) & (sizes <= 13))

    def test_equal_means_rejected_for_tilted_kinds(self):
        marg = nominal_marginals(binomial_spec(np.full(G33.num_arcs, 0.4)), G33)
        with pytest.raises(ValueError):
            sample_sizes(SampleSizeSpec("binomial1", 5, 3), marg, substream(7, 0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSizeSpec("bogus", 5, 3)
        with pytest.raises(ValueError):
            SampleSizeSpec("uniform", 0, 3)
        with pytest.raises(ValueError):
            SampleSizeSpec("uniform", 5, -1)


class TestDrawDataset:
    def test_point_mass_marginal(self):
        marg = nominal_marginals(binomial_spec(np.zeros(G33.num_arcs), d=4), G33)
        data = draw_dataset(marg, np.full(G33.num_arcs, 3), substream(8, 0))
        for obs in data.samples:
            assert np.all(obs == 1.0)

    def test_costs_stay_on_support(self):
        marg = nominal_marginals(binomial_spec(np.linspace(0.2, 0.8, G33.num_arcs), d=7), G33)
        data = draw_dataset(marg, np.full(G33.num_arcs, 40), substream(9, 0))
        for obs in data.samples:
            assert np.all(np.isin(obs, np.arange(1.0, 8.0)))

    def test_empirical_means_converge(self):
        marg = nominal_marginals(binomial_spec(np.linspace(0.2, 0.8, G33.num_arcs), d=7), G33)
        data = draw_dataset(marg, np.full(G33.num_arcs, 10_000), substream(10, 0))
        for a in (0, 11, 23):
            q = marg[a]
            sd = np.sqrt(np.dot(q.support.points**2, q.probs) - q.mean() ** 2)
            assert abs(float(np.mean(data.samples[a])) - q.mean()) <= 3 * sd / 100.0

    def test_joint_draws_satisfy_support_sum_constraint(self):
        rng = substream(11, 0)
        spec = random_nominal_spec("multinomial", G33.num_arcs, 9, rng)
        marg = nominal_marginals(spec, G33)
        sizes = np.full(G33.num_arcs, 6)
        data = draw_dataset(marg, sizes, substream(11, 1), joint=True)
        rows = np.stack([obs[:6] for obs in data.samples], axis=1)
        assert np.all(rows.sum(axis=1) == 9 - 1 + G33.num_arcs)

    def test_joint_prefix_lengths(self):
        rng = substream(12, 0)
        spec = random_nominal_spec("multinomial", G33.num_arcs, 5, rng)
        marg = nominal_marginals(spec, G33)
        sizes = np.arange(1, G33.num_arcs + 1)
        data = draw_dataset(marg, sizes, substream(12, 1), joint=True)
        assert data.sizes.tolist() == sizes.tolist()

    def test_seed_determinism_byte_for_byte(self):
        marg = nominal_marginals(binomial_spec(np.linspace(0.1, 0.9, G33.num_arcs)), G33)
        sizes = sample_sizes(SampleSizeSpec("uniform", 3, 5), marg, substream(13, 0))
        d1 = draw_dataset(marg, sizes, substream(13, 1))
        d2 = draw_dataset(marg, sizes, substream(13, 1))
        assert d1.sizes.tolist() == d2.sizes.tolist()
        assert sample_bytes(d1) == sample_bytes(d2)

    def test_substreams_differ(self):
        marg = nominal_marginals(binomial_spec(np.linspace(0.1, 0.9, G33.num_arcs)), G33)
        d1 = draw_dataset(marg, np.full(G33.num_arcs, 5), substream(13, 1))
        d2 = draw_dataset(marg, np.full(G33.num_arcs, 5), substream(13, 2))
        assert sample_bytes(d1) != sample_bytes(d2)

