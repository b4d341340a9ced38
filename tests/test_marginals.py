import math

import numpy as np
import pytest

from kldro.marginals import (
    DataSet,
    Marginal,
    Support,
    _fsum_is_one,
    empirical_from_samples,
    kl_divergence,
    mean,
)


def test_support_validation():
    with pytest.raises(ValueError):
        Support(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        Support(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Support(np.array([1.0, 1.0]))
    assert Support.integers(3).size == 3
    assert Support.integers(3).max == 3.0


def test_marginal_validation():
    sup = Support.integers(2)
    with pytest.raises(ValueError):
        Marginal(sup, np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Marginal(sup, np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        Marginal(sup, np.array([1.0]))


def test_empirical_counting():
    sup = Support.integers(2)
    m = empirical_from_samples([1, 2, 2, 2], sup)
    assert m.probs.tolist() == [0.25, 0.75]


def test_empirical_unobserved_point_gets_zero():
    m = empirical_from_samples([1, 1], Support.integers(2))
    assert m.probs.tolist() == [1.0, 0.0]


def test_empirical_rejects_off_support_sample():
    with pytest.raises(ValueError, match="3.0"):
        empirical_from_samples([1, 3], Support.integers(2))


def test_empirical_sums_exactly_to_one():
    rng = np.random.default_rng(0)
    for _ in range(500):
        d = int(rng.integers(1, 9))
        T = int(rng.integers(1, 400))
        sup = Support.integers(d)
        samples = rng.integers(1, d + 1, size=T).astype(float)
        m = empirical_from_samples(samples, sup)
        assert math.fsum(m.probs) == 1.0
        assert m.mean() == pytest.approx(float(np.mean(samples)), abs=1e-12)


@pytest.mark.parametrize("row, size, sums_to_one", [
    ([0.5, 0.5 - 2**-54], 2, True),  # exact sum 1 - 2**-54: half-way, rounds to even 1.0
    ([0.5, 0.5 - 2**-53], 2, False),  # 1 - 2**-53 is a float of its own
    ([0.5, 0.5 + 2**-53], 2, True),  # 1 + 2**-53: half-way, rounds to even 1.0
    ([0.5, 0.5 + 2**-52], 2, False),
    # Past T_a = 1024 entries need not be multiples of 2**-62: truncating
    # 2**-53 + 2**-70 would put this row on the boundary, but fsum rounds up.
    ([0.5, 0.5, 2**-53 + 2**-70], 2000, False),
])
def test_exact_row_sum_test_at_the_rounding_boundaries(row, size, sums_to_one):
    assert (math.fsum(row) == 1.0) is sums_to_one
    assert _fsum_is_one(np.array([row]), np.array([size])).tolist() == [sums_to_one]


def test_kl_identity_is_zero():
    sup = Support.integers(2)
    m = Marginal(sup, np.array([0.5, 0.5]))
    assert kl_divergence(m, m) == 0.0


def test_kl_direct_substitution():
    sup = Support.integers(2)
    p = Marginal(sup, np.array([1.0, 0.0]))
    q = Marginal(sup, np.array([0.5, 0.5]))
    assert kl_divergence(p, q) == pytest.approx(math.log(2), rel=1e-15)


def test_kl_zero_denominator_is_infinite():
    sup = Support.integers(2)
    p = Marginal(sup, np.array([0.5, 0.5]))
    q = Marginal(sup, np.array([1.0, 0.0]))
    assert kl_divergence(p, q) == math.inf


def test_kl_mismatched_supports_rejected():
    p = Marginal(Support.integers(2), np.array([0.5, 0.5]))
    q = Marginal(Support(np.array([1.0, 3.0])), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        kl_divergence(p, q)


def test_kl_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        sup = Support.integers(d)
        p = Marginal(sup, rng.dirichlet(np.ones(d)))
        q = Marginal(sup, rng.dirichlet(np.ones(d)))
        div = kl_divergence(p, q)
        assert div >= 0.0
        if np.array_equal(p.probs, q.probs):
            assert div == 0.0
        else:
            assert div > 0.0


def test_kl_convex_in_second_argument():
    rng = np.random.default_rng(2)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        sup = Support.integers(d)
        p = Marginal(sup, rng.dirichlet(np.ones(d)))
        q1 = Marginal(sup, rng.dirichlet(np.ones(d)))
        q2 = Marginal(sup, rng.dirichlet(np.ones(d)))
        lam = float(rng.uniform())
        mix = Marginal(sup, lam * q1.probs + (1 - lam) * q2.probs)
        lhs = kl_divergence(p, mix)
        rhs = lam * kl_divergence(p, q1) + (1 - lam) * kl_divergence(p, q2)
        assert lhs <= rhs + 1e-10


def test_mean_examples():
    assert mean(Marginal(Support.integers(2), np.array([0.5, 0.5]))) == 1.5
    assert mean(Marginal(Support.integers(3), np.array([0.0, 0.0, 1.0]))) == 3.0
    m = Marginal(Support(np.array([1.0, 50.0])), np.array([0.9, 0.1]))
    assert mean(m) == pytest.approx(5.9, rel=1e-15)


def test_dataset_validation_and_views():
    sup = Support.integers(3)
    data = DataSet((sup, sup), (np.array([1.0, 2.0, 2.0]), np.array([3.0])))
    assert data.num_actions == 2
    assert data.sizes.tolist() == [3, 1]
    assert data.t_min == 1
    emp = data.empirical(0)
    assert emp.probs[0] == pytest.approx(1 / 3, abs=1e-15)
    assert emp.probs[1] == pytest.approx(2 / 3, abs=1e-15)
    assert emp.probs[2] == 0.0
    assert math.fsum(emp.probs) == 1.0
    with pytest.raises(ValueError, match="outside support"):
        DataSet((sup,), (np.array([4.0]),))
    with pytest.raises(ValueError):
        DataSet((sup,), (np.array([]),))
