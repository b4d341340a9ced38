import math

import numpy as np
import pytest

from kldro.marginals import (
    DataSet,
    PmfMatrix,
    Support,
    _absorb_rounding,
    _fsum_is_one,
    kl_divergence,
)
from oracles import dataset_from_costs


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
    """A one-row PmfMatrix, an action's marginal pmf, is validated as a
    stack's rows are; a scalar has no support axis."""
    sup = Support.integers(2)
    with pytest.raises(ValueError):
        PmfMatrix(sup, np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        PmfMatrix(sup, np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        PmfMatrix(sup, np.array([1.0]))
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        PmfMatrix(sup, np.array([math.nan, math.nan]))
    with pytest.raises(ValueError, match="probs length must match support size"):
        PmfMatrix(Support.integers(1), np.float64(1.0))
    one = PmfMatrix(sup, np.array([0.25, 0.75]))
    assert one.means.shape == () and one.means == 1.75
    assert not one.probs.flags.writeable and not one.means.flags.writeable


def one_action(index, d):
    return DataSet(Support.integers(d), np.array(index), np.array([len(index)]))


def test_empirical_counting():
    assert one_action([0, 1, 1, 1], 2).pmf.tolist() == [[0.25, 0.75]]


def test_empirical_unobserved_point_gets_zero():
    assert one_action([0, 0], 2).empirical(0).probs.tolist() == [1.0, 0.0]


def test_empirical_rejects_off_support_sample():
    for bad in (2, -1):
        with pytest.raises(ValueError, match=rf"^action 0: support index {bad} outside \[0, 2\)$"):
            one_action([0, bad], 2)


def test_empirical_sums_exactly_to_one():
    """Every row fsums to exactly 1.0, and only the smallest observed entry
    of a row moves off count / T_a to make it so."""
    rng = np.random.default_rng(0)
    for _ in range(500):
        d = int(rng.integers(1, 9))
        sizes = rng.integers(1, 400, size=int(rng.integers(1, 4)))
        index = rng.integers(0, d, size=int(sizes.sum()))
        data = DataSet(Support.integers(d), index, sizes)
        owner = np.repeat(np.arange(sizes.size), sizes)
        for a, t in enumerate(sizes.tolist()):
            counts = np.bincount(index[owner == a], minlength=d)
            row, raw = data.pmf[a], counts / t
            assert math.fsum(row) == 1.0
            seen = np.flatnonzero(counts)
            assert set(np.flatnonzero(row != raw)) <= {int(seen[np.argmin(raw[seen])])}
            assert float(data.empirical(a).means) == pytest.approx(
                float(np.mean(index[owner == a] + 1.0)), abs=1e-12)


def test_absorb_rounding_raises_when_no_value_hits_the_target():
    # fsum([1e300, t]) moves in steps of ulp(1e300) ~ 1.5e284, so no t gives 1.0
    probs = np.array([1e300, 0.0])
    with pytest.raises(RuntimeError, match=r"^no value at index 1 makes the sum exactly 1\.0$"):
        _absorb_rounding(probs, 1.0, 1)
    assert probs.tolist() == [1e300, 0.0]


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
    m = np.array([0.5, 0.5])
    assert kl_divergence(m, m) == 0.0


def test_kl_direct_substitution():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-15)


def test_kl_zero_denominator_is_infinite():
    # row-wise over a stack, against one broadcast row
    assert kl_divergence([[0.5, 0.5], [1.0, 0.0]], [1.0, 0.0]).tolist() == [math.inf, 0.0]


def test_kl_mismatched_supports_rejected():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [0.25, 0.25, 0.5])


def test_kl_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        p, q = rng.dirichlet(np.ones(d), size=2)
        div = kl_divergence(p, q)
        assert div >= 0.0
        if np.array_equal(p, q):
            assert div == 0.0
        else:
            assert div > 0.0


def test_kl_convex_in_second_argument():
    rng = np.random.default_rng(2)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        p, q1, q2 = rng.dirichlet(np.ones(d), size=3)
        lam = float(rng.uniform())
        lhs = kl_divergence(p, lam * q1 + (1 - lam) * q2)
        rhs = lam * kl_divergence(p, q1) + (1 - lam) * kl_divergence(p, q2)
        assert lhs <= rhs + 1e-10


def test_mean_examples():
    assert PmfMatrix(Support.integers(2), np.array([0.5, 0.5])).means == 1.5
    assert PmfMatrix(Support.integers(3), np.array([0.0, 0.0, 1.0])).means == 3.0
    m = PmfMatrix(Support(np.array([1.0, 50.0])), np.array([0.9, 0.1]))
    assert float(m.means) == pytest.approx(5.9, rel=1e-15)


def test_dataset_validation_and_views():
    sup = Support.integers(3)
    data = DataSet(sup, np.array([0, 1, 1, 2]), np.array([3, 1]))
    assert data.num_actions == 2
    assert data.sizes.tolist() == [3, 1]
    assert data.t_min == 1
    emp = data.empirical(0)
    assert emp.probs[0] == pytest.approx(1 / 3, abs=1e-15)
    assert emp.probs[1] == pytest.approx(2 / 3, abs=1e-15)
    assert emp.probs[2] == 0.0
    assert math.fsum(emp.probs) == 1.0
    assert not data.index.flags.writeable and not data.sizes.flags.writeable
    with pytest.raises(ValueError, match="outside"):
        DataSet(sup, np.array([3]), np.array([1]))
    with pytest.raises(ValueError):
        DataSet(sup, np.array([], dtype=int), np.array([0]))


def test_dataset_rejects_a_sample_matrix():
    sup = Support.integers(3)
    with pytest.raises(ValueError, match=r"^index must be a 1-d integer array"):
        DataSet(sup, np.array([[0, 1]]), np.array([2]))
    with pytest.raises(ValueError, match=r"^index must be a 1-d integer array"):
        DataSet(sup, np.array([0.0, 1.0]), np.array([2]))
    with pytest.raises(ValueError, match=r"^sizes must be a 1-d integer array"):
        DataSet(sup, np.array([0, 1]), np.array([[1, 1]]))
    with pytest.raises(ValueError, match="^action 1: at least one observation"):
        DataSet(sup, np.array([0]), np.array([1, 0]))
    with pytest.raises(ValueError, match="at least one action"):
        DataSet(sup, np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError, match="^sizes sum to 3 but index holds 2"):
        DataSet(sup, np.array([0, 1]), np.array([1, 2]))


@pytest.mark.parametrize("bad", [0.5, 2.5, 4.0, math.nan, math.inf])
def test_dataset_off_support_error_names_the_owning_action(bad):
    sup = Support.integers(3)
    samples = (np.array([1.0, 2.0]), np.array([3.0]), np.array([2.0, 1.0, bad, 3.0]),
               np.array([bad]))
    with pytest.raises(ValueError, match=r"^action 2: support index -1 outside \[0, 3\)$"):
        dataset_from_costs(sup, samples)


def test_dataset_counts_every_action_on_the_shared_support():
    sup = Support(np.array([0.5, 2.0, 9.0]))
    data = DataSet(sup, np.array([2, 0, 2, 2, 1, 0, 0]), np.array([4, 1, 2]))
    assert data.sizes.tolist() == [4, 1, 2]
    assert data.pmf.tolist() == [[0.25, 0.0, 0.75], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    assert data.means.tolist() == [6.875, 2.0, 0.5]
    assert data.empirical(1).support is sup
