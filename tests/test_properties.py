"""Property tests for the batched dual kernel and its worst-case pmfs,
per-count calibration, the array-first data path, the block data set, and
small configs that either fail validation or run."""

import contextlib
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kldro.datagen import (NOMINAL_KINDS, SIGMA_MAX, SIZE_KINDS, _inverse_cdf, draw_dataset,
                           substream)
from kldro.experiments import RULE_NAMES, SWEEP_VARIABLES, ExperimentConfig, run_sweep
from kldro.graphs import build_layered, route_costs
from kldro.marginals import (
    DataSet,
    PmfMatrix,
    Support,
    kl_divergence,
    pmf_means,
)
import kldro.radius
from kldro.radius import radius_best
from kldro import rules
from kldro.rules import JointEmpirical, calibrate_ambiguity, split_alpha
from kldro.worstcase import solve_dual_batch, worst_case_pmfs
from oracles import (dense_dual_batch, joint_atoms_reference, path_cost, primal_oracle,
                     radius_best_reference, radius_candidates, worst_case_pmf_reference)

radii = st.floats(1e-14, 1e3).map(float)


@st.composite
def pmfs(draw, d_max=50, d=None):
    """Support points and a pmf on them; some points unobserved, and the
    top point sometimes carries only a tiny mass."""
    d = draw(st.integers(1, d_max)) if d is None else d
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=d, max_size=d))
    points = draw(st.floats(0.1, 10.0)) + np.cumsum(steps)
    masses = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])
    raw = np.array(draw(st.lists(masses, min_size=d, max_size=d)))
    raw[-1] = draw(st.sampled_from([raw[-1], 0.0, 1e-9, 1e-6]))
    if raw.sum() == 0.0:
        raw[draw(st.integers(0, d - 1))] = 1.0
    return points, raw / raw.sum()


def solve(points, probs, r):
    points, probs = np.atleast_2d(points), np.atleast_2d(probs)
    return solve_dual_batch(points, probs, np.broadcast_to(r, len(points)), points[:, -1])


@settings(max_examples=60)
@given(st.integers(1, 50).flatmap(lambda d: st.lists(st.tuples(pmfs(d=d), radii),
                                                     min_size=1, max_size=8)),
       st.integers(0, 40), st.randoms(use_true_random=False))
def test_rows_bit_identical_alone_or_in_any_batch(rows, pad, rnd):
    """A row's result is the same bits alone, in any batch and order, and
    padded with ``pad`` zero-weight entries at its own points, placed
    anywhere among its entries (which keep their order)."""
    points = np.array([p for (p, _), _ in rows])
    probs = np.array([q for (_, q), _ in rows])
    r = np.array([r for _, r in rows])
    n, d = points.shape
    padded_z, padded_q = np.empty((n, d + pad)), np.zeros((n, d + pad))
    for k in range(n):
        at = sorted(rnd.sample(range(d + pad), d))
        padded_z[k] = points[k, [rnd.randrange(d) for _ in range(d + pad)]]
        padded_z[k, at], padded_q[k, at] = points[k], probs[k]
    order = list(range(n))
    rnd.shuffle(order)
    batch = solve_dual_batch(padded_z[order], padded_q[order], r[order], points[order, -1])
    for pos, k in enumerate(order):
        alone = solve_dual_batch(points[k:k + 1], probs[k:k + 1], r[k:k + 1], points[k:k + 1, -1])
        for field in ("beta", "value", "iterations", "log_offset"):
            assert getattr(batch, field)[pos] == getattr(alone, field)[0]


# Kernel passes per row on any pmf at any radius in [1e-8, 1e3]: 10 at most
# on 16,000 random rows; 53 from the small-radius start alone.
MAX_PASSES = 12


@settings(max_examples=200)
@given(pmfs(), st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=8))
def test_every_row_converges_within_twelve_passes(pmf, exponents):
    points, probs = pmf
    r = 10.0 ** np.array(exponents)
    sol = solve(np.tile(points, (len(r), 1)), np.tile(probs, (len(r), 1)), r)
    assert sol.iterations.max() <= MAX_PASSES


@settings(max_examples=60)
@given(pmfs(), st.lists(radii, min_size=2, max_size=6))
def test_value_between_mean_and_top_and_nondecreasing_in_radius(pmf, rs):
    points, probs = pmf
    rs = np.sort(np.array(rs))
    value = solve(np.tile(points, (len(rs), 1)), np.tile(probs, (len(rs), 1)), rs).value
    mean = float(pmf_means(points, probs))
    assert np.all(value >= mean) and np.all(value <= points[-1])
    assert np.all(np.diff(value) >= 0.0)


@settings(max_examples=200)
@given(pmfs(), st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=8))
def test_value_is_at_least_the_envelope_mean(pmf, exponents):
    """The envelope lemma: p = e^{-r} q + (1 - e^{-r}) delta_top lies in the
    ball, so the value is at least its mean, to 4 eps of the top."""
    points, probs = pmf
    r = 10.0 ** np.array(exponents)
    value = solve(np.tile(points, (len(r), 1)), np.tile(probs, (len(r), 1)), r).value
    top, shrink = points[-1], np.exp(-r)
    envelope = shrink * float(pmf_means(points, probs)) + (1.0 - shrink) * top
    assert np.all(value >= envelope - 4 * np.finfo(float).eps * top)


@settings(max_examples=60)
@given(pmfs(), radii, st.floats(1e-3, 1e9), st.floats(0.0, 1e3))
def test_value_affine_equivariant(pmf, r, scale, shift):
    points, probs = pmf
    base = solve(points, probs, r).value[0]
    moved = solve(scale * points + shift, probs, r).value[0]
    assert abs(moved - (scale * base + shift)) <= 1e-12 * (scale * points[-1] + shift)


@settings(max_examples=25)
@given(pmfs(d_max=4), st.floats(1e-14, 1e3))
def test_value_matches_primal_oracle(pmf, r):
    points, probs = pmf
    dual = solve(points, probs, r).value[0]
    oracle = primal_oracle(PmfMatrix(Support(points), probs), r, grid=1e-3)
    assert oracle <= dual + 1e-9 * points[-1]
    assert dual - oracle <= 5e-3 * points[-1]


# Which entries of a padded row carry weight: any, only the last k mod 8
# (the pairwise sum's unrolled remainder; the last one when k mod 8 = 0),
# one, or any plus the top point, whose log gap is -inf.
OBSERVED = ("any", "tail", "single", "top")
PAD_RADII = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-14, 1e3, 1e6]), st.floats(1e-6, 10.0))


@st.composite
def padded_rows(draw, k):
    """One row of k values, mostly zero weights, its radius and bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(OBSERVED))
    z = rng.choice(np.arange(1.0, 30.0), k) if draw(st.booleans()) else rng.uniform(0.5, 50.0, k)
    if kind == "single":
        seen = np.arange(k) == rng.integers(k)
    elif kind == "tail":
        tail = max(k % 8, 1)
        seen = (np.arange(k) >= k - tail) & (rng.random(k) < 0.5)
        seen[k - 1 - rng.integers(tail)] = True
    else:
        seen = rng.random(k) < draw(st.sampled_from([0.05, 0.3, 1.0]))
        seen[rng.integers(k)] = True
    if kind == "top":
        seen[np.argmax(z)] = True
    q = np.where(seen, rng.uniform(0.01, 1.0, k), 0.0)
    extra = 0.0 if kind == "top" or draw(st.booleans()) else rng.uniform(0.0, 5.0)
    return z, q / q.sum(), draw(PAD_RADII), z.max() + extra


def laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """The same (rows, k) values in another memory layout."""
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "wide":  # a column slice of a wider array
        wide = np.zeros((x.shape[0], x.shape[1] + 3))
        wide[:, 1:-2] = x
        return wide[:, 1:-2]
    if layout == "reversed":  # rows in reverse memory order
        return x[::-1].copy()[::-1]
    return x


@settings(max_examples=20)
@pytest.mark.parametrize("k", [1, 7, 8, 50, 129])
@pytest.mark.parametrize("layout", ["c", "fortran", "wide", "reversed"])
@given(data=st.data())
def test_observed_entry_kernel_equals_dense_reference_bit_for_bit(k, layout, data):
    """The kernel works on the observed entries only and matches the dense
    reference bit for bit on zero-padded rows: for k across numpy's
    pairwise-sum unroll (8) and block (128) sizes, a weighted top point, a
    lone observed point, r = 0, tiny and huge radii, entries only in the
    last k mod 8 columns, and inputs that are not C-contiguous; with one
    support for all rows, also as the one (1, k) row they share."""
    rows = data.draw(st.lists(padded_rows(k), min_size=1, max_size=6))
    z, q, r, top = (np.array(x) for x in zip(*rows))
    shared = data.draw(st.booleans())
    if shared:
        z = np.broadcast_to(z[0], z.shape)  # one support for all rows
        top = np.maximum(top, z[0].max())
    want = dense_dual_batch(z, q, r, top)
    found = [solve_dual_batch(laid_out(z, layout), laid_out(q, layout), r, top)]
    if shared:
        found.append(solve_dual_batch(z[:1], laid_out(q, layout), r, top))
    for got in found:
        for field in ("beta", "value", "iterations", "log_offset"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@st.composite
def pmf_rows(draw, k):
    """One row of k distinct values in random order, mostly zero weights,
    and its radius: a point mass on the top (the boundary with a weighted
    top), or weights on any points with the top weighted or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.permutation(np.arange(1.0, k + 1.0)) * draw(st.sampled_from([1.0, 0.37, 1e3]))
    top = int(np.argmax(z))
    kind = draw(st.sampled_from(["point on top", "weighted top", "unweighted top"]))
    seen = rng.random(k) < draw(st.sampled_from([0.05, 0.3, 1.0]))
    seen[rng.integers(k)] = True
    if kind == "point on top" or k == 1:
        seen = np.arange(k) == top
    else:
        seen[top] = kind == "weighted top"
        seen[(top + 1) % k] = True
    q = np.where(seen, rng.uniform(0.01, 1.0, k), 0.0)
    return z, q / q.sum(), draw(PAD_RADII)


@settings(max_examples=20)
@pytest.mark.parametrize("k", [1, 7, 8, 50, 129])
@given(data=st.data())
def test_worst_case_pmfs_are_pmfs_in_the_ball_with_the_dual_mean(k, data):
    """On zero-padded batches mixing r = 0, interior and boundary rows
    (with the top weighted or not): every row is a pmf, inside the ball,
    with the kernel's value as its mean, and equals the one-row reference
    of the cases to 1e-15."""
    rows = data.draw(st.lists(pmf_rows(k), min_size=1, max_size=6))
    z, q, r = (np.array(x) for x in zip(*rows))
    sol = solve_dual_batch(z, q, r, z.max(axis=1))
    got = worst_case_pmfs(z, q, r, sol.log_offset)
    for i, p in enumerate(got):
        assert p.min() >= 0.0 and abs(math.fsum(p) - 1.0) <= 1e-12
        assert kl_divergence(q[i], p) <= r[i] * (1 + 1e-9) + 1e-14
        value = sol.value[i]
        assert abs(pmf_means(z[i], p) - value) <= 1e-9 * max(1.0, abs(value))
        want = worst_case_pmf_reference(z[i], q[i], r[i], sol.log_offset[i])
        assert np.abs(p - want).max() <= 1e-15


def calibrated_labels(data, alpha):
    """The radii ``calibrate_ambiguity`` returns, and the labels of the one
    ``radius_best`` call that gave them."""
    found = []

    def recording(*args):
        found.append(radius_best(*args))
        return found[-1]

    with mock.patch.object(rules, "radius_best", side_effect=recording):
        radii = calibrate_ambiguity(data, alpha)
    [(returned, labels)] = found
    assert returned is radii
    return radii, labels


@settings(max_examples=60)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=120), st.integers(1, 50),
       st.floats(1e-4, 0.99))
def test_calibration_per_distinct_count_equals_per_arc_loop(sizes, d, alpha):
    sup = Support.integers(d)
    data = DataSet(sup, np.zeros(sum(sizes), dtype=int), np.array(sizes))
    radii, labels = calibrated_labels(data, alpha)
    alphas = split_alpha(alpha, sizes)
    for a, t in enumerate(sizes):
        radius, label = radius_best(t, d, len(sizes), float(alphas[a]), alpha)
        assert radii[a] == radius
        assert labels[a] == label


@settings(max_examples=40)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=60),
       st.lists(st.integers(1, 50), min_size=3, max_size=3), st.floats(1e-4, 0.99))
def test_calibration_keys_separate_support_sizes(sizes, dims, alpha):
    """The same counts on supports of different sizes get each support's own
    radii, and one calibration evaluates the baseline once per distinct
    (T_a, alpha_a)."""
    alphas = split_alpha(alpha, sizes)
    for d in dims:
        data = DataSet(Support.integers(d), np.zeros(sum(sizes), dtype=int), np.array(sizes))
        baseline = kldro.radius.radius_baseline
        with mock.patch.object(kldro.radius, "radius_baseline", side_effect=baseline) as calls:
            radii, labels = calibrated_labels(data, alpha)
        assert calls.call_count == 1
        assert np.size(calls.call_args.args[0]) == len(set(zip(sizes, alphas.tolist())))
        for a, t in enumerate(sizes):
            radius, label = radius_best(t, d, len(sizes), float(alphas[a]), alpha)
            assert radii[a] == radius
            assert labels[a] == label


BOUNDS = ("radius_baseline", "radius_agrawal", "radius_mardia")


@st.composite
def repeated_radius_inputs(draw):
    """Counts T_a in [1, 80] and budgets alpha_a in (0, 1), each drawn from
    a pool of up to four, so that pairs repeat in any order and some pairs
    share a count or a budget; as one row or two."""
    pool_t = draw(st.lists(st.integers(1, 80), min_size=1, max_size=4))
    pool_alpha = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                               min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    T = np.array(draw(st.lists(st.sampled_from(pool_t), min_size=n, max_size=n)))
    alphas = np.array(draw(st.lists(st.sampled_from(pool_alpha), min_size=n, max_size=n)))
    if n % 2 == 0 and draw(st.booleans()):
        T, alphas = T.reshape(2, -1), alphas.reshape(2, -1)
    return T, alphas


@settings(max_examples=80)
@given(repeated_radius_inputs(), st.sampled_from([1, 2, 3, 50, 50**24]), st.integers(1, 200),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example((np.array([[3, 1, 3], [1, 3, 3]]), np.array([[0.5, 0.5, 0.25], [0.5, 0.5, 0.25]])),
         3, 24, 0.05)
@example((np.array([10, 35, 10]), np.array([0.05 / 24, 0.05 / 104, 0.05 / 24])), 50, 24, 0.05)
def test_radius_best_runs_agrawal_only_where_its_floor_does_not_lose(inputs, d, m, alpha):
    """``radius_best`` on arrays whose (T_a, alpha_a) repeat equals its
    one-entry calls and the unpruned three-bound minimum bit for bit, labels
    included.  It runs baseline, Mardia and the Agrawal floor once each, on
    the distinct (T_a, alpha_a), and Agrawal once, on exactly the
    distinct inputs whose floor is at most the lesser of the other two
    bounds times 1 + 1e-9 (none at d = 50)."""
    T, alphas = inputs
    distinct = sorted(set(zip(T.ravel().tolist(), alphas.ravel().tolist())))
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(
                     kldro.radius, name, side_effect=getattr(kldro.radius, name)))
                 for name in BOUNDS + ("_agrawal_floor",)}
        radii, labels = radius_best(T, d, m, alphas, alpha)
    assert radii.shape == labels.shape == T.shape
    for name in ("radius_baseline", "radius_mardia", "_agrawal_floor"):
        assert spies[name].call_count == int(d >= 2 or name == "radius_baseline"), name
        if spies[name].call_count:
            assert np.size(spies[name].call_args.args[0]) == len(distinct), name
    agrawal = spies["radius_agrawal"]
    if d >= 2:
        T_d, _, alpha_d = spies["_agrawal_floor"].call_args.args
        assert sorted(zip(T_d.tolist(), alpha_d.tolist())) == distinct
        others = [min(found[0], found[2]) for found in (
                      radius_candidates(t, d, m, a, alpha)
                      for t, a in zip(T_d.tolist(), alpha_d.tolist()))]
        runs = kldro.radius._agrawal_floor(T_d, d, alpha_d) <= np.array(others) * (1.0 + 1e-9)
        assert agrawal.call_count == 1
        t_a, _, alpha_a = agrawal.call_args.args
        assert (t_a.tolist(), alpha_a.tolist()) == (T_d[runs].tolist(), alpha_d[runs].tolist())
    else:
        assert agrawal.call_count == 0
    want, want_labels = radius_best_reference(T, d, m, alphas, alpha)
    for k in np.ndindex(T.shape):
        radius, label = radius_best(int(T[k]), d, m, float(alphas[k]), alpha)
        assert float(radii[k]).hex() == float(radius).hex() == float(want[k]).hex()
        assert labels[k] == label == want_labels[k]


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 50, 50**24]),
       st.floats(-300.0, 0.0, exclude_max=True).map(lambda e: 10.0**e).filter(lambda a: a < 1.0),
       st.integers(1, 10**6))
@example(2, 1e-300, 1)
@example(50, 0.05 / 104, 35)
@example(50**24, 1.0 - 2.0**-53, 10**6)
def test_agrawal_floor_lies_below_the_agrawal_radius(d, alpha_a, T):
    """x - log1p(x) <= x^2/2, so Agrawal's radius is at least
    (d - 1)(1 + sqrt(2c))/T, c = ln(1/alpha_a)/(d - 1), up to rounding."""
    floor = kldro.radius._agrawal_floor(T, d, alpha_a)
    assert 0.0 < floor <= kldro.radius.radius_agrawal(T, d, alpha_a) * (1.0 + 1e-12)


@settings(max_examples=100)
@given(st.integers(1, 60), st.integers(1, 30), st.one_of(st.integers(1, 30), st.integers(1, 10**4)),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(1, 1, 1, 0.05)
@example(1, 24, 5, 1.0 - 2.0**-53)
def test_joint_radius_is_positive(d, m, t_min, alpha):
    """dro1's radius is never 0, so a block always solves its joint dual:
    at d^m = 1 the baseline is (ln(T+1) - ln alpha)/T, otherwise Agrawal's
    bound is at least (d^m - 1)/T and Mardia's is positive."""
    data = DataSet(Support.integers(d), np.zeros(m * t_min, dtype=int), np.full(m, t_min))
    assert rules.joint_radius(data, alpha) > 0.0


def split_alpha_with_fractions(alpha, sizes):
    """The rational-arithmetic split of one row of counts: each share
    alpha / (T_a sum_b 1/T_b) in exact fractions, rounded once by float()."""
    total = sum(Fraction(1, int(t)) for t in sizes)
    return np.array([float(Fraction(alpha) / (int(t) * total)) for t in sizes])


@settings(max_examples=200)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=120),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example([3, 5, 7], 5e-324)
def test_split_alpha_equals_rational_reference_and_sums_to_alpha(sizes, alpha):
    """Each share is its exact ratio rounded once.  A share that is a normal
    float then errs by at most 2**-53 of itself, so the exact sum of the
    shares is within 2**-53 alpha of alpha and their fsum within one ulp.
    An alpha that would make a share subnormal or 0 is refused."""
    expected = split_alpha_with_fractions(alpha, sizes)
    if expected.min() < sys.float_info.min:
        with pytest.raises(ValueError, match="too small to split"):
            split_alpha(alpha, sizes)
        return
    got = split_alpha(alpha, sizes)
    assert np.array_equal(got, expected)
    assert abs(math.fsum(got) - alpha) <= math.ulp(alpha)


@st.composite
def pmf_matrices(draw, d_max=50, d=None):
    """An (actions x d) pmf matrix with zero cells; rows normalized by their
    float sum, as the nominal marginals are."""
    d = draw(st.integers(1, d_max)) if d is None else d
    m = draw(st.integers(1, 8))
    masses = st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.5, 1.0, 3.0])
    raw = np.array(draw(st.lists(st.lists(masses, min_size=d, max_size=d),
                                 min_size=m, max_size=m)))
    for row in raw:
        if row.sum() == 0.0:
            row[draw(st.integers(0, d - 1))] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


# Factors that move a row sum off 1 but keep it inside the 1e-12 tolerance.
row_scales = st.sampled_from([1.0, 1 - 9e-13, 1 - 4e-13, 1 + 4e-13, 1 + 9e-13])


def scaled_rows(probs, scales):
    """Each row times its factor, entries capped at 1."""
    return np.minimum(probs * np.asarray(scales)[:, None], 1.0)


class FedGenerator(np.random.Generator):
    """A generator whose ``random`` serves the given uniforms in order;
    ``choice`` draws its uniforms through that method too."""

    def __init__(self, uniforms):
        super().__init__(np.random.Philox(0))
        self.uniforms, self.used = np.asarray(uniforms, dtype=float), 0

    def random(self, size=None, dtype=np.float64, out=None):
        u = self.uniforms[self.used : self.used + size]
        self.used += size
        return u.copy()


@settings(max_examples=80)
@given(pmf_matrices(), st.data(), st.integers(0, 2**32))
def test_batched_draw_equals_one_choice_call_per_action(probs, data, key):
    m, d = probs.shape
    probs = scaled_rows(probs, data.draw(st.lists(row_scales, min_size=m, max_size=m)))
    sizes = data.draw(st.lists(st.sampled_from([1, 1, 2, 3, 7, 40]), min_size=m, max_size=m))
    nominal = PmfMatrix(Support.integers(d), probs)
    rng, ref = substream(key, 0), substream(key, 0)
    got = np.split(draw_dataset(nominal, sizes, rng).index, np.cumsum(sizes)[:-1])
    for a, t in enumerate(sizes):
        assert np.array_equal(got[a], ref.choice(d, size=t, p=probs[a]))
    assert rng.random() == ref.random()


@settings(max_examples=80)
@given(pmf_matrices(), st.data())
def test_batched_draw_equals_choice_at_cdf_steps(probs, data):
    """Uniforms on and next to the rows' cdf steps, before and after
    normalization, on rows whose sums are off 1 within the tolerance: the
    batched draw picks what ``choice`` picks."""
    m, d = probs.shape
    probs = scaled_rows(probs, data.draw(st.lists(row_scales, min_size=m, max_size=m)))
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    cdf = np.cumsum(probs, axis=1)
    steps = np.concatenate([cdf.ravel(), (cdf / cdf[:, -1:]).ravel(), [0.0, 1.0]])
    steps = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0)])
    steps = np.unique(steps[(steps >= 0.0) & (steps < 1.0)]).tolist()
    uniforms = data.draw(st.lists(st.sampled_from(steps), min_size=sum(sizes), max_size=sum(sizes)))
    nominal = PmfMatrix(Support.integers(d), probs)
    rng, ref = FedGenerator(uniforms), FedGenerator(uniforms)
    got = np.split(draw_dataset(nominal, sizes, rng).index, np.cumsum(sizes)[:-1])
    for a, t in enumerate(sizes):
        assert np.array_equal(got[a], ref.choice(d, size=t, p=probs[a]))
    assert rng.used == ref.used == sum(sizes)


@settings(max_examples=40)
@given(st.one_of(pmf_matrices(), st.sampled_from([63, 64, 65, 127, 128, 129]).flatmap(
           lambda d: pmf_matrices(d=d))),
       st.sampled_from([1, 2, 510, 511, 512, 1022, 1023, 1200]), st.data())
def test_keyed_inverse_cdf_equals_per_row_searchsorted(probs, rows, data):
    """The bisection over up to 1200 rows of up to 50 points, and of 63-65
    and 127-129 points, where its step count changes, on rows with zero
    cells (repeated cdf values) and point masses, with uniforms on, just
    below and just above the cdf steps, and on the 2**-53 grid that
    ``Generator.random`` draws from."""
    m, d = probs.shape
    base = np.vstack([probs, np.eye(d)[data.draw(st.integers(0, d - 1))]])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    pattern = rng.integers(0, len(base), size=rows)
    cdf = np.cumsum(base, axis=1)
    cdf /= cdf[:, -1:]
    steps = np.concatenate([cdf.ravel(), [0.0]])
    steps = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0),
                            rng.integers(0, 2**53, size=16) / 2.0**53])
    steps = np.unique(steps[(steps >= 0.0) & (steps < 1.0)])
    per_row = rng.integers(0, 4, size=rows)
    row = np.repeat(np.arange(rows), per_row)
    u = rng.choice(steps, size=row.size)
    got = _inverse_cdf(cdf[pattern], row, u)
    expected = np.empty_like(got)
    for b in range(len(base)):
        mine = pattern[row] == b
        expected[mine] = cdf[b].searchsorted(u[mine], side="right")
    assert np.array_equal(got, expected)


@settings(max_examples=60)
@given(pmf_matrices())
def test_pmf_matrix_means_equal_marginal_means(probs):
    """Each row's mean in a matrix, and in a block stacking it twice, equals
    the mean of the row alone (an action's marginal) bit for bit."""
    sup = Support.integers(probs.shape[1])
    nominal = PmfMatrix(sup, probs)
    block = PmfMatrix(sup, np.stack([probs, probs]))
    assert nominal.means.shape == probs.shape[:1] and block.means.shape == (2, len(probs))
    for a, row in enumerate(probs):
        q = PmfMatrix(sup, row)
        assert nominal.means[a] == block.means[1, a] == q.means
        assert np.array_equal(q.probs, probs[a])


def rejection(make):
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


@settings(max_examples=60)
@given(pmf_matrices(), st.data(),
       st.sampled_from(["negative", "above one", "NaN", "sum off", "extra column"]))
def test_pmf_matrix_rejects_what_marginal_rejects(probs, data, defect):
    """A matrix and a block holding a defective row are rejected with the
    message the row alone (an action's marginal) gets."""
    m, d = probs.shape
    a = data.draw(st.integers(0, m - 1))
    k = data.draw(st.integers(0, d - 1))
    bad = probs.copy()
    if defect == "negative":
        bad[a, k] = -1e-3
    elif defect == "above one":
        bad[a, k] = 1.5
    elif defect == "NaN":
        bad[a, k] = math.nan
    elif defect == "sum off":
        bad[a, np.argmin(bad[a])] += 1e-11
    elif defect == "extra column":
        bad = np.hstack([bad, np.zeros((m, 1))])
    sup = Support.integers(d)
    message = rejection(lambda: PmfMatrix(sup, bad[a]))
    assert message == rejection(lambda: PmfMatrix(sup, bad))
    assert message == rejection(lambda: PmfMatrix(sup, np.stack([bad, bad])))


@st.composite
def index_datasets(draw):
    """Index data with heavy ties: a support of 1 to 4 points, 1 to 6
    actions, T_min from 1, and some actions observed past T_min."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    t_min = draw(st.integers(1, 12))
    sizes = t_min + np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)))
    sizes[draw(st.integers(0, m - 1))] = t_min
    # Columns drawn from a small pool repeat often.
    pool = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=m, max_size=m),
                         min_size=1, max_size=3))
    t_max = int(sizes.max())
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=t_max, max_size=t_max))
    block = np.array([pool[k] for k in picks]).T
    index = block[np.arange(t_max) < sizes[:, None]]
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=d, max_size=d))
    return DataSet(Support(0.5 + np.cumsum(steps)), index, sizes)


@settings(max_examples=200)
@given(index_datasets())
@example(DataSet(Support.integers(1), np.zeros(5, dtype=int), np.array([1, 4])))
@example(DataSet(Support.integers(3), np.array([2, 0, 1, 2, 2, 0, 0]), np.array([3, 4])))
def test_joint_atoms_equal_the_unique_reference(data):
    joint = JointEmpirical.from_dataset(data)
    atoms, probs = joint_atoms_reference(data)
    assert joint.atoms.shape == atoms.shape and np.array_equal(joint.atoms, atoms)
    assert np.array_equal(joint.probs, probs)


# Counts on 5 points whose pmf row c / 22 does not fsum to 1.
OFF_ONE_COUNTS = (0, 0, 1, 6, 15)


@st.composite
def ragged_blocks(draw):
    """A block of 1 to 6 replicates on one support of 1, 2, 5 or 50 points:
    rows of unequal counts, rows whose counts are all equal (truncation is
    the identity there), rows with counts above 1024 and, on 5 points, rows
    whose pmf does not fsum to 1."""
    d = draw(st.sampled_from([1, 2, 5, 50]))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.full(d, 0.3))
    sizes, index = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["ragged", "equal", "large", "off one"]))
        if kind == "off one" and d == 5:
            sizes.append([sum(OFF_ONE_COUNTS)] * m)
            index += [rng.permutation(np.repeat(np.arange(d), OFF_ONE_COUNTS)) for _ in range(m)]
            continue
        if kind in ("equal", "off one"):
            row = [draw(st.integers(1, 12))] * m
        else:
            counts = st.integers(1, 12) if kind == "ragged" else st.integers(1000, 1100)
            row = draw(st.lists(counts, min_size=m, max_size=m))
        sizes.append(row)
        index.append(rng.choice(d, size=sum(row), p=p))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=d, max_size=d))
    return DataSet(Support(0.5 + np.cumsum(steps)), np.concatenate(index), np.array(sizes))


@settings(max_examples=60)
@given(ragged_blocks(), st.floats(1e-4, 0.99))
def test_a_block_equals_its_rows_bit_for_bit(block, alpha):
    """Every block step equals the one-replicate call on each row: pmf,
    means, split, Hoeffding slack, truncation, calibrated radii and labels,
    and the joint radius; and each row's joint atoms and probabilities are
    the ``np.unique`` reference's."""
    support = block.support
    ends = np.cumsum(block.sizes.sum(axis=1))
    truncated = rules.truncate_dataset(block)
    trunc_ends = np.cumsum(truncated.sizes.sum(axis=1))
    radii, labels = calibrated_labels(block, alpha)
    slack = rules.hoeffding_slack(block, alpha)
    joint_radii = rules.joint_radius(block, alpha)
    for k, index in enumerate(np.split(block.index, ends[:-1])):
        one = DataSet(support, index, block.sizes[k])
        assert np.array_equal(block.pmf[k], one.pmf)
        assert np.array_equal(block.means[k], one.means)
        assert np.array_equal(split_alpha(alpha, block.sizes)[k], split_alpha(alpha, one.sizes))
        assert np.array_equal(slack[k], rules.hoeffding_slack(one, alpha))
        cut = rules.truncate_dataset(one)
        assert np.array_equal(truncated.sizes[k], cut.sizes)
        assert np.array_equal(np.split(truncated.index, trunc_ends[:-1])[k], cut.index)
        assert np.array_equal(truncated.pmf[k], cut.pmf)
        joint = JointEmpirical.from_dataset(one)
        atoms, probs = joint_atoms_reference(one)
        assert np.array_equal(joint.atoms, atoms) and np.array_equal(joint.probs, probs)
        one_radii, one_labels = calibrated_labels(one, alpha)
        assert np.array_equal(radii[k], one_radii)
        assert labels[k].tolist() == one_labels.tolist()
        assert joint_radii[k] == rules.joint_radius(one, alpha)


@settings(max_examples=60)
@given(ragged_blocks(), st.floats(1e-4, 0.99))
def test_block_probabilities_are_ratios_rounded_once(block, alpha):
    """In every row of a block, each pmf entry is its count over T_a, each
    joint probability its multiplicity over T_min and each budget share its
    exact ratio, each rounded once: pmf rows and joint rows fsum to within
    2**-53 of 1, and the shares to within one ulp of alpha."""
    sizes = block.sizes.reshape(-1, block.num_actions)
    ends = np.cumsum(sizes.sum(axis=1))
    shares = split_alpha(alpha, block.sizes)
    for k, index in enumerate(np.split(block.index, ends[:-1])):
        starts = (np.cumsum(sizes[k]) - sizes[k]).tolist()
        for a, (start, t) in enumerate(zip(starts, sizes[k].tolist())):
            seen = np.bincount(index[start:start + t], minlength=block.support.size).tolist()
            assert block.pmf[k, a].tolist() == [c / t for c in seen]
            assert abs(math.fsum(block.pmf[k, a]) - 1.0) <= 2**-53
        t_min = min(sizes[k].tolist())
        columns = np.stack([index[start:start + t_min] for start in starts], axis=1)
        _, mult = np.unique(columns, axis=0, return_counts=True)
        probs = JointEmpirical.from_dataset(DataSet(block.support, index, sizes[k])).probs
        assert probs.tolist() == [c / t_min for c in mult.tolist()]
        assert abs(math.fsum(probs) - 1.0) <= 2**-53
        assert np.array_equal(shares[k], split_alpha_with_fractions(alpha, sizes[k]))
        assert abs(math.fsum(shares[k]) - alpha) <= math.ulp(alpha)


@settings(max_examples=60)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_gathered_route_costs_equal_path_cost(h, w, rows, seed):
    """The achieved cost of a route, one gather and h + 1 additions in path
    order, equals the arc-by-arc ``path_cost`` oracle bit for bit."""
    g = build_layered(h, w)
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.5, 50.0, size=(rows, g.num_arcs)) * rng.choice([1.0, 1e-7, 1e7],
                                                                          size=(rows, g.num_arcs))
    choices = rng.integers(0, w, size=(rows, h))
    got = route_costs(g, choices, costs.T)  # every route under every row of costs
    for k in range(rows):
        assert got[k, k] == path_cost(g, choices[k], costs[k])


# One value per key that from_dict must reject; a config breaks at most one.
BROKEN = [("h", 0), ("w", 0), ("d", 0), ("n0", 0), ("seed", -1), ("seed", 2**64),
          ("t_min", 0), ("delta", -1), ("alpha", 0.0), ("alpha", 1.0), ("sigma", 0.0),
          ("sigma", 2 * SIGMA_MAX), ("sigma", math.nan), ("grid", []), ("grid", [math.nan]),
          ("rules", [])]


@st.composite
def small_configs(draw):
    """A config dict as ``from_dict`` reads it, on graphs of at most 3 x 3,
    supports of at most 60 points and at most 2 replicates per grid value,
    with edge values of alpha, sigma, t_min, delta and seed; about half
    of them break one key, and alphas too small to split are rejected."""
    sweep = draw(st.sampled_from(SWEEP_VARIABLES))
    nominal = "discretized-normal" if sweep == "sigma" else draw(st.sampled_from(NOMINAL_KINDS))
    t_mins = st.sampled_from([1, 2, 7, 150])
    deltas = st.sampled_from([0, 1, 40])
    sigmas = st.sampled_from([1e-300, 0.01, 1.0, 12.5, SIGMA_MAX])
    grid_values = {"t_min": t_mins, "delta": deltas, "sigma": sigmas}[sweep]
    raw = {
        "h": draw(st.integers(1, 3)),
        "w": draw(st.integers(1, 3)),
        "d": draw(st.integers(1, 60)),
        "alpha": draw(st.sampled_from([5e-324, 1e-300, 1e-12, 0.05, 0.5, 1.0 - 2.0**-53])
                      | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "n0": draw(st.integers(1, 2)),
        "seed": draw(st.sampled_from([0, 1, 2**64 - 1])),
        "nominal": nominal,
        "sample_sizes": draw(st.sampled_from(SIZE_KINDS)),
        "t_min": draw(t_mins),
        "delta": draw(deltas),
        "sigma": draw(sigmas if nominal == "discretized-normal" else st.none() | sigmas),
        "sweep": sweep,
        "grid": draw(st.lists(grid_values, min_size=1, max_size=2)),
        "rules": draw(st.lists(st.sampled_from(RULE_NAMES), min_size=1, max_size=4, unique=True)),
    }
    broken = draw(st.none() | st.sampled_from(BROKEN))
    return raw if broken is None else {**raw, broken[0]: broken[1]}


@settings(max_examples=300)
@given(small_configs())
# Equal nominal means in a row: sigma = 0.01 on two points puts each arc's
# mass on one point, and both arcs of the one path agree.
@example({"h": 1, "w": 1, "d": 2, "alpha": 0.05, "n0": 2, "seed": 5,
          "nominal": "discretized-normal", "sample_sizes": "binomial2", "t_min": 4,
          "delta": 2, "sigma": 0.01, "sweep": "delta", "grid": [0, 2],
          "rules": ["dro", "hoeffding"]})
def test_every_config_that_validates_runs(raw):
    """A config is either rejected by ``from_dict`` with ``ValueError`` or
    runs to the end, with finite losses and rho >= 1 - 1e-12."""
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ValueError:
        return
    for point in run_sweep(cfg):
        for rep in point.replicates:
            for outcome in rep.outcomes:
                assert math.isfinite(outcome.predicted) and math.isfinite(outcome.nominal)
                assert outcome.rho >= 1.0 - 1e-12
