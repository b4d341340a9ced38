"""Property tests for the batched dual kernel, per-count calibration and
the array-first data path."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kldro.datagen import _inverse_cdf, draw_dataset, substream
from kldro.marginals import (
    DataSet,
    Marginal,
    PmfMatrix,
    Support,
    _absorb_rounding,
    _fsum_is_one,
    pmf_means,
)
from kldro.radius import RadiusInputs, radius_best, rate_from_alpha
from kldro import rules
from kldro.rules import JointEmpirical, calibrate_ambiguity, split_alpha
from kldro.worstcase import solve_dual_batch
from oracles import joint_atoms_reference, primal_oracle

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
       st.randoms(use_true_random=False))
def test_rows_bit_identical_alone_or_in_any_batch(rows, rnd):
    points = np.array([p for (p, _), _ in rows])
    probs = np.array([q for (_, q), _ in rows])
    r = np.array([r for _, r in rows])
    order = list(range(len(rows)))
    rnd.shuffle(order)
    batch = solve_dual_batch(points[order], probs[order], r[order], points[order, -1])
    for pos, k in enumerate(order):
        alone = solve_dual_batch(points[k:k + 1], probs[k:k + 1], r[k:k + 1], points[k:k + 1, -1])
        for field in ("beta", "value", "iterations", "log_offset"):
            assert getattr(batch, field)[pos] == getattr(alone, field)[0]


@settings(max_examples=60)
@given(pmfs(), st.lists(radii, min_size=2, max_size=6))
def test_value_between_mean_and_top_and_nondecreasing_in_radius(pmf, rs):
    points, probs = pmf
    rs = np.sort(np.array(rs))
    value = solve(np.tile(points, (len(rs), 1)), np.tile(probs, (len(rs), 1)), rs).value
    mean = float(pmf_means(points, probs))
    assert np.all(value >= mean) and np.all(value <= points[-1])
    assert np.all(np.diff(value) >= 0.0)


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
    oracle = primal_oracle(Marginal(Support(points), probs), r, grid=1e-3)
    assert oracle <= dual + 1e-9 * points[-1]
    assert dual - oracle <= 5e-3 * points[-1]


@settings(max_examples=60)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=120), st.integers(1, 50),
       st.floats(1e-4, 0.99))
def test_calibration_per_distinct_count_equals_per_arc_loop(sizes, d, alpha):
    sup = Support.integers(d)
    data = DataSet(sup, np.zeros(sum(sizes), dtype=int), np.array(sizes))
    spec = calibrate_ambiguity(data, alpha)
    alphas = split_alpha(alpha, sizes)
    t_min = min(sizes)
    rate = rate_from_alpha(alpha, t_min)
    for a, t in enumerate(sizes):
        inputs = RadiusInputs(t, d, len(sizes), t_min, float(alphas[a]), rate)
        radius, label = radius_best(inputs)
        assert spec.radii[a] == radius
        assert spec.labels[a] == label


@settings(max_examples=40)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=60),
       st.lists(st.integers(1, 50), min_size=3, max_size=3), st.floats(1e-4, 0.99))
def test_calibration_keys_separate_support_sizes(sizes, dims, alpha):
    """The same counts on supports of different sizes get each support's own
    radii, and ``radius_best`` runs once per distinct (T_a, alpha_a): the
    arc whose share absorbed the rounding counts apart."""
    alphas = split_alpha(alpha, sizes)
    t_min = min(sizes)
    rate = rate_from_alpha(alpha, t_min)
    for d in dims:
        data = DataSet(Support.integers(d), np.zeros(sum(sizes), dtype=int), np.array(sizes))
        with mock.patch.object(rules, "radius_best", side_effect=radius_best) as calls:
            spec = calibrate_ambiguity(data, alpha)
        assert calls.call_count == len(set(zip(sizes, alphas.tolist())))
        for a, t in enumerate(sizes):
            radius, label = radius_best(RadiusInputs(t, d, len(sizes), t_min, float(alphas[a]), rate))
            assert spec.radii[a] == radius
            assert spec.labels[a] == label


@st.composite
def calibration_blocks(draw):
    """Data sets on two support sizes whose count vectors repeat, some of
    them truncated; each is its own object, so only equal counts can share."""
    dims = draw(st.lists(st.integers(1, 50), min_size=2, max_size=2))
    vectors = draw(st.lists(st.lists(st.integers(1, 30), min_size=1, max_size=30),
                            min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(vectors) - 1), st.integers(0, 1),
                                    st.booleans()), min_size=1, max_size=12))
    datas = []
    for vector, dim, truncated in picks:
        sizes = np.array(vectors[vector])
        data = DataSet(Support.integers(dims[dim]), np.zeros(sizes.sum(), dtype=int), sizes)
        datas.append(rules.truncate_dataset(data) if truncated else data)
    return datas


@settings(max_examples=60)
@given(calibration_blocks(), st.floats(1e-4, 0.99))
def test_block_calibration_shares_specs_and_solves_each_input_once(datas, alpha):
    """``calibrate_ambiguities`` equals ``calibrate_ambiguity`` per data set
    bit for bit, hands equal (d, counts) one spec object, and runs
    ``radius_best`` once per distinct (d_a, actions, T_min, T_a, alpha_a)."""
    with mock.patch.object(rules, "radius_best", side_effect=radius_best) as calls:
        specs = rules.calibrate_ambiguities(datas, alpha)
    inputs = {(data.support.size, data.num_actions, data.t_min, t, alpha_a)
              for data in datas
              for t, alpha_a in zip(data.sizes.tolist(), split_alpha(alpha, data.sizes).tolist())}
    assert calls.call_count == len(inputs)
    keys = [(data.support.size, tuple(data.sizes.tolist())) for data in datas]
    for data, key, spec in zip(datas, keys, specs):
        alone = calibrate_ambiguity(data, alpha)
        assert np.array_equal(spec.radii, alone.radii) and spec.labels == alone.labels
        for other_key, other in zip(keys, specs):
            assert (other is spec) == (other_key == key)


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
    """The rational-arithmetic split: exact weights 1/T per distinct count,
    one float() rounding per share, then the same rounding absorption."""
    distinct, inverse, mult = np.unique(sizes, return_inverse=True, return_counts=True)
    weights = [Fraction(1, int(t)) for t in distinct]
    total = sum(int(k) * w for k, w in zip(mult, weights))
    out = np.array([float(Fraction(alpha) * w / total) for w in weights])[inverse.reshape(-1)]
    _absorb_rounding(out, alpha, int(np.argmin(out)))
    return out


@settings(max_examples=200)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=120),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_split_alpha_equals_rational_reference_and_sums_to_alpha(sizes, alpha):
    got = split_alpha(alpha, sizes)
    assert np.array_equal(got, split_alpha_with_fractions(alpha, sizes))
    assert math.fsum(got) == alpha


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
    nominal = PmfMatrix(Support.integers(probs.shape[1]), probs)
    assert len(nominal) == probs.shape[0]
    for a in range(len(nominal)):
        q = nominal[a]
        assert nominal.means[a] == q.mean()
        assert np.array_equal(q.probs, probs[a])


def rejection(make):
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


@settings(max_examples=60)
@given(pmf_matrices(), st.data(),
       st.sampled_from(["negative", "above one", "sum off", "extra column", "one row"]))
def test_pmf_matrix_rejects_what_marginal_rejects(probs, data, defect):
    m, d = probs.shape
    a = data.draw(st.integers(0, m - 1))
    k = data.draw(st.integers(0, d - 1))
    bad = probs.copy()
    if defect == "negative":
        bad[a, k] = -1e-3
    elif defect == "above one":
        bad[a, k] = 1.5
    elif defect == "sum off":
        bad[a, np.argmin(bad[a])] += 1e-11
    elif defect == "extra column":
        bad = np.hstack([bad, np.zeros((m, 1))])
    sup = Support.integers(d)
    if defect == "one row":
        message = rejection(lambda: PmfMatrix(sup, bad[a]))
        assert message == rejection(lambda: Marginal(sup, bad[a:a + 1]))
    else:
        message = rejection(lambda: PmfMatrix(sup, bad))
        assert message == rejection(lambda: Marginal(sup, bad[a]))


def count_rows(seed, rows):
    """Random count rows over supports of 1 to 50 points, T from 1 to 1024
    (and a few above, where fsum decides), as c / T pmf rows."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 51))
    sizes = rng.integers(1, 1025, size=rows)
    sizes[rng.random(rows) < 0.02] = 1025 + rng.integers(0, 5000)
    counts = np.array([rng.multinomial(t, rng.dirichlet(np.full(d, 0.3))) for t in sizes])
    return counts / sizes[:, None], sizes


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_exact_row_sum_test_equals_fsum(seed):
    pmf, sizes = count_rows(seed, 100)
    assert _fsum_is_one(pmf, sizes).tolist() == [math.fsum(row) == 1.0 for row in pmf.tolist()]


def test_exact_row_sum_test_sees_rows_off_one():
    off = 0
    for seed in range(40):
        pmf, sizes = count_rows(seed, 100)
        expected = [math.fsum(row) == 1.0 for row in pmf.tolist()]
        assert _fsum_is_one(pmf, sizes).tolist() == expected
        off += expected.count(False)
    assert off >= 5


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
