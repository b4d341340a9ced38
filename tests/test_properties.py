"""Property tests for the batched dual kernel, per-count calibration, the
array-first data path and the block data set."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kldro.datagen import _inverse_cdf, draw_dataset, substream
from kldro.graphs import build_layered, route_costs
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
from oracles import dense_dual_batch, joint_atoms_reference, path_cost, primal_oracle

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
    last k mod 8 columns, and inputs that are not C-contiguous."""
    rows = data.draw(st.lists(padded_rows(k), min_size=1, max_size=6))
    z, q, r, top = (np.array(x) for x in zip(*rows))
    if layout == "c" and data.draw(st.booleans()):
        z = np.broadcast_to(z[0], z.shape)  # one support for all rows
        top = np.maximum(top, z[0].max())
    want = dense_dual_batch(z, q, r, top)
    got = solve_dual_batch(laid_out(z, layout), laid_out(q, layout), r, top)
    for field in ("beta", "value", "iterations", "log_offset"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@settings(max_examples=60)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=120), st.integers(1, 50),
       st.floats(1e-4, 0.99))
def test_calibration_per_distinct_count_equals_per_arc_loop(sizes, d, alpha):
    sup = Support.integers(d)
    data = DataSet(sup, np.zeros(sum(sizes), dtype=int), np.array(sizes))
    radii = calibrate_ambiguity(data, alpha)
    [(_, labels)] = rules.calibrate_ambiguities([data], alpha)
    alphas = split_alpha(alpha, sizes)
    t_min = min(sizes)
    rate = rate_from_alpha(alpha, t_min)
    for a, t in enumerate(sizes):
        inputs = RadiusInputs(t, d, len(sizes), t_min, float(alphas[a]), rate)
        radius, label = radius_best(inputs)
        assert radii[a] == radius
        assert labels[a] == label


@settings(max_examples=40)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=60),
       st.lists(st.integers(1, 50), min_size=3, max_size=3), st.floats(1e-4, 0.99))
def test_calibration_keys_separate_support_sizes(sizes, dims, alpha):
    """The same counts on supports of different sizes get each support's own
    radii, and one ``radius_best`` call evaluates each distinct (T_a,
    alpha_a) once: the arc whose share absorbed the rounding counts apart."""
    alphas = split_alpha(alpha, sizes)
    t_min = min(sizes)
    rate = rate_from_alpha(alpha, t_min)
    for d in dims:
        data = DataSet(Support.integers(d), np.zeros(sum(sizes), dtype=int), np.array(sizes))
        with mock.patch.object(rules, "radius_best", side_effect=radius_best) as calls:
            [(radii, labels)] = rules.calibrate_ambiguities([data], alpha)
        assert calls.call_count == 1
        assert np.size(calls.call_args.args[0].T_a) == len(set(zip(sizes, alphas.tolist())))
        for a, t in enumerate(sizes):
            radius, label = radius_best(RadiusInputs(t, d, len(sizes), t_min, float(alphas[a]), rate))
            assert radii[a] == radius
            assert labels[a] == label


@st.composite
def calibration_blocks(draw):
    """Blocks of count rows on one support, the rows repeating within and
    across blocks, some blocks truncated; and the support size."""
    d = draw(st.integers(1, 50))
    m = draw(st.integers(1, 30))
    vectors = draw(st.lists(st.lists(st.integers(1, 30), min_size=m, max_size=m),
                            min_size=1, max_size=4))
    picks = st.lists(st.integers(0, len(vectors) - 1), min_size=1, max_size=4)
    datas = []
    for rows, truncated in draw(st.lists(st.tuples(picks, st.booleans()), min_size=1, max_size=4)):
        sizes = np.array([vectors[k] for k in rows])
        data = DataSet.stacked(Support.integers(d), np.zeros(sizes.sum(), dtype=int), sizes)
        datas.append(rules.truncate_dataset(data) if truncated else data)
    return datas, d


@settings(max_examples=60)
@given(calibration_blocks(), st.floats(1e-4, 0.99))
def test_block_calibration_shares_specs_and_solves_each_input_once(blocks, alpha):
    """``calibrate_ambiguities`` equals ``calibrate_ambiguity`` on every
    row alone, bit for bit, so equal rows share their radii, and one
    ``radius_best`` call evaluates each distinct (T_min, T_a, alpha_a) of
    all rows once."""
    datas, d = blocks
    with mock.patch.object(rules, "radius_best", side_effect=radius_best) as calls:
        found = rules.calibrate_ambiguities(datas, alpha)
    rows = [row for data in datas for row in data.sizes.tolist()]
    inputs = {(min(row), t, alpha_a)
              for row in rows for t, alpha_a in zip(row, split_alpha(alpha, row).tolist())}
    assert calls.call_count == 1
    assert np.size(calls.call_args.args[0].T_a) == len(inputs)
    radii = np.concatenate([r for r, _ in found])
    labels = np.concatenate([lab for _, lab in found])
    for row, row_radii, row_labels in zip(rows, radii, labels):
        one = DataSet(Support.integers(d), np.zeros(sum(row), dtype=int), np.array(row))
        assert np.array_equal(row_radii, calibrate_ambiguity(one, alpha))
        assert row_labels.tolist() == rules.calibrate_ambiguities([one], alpha)[0][1].tolist()


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


# Counts on 5 points whose pmf row c / 22 does not fsum to 1, so the
# smallest observed entry must absorb the rounding.
OFF_ONE_COUNTS = (0, 0, 1, 6, 15)


@st.composite
def ragged_blocks(draw):
    """A block of 1 to 6 replicates on one support of 1, 2, 5 or 50 points:
    rows of unequal counts, rows whose counts are all equal (truncation is
    the identity there), rows with counts above 1024 (where fsum decides
    the row sum) and, on 5 points, rows whose pmf needs the fix-up."""
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
    return DataSet.stacked(Support(0.5 + np.cumsum(steps)), np.concatenate(index),
                           np.array(sizes))


@settings(max_examples=60)
@given(ragged_blocks(), st.floats(1e-4, 0.99))
def test_a_block_equals_its_rows_bit_for_bit(block, alpha):
    """Every block step equals the one-replicate call on each row: pmf,
    means, split, Hoeffding slack, truncation, joint atoms and probabilities,
    and calibrated radii and labels."""
    support = block.support
    ends = np.cumsum(block.sizes.sum(axis=1))
    truncated = rules.truncate_dataset(block)
    trunc_ends = np.cumsum(truncated.sizes.sum(axis=1))
    atoms, probs, counts = rules._joint_atoms(block)
    owner = np.repeat(np.arange(len(counts)), counts)
    [(radii, labels)] = rules.calibrate_ambiguities([block], alpha)
    slack = rules.hoeffding_slack(block, alpha)
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
        assert np.array_equal(support.points[atoms[owner == k]], joint.atoms)
        assert np.array_equal(probs[owner == k], joint.probs)
        assert np.array_equal(probs[owner == k], joint_atoms_reference(one)[1])
        assert np.array_equal(radii[k], calibrate_ambiguity(one, alpha))
        assert labels[k].tolist() == rules.calibrate_ambiguities([one], alpha)[0][1].tolist()


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
