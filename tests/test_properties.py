"""Property tests for the batched dual kernel and per-count calibration."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kldro.marginals import DataSet, Marginal, Support, pmf_means
from kldro.radius import RadiusInputs, radius_best, rate_from_alpha
from kldro.rules import calibrate_ambiguity, split_alpha
from kldro.worstcase import primal_oracle, solve_dual_batch

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
    data = DataSet((sup,) * len(sizes), tuple(np.ones(t) for t in sizes))
    spec = calibrate_ambiguity(data, alpha)
    alphas = split_alpha(alpha, sizes)
    t_min = min(sizes)
    rate = rate_from_alpha(alpha, t_min)
    for a, t in enumerate(sizes):
        inputs = RadiusInputs(t, d, len(sizes), t_min, float(alphas[a]), rate)
        radius, label = radius_best(inputs)
        assert spec.radii[a] == radius
        assert spec.labels[a] == label
