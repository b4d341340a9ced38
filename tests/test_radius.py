import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import kldro.radius
from kldro.graphs import build_layered
from kldro.marginals import Support
from kldro.radius import (
    _log_mardia_sum,
    RadiusInputs,
    mardia_constant,
    radius_agrawal,
    radius_baseline,
    radius_best,
    radius_mardia,
    rate_from_alpha,
)
from kldro.rules import dro_prescribe
from oracles import dataset_from_costs


def inputs(T_a, d_a, A=1, T_min=None, alpha_a=0.5, rate=1.0):
    return RadiusInputs(T_a, d_a, A, T_a if T_min is None else T_min, alpha_a, rate)


def agrawal_lhs(r, d, T):
    return ((math.e / (d - 1)) * r * T) ** (d - 1) * math.exp(-r * T)


def test_rate_from_alpha():
    assert rate_from_alpha(math.exp(-1), 1) == pytest.approx(1.0, rel=1e-15)
    # -ln(0.05)/20, frozen from a 50-digit evaluation
    assert rate_from_alpha(0.05, 20) == pytest.approx(0.14978661367769955, rel=1e-15)
    assert rate_from_alpha(1 - 1e-12, 5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        rate_from_alpha(1.0, 5)
    with pytest.raises(ValueError):
        rate_from_alpha(0.0, 5)


def test_baseline_direct_substitution():
    assert radius_baseline(inputs(1, 1, A=1, rate=math.log(2))) == pytest.approx(
        2 * math.log(2), rel=1e-15
    )
    # (ln 2 + 2 ln 5 + 4) / 4, frozen from a 50-digit evaluation
    assert radius_baseline(inputs(4, 2, A=2, rate=1.0)) == pytest.approx(
        1.9780057513570365, rel=1e-14
    )
    got = radius_baseline(
        RadiusInputs(25, 50, 24, 20, 0.5, rate_from_alpha(0.05, 20))
    )
    assert got == pytest.approx(6.7631445201990416, rel=1e-14)


def test_agrawal_hand_checked_root():
    # lhs(r=2; d=2, T=1) = 2 e * e^{-2} = 2/e exactly
    r = radius_agrawal(inputs(1, 2, alpha_a=2 / math.e))
    assert r == pytest.approx(2.0, rel=1e-12)


def test_agrawal_root_matches_independent_bisection():
    # independent oracle: plain bisection on the raw lhs, no log tricks
    d, T, alpha = 2, 10, 0.05
    lo, hi = (d - 1) / T + 1e-15, (d - 1) / T + 1.0
    while agrawal_lhs(hi, d, T) > alpha:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if agrawal_lhs(mid, d, T) > alpha:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    got = radius_agrawal(inputs(T, d, alpha_a=alpha))
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(0.5743864518390578, rel=1e-12)
    assert abs(agrawal_lhs(got, d, T) - alpha) <= 1e-9 * alpha


def test_agrawal_boundary_as_alpha_tends_to_one():
    r = radius_agrawal(inputs(5, 3, alpha_a=1 - 1e-12))
    assert r == pytest.approx((3 - 1) / 5, rel=1e-5)


def test_agrawal_resubstitution_across_grid():
    for T in range(2, 201, 7):
        for d in (2, 5, 17, 50):
            r = radius_agrawal(inputs(T, d, alpha_a=0.05))
            lhs = (d - 1) * (1 + math.log(r * T) - math.log(d - 1)) - r * T
            assert abs(math.exp(lhs) - 0.05) <= 1e-8 * 0.05


def test_agrawal_degenerate_support_returns_zero():
    assert radius_agrawal(inputs(5, 1)) == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_agrawal_matches_the_series_root_as_alpha_tends_to_one(d):
    # x - log1p(x) = c inverts to x = s + s^2/3 + s^3/36 - s^4/270 + O(s^5),
    # s = sqrt(2c), whose dropped terms are far below 1e-16 of x here
    T = 10**4
    for gap in (1e-8, 1e-9, 3e-10, 1e-12):
        alpha = 1.0 - gap
        s = math.sqrt(2.0 * -math.log(alpha) / (d - 1))
        x = s + s**2 / 3 + s**3 / 36 - s**4 / 270
        assert radius_agrawal(inputs(T, d, alpha_a=alpha)) == pytest.approx(
            (d - 1) * (1 + x) / T, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [2, 5, 50, 50**24], ids=["2", "5", "50", "50**24"])
def test_agrawal_on_arrays_equals_scalar_calls_bit_for_bit(d):
    rng = np.random.default_rng(17)
    alphas = np.concatenate([np.geomspace(1e-12, 0.5, 20), 1.0 - np.geomspace(1e-9, 0.5, 20)])
    alphas = rng.permutation(np.concatenate([alphas, alphas[::3]]))  # repeats share a root
    T = rng.integers(1, 10**4, size=alphas.size)
    got = radius_agrawal(RadiusInputs(T, d, 1, np.ones_like(T), alphas, 1.0))
    alone = [radius_agrawal(RadiusInputs(int(t), d, 1, 1, float(a), 1.0))
             for t, a in zip(T, alphas)]
    assert got.shape == T.shape and np.array_equal(got, alone)


def test_agrawal_at_and_beyond_the_float_range_of_the_support():
    # near the top of the float range x < 1e-150 vanishes beside 1, even
    # where ln(1/alpha)/(d - 1) is subnormal or underflows to 0
    for d in (3 * 10**296, 10**298, 10**308, 17 * 10**307):
        for alpha in (0.05, 1.0 - 1e-12, 1.0 - 2.0**-52, 1.0 - 2.0**-53):
            assert radius_agrawal(inputs(7, d, alpha_a=alpha)) == float(d - 1) / 7
    assert radius_agrawal(inputs(5, 10**400)) == math.inf
    big = RadiusInputs(np.array([5, 9]), 10**400, 1, np.array([5, 9]), np.array([0.05, 0.5]), 1.0)
    assert np.array_equal(radius_agrawal(big), [math.inf, math.inf])
    assert radius_best(big)[1].tolist() == ["mardia", "mardia"]


def test_agrawal_raises_naming_the_input_when_newton_does_not_converge(monkeypatch):
    monkeypatch.setattr(kldro.radius, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match=r"d_a=7, alpha_a=0\.05"):
        radius_agrawal(inputs(5, 7, alpha_a=0.05))


def test_wallis_products():
    # u_2 = pi/2, u_3 = 4/3, K_1 = u_0 u_1 = 2 pi show up in the d=4, T=2
    # constant: C = (12/pi)(1 + u_0 x + u_0 u_1 x^2) for x = e sqrt(T)/(2 pi)
    x = math.e * math.sqrt(2) / (2 * math.pi)
    expected = (12 / math.pi) * (1 + math.pi * x + 2 * math.pi * x**2)
    assert mardia_constant(4, 2) == pytest.approx(expected, rel=1e-12)


def test_mardia_d2_constant_and_radius():
    assert mardia_constant(2, 10) == pytest.approx(12 / math.pi, rel=1e-13)
    got = radius_mardia(inputs(10, 2, alpha_a=0.05))
    # (ln(12/pi) + ln 20)/10, frozen from a 50-digit evaluation
    assert got == pytest.approx(0.4335909037492591, rel=1e-13)


def test_mardia_decreasing_in_alpha():
    lo = radius_mardia(inputs(10, 5, alpha_a=0.20))
    hi = radius_mardia(inputs(10, 5, alpha_a=0.01))
    assert lo < hi


def test_mardia_rejects_undefined_inputs():
    with pytest.raises(ValueError):
        radius_mardia(inputs(1, 3))
    with pytest.raises(ValueError):
        radius_mardia(inputs(5, 1))
    with pytest.raises(ValueError):
        mardia_constant(2, 1)


def test_mardia_huge_support_truncates():
    # the joint-ball case: support size d^m is astronomical but the partial
    # sum converges, so this must return quickly with a finite value
    r = radius_mardia(inputs(10, 10**24, alpha_a=0.05))
    assert 0 < r < 10


def test_cached_mardia_sum_equals_uncached_bit_for_bit():
    # includes the joint balls of the 3x3 (24 arcs) and 7x4 (104 arcs) graphs
    for d in (2, 3, 4, 10, 50, 1000, 50**24, 50**104):
        for T in (2, 3, 5, 10, 35, 1000):
            assert _log_mardia_sum(d, T) == _log_mardia_sum.__wrapped__(d, T)
            assert _log_mardia_sum(d, T) == _log_mardia_sum.__wrapped__(d, T)  # cache hit


def test_best_degenerate_support_uses_baseline_only():
    value, label = radius_best(inputs(5, 1))
    assert label == "baseline"
    assert value == radius_baseline(inputs(5, 1))


def test_best_is_minimum_of_applicable():
    rng = np.random.default_rng(5)
    for _ in range(100):
        T = int(rng.integers(2, 120))
        d = int(rng.integers(2, 40))
        inp = inputs(T, d, A=int(rng.integers(1, 30)), alpha_a=float(rng.uniform(1e-4, 0.5)))
        value, label = radius_best(inp)
        cands = {
            "baseline": radius_baseline(inp),
            "agrawal": radius_agrawal(inp),
            "mardia": radius_mardia(inp),
        }
        assert value <= radius_baseline(inp)
        assert value == min(cands.values())
        assert cands[label] == value


def test_best_paper_scale_prefers_improved_bound():
    inp = RadiusInputs(25, 50, 24, 20, 0.05 / 24, rate_from_alpha(0.05, 20))
    value, label = radius_best(inp)
    assert label in ("agrawal", "mardia")
    assert value < radius_baseline(inp)


def test_all_radii_strictly_decreasing_in_T():
    for d in (2, 7, 50):
        for fn in (radius_baseline, radius_agrawal, radius_mardia):
            values = [
                fn(RadiusInputs(T, d, 24, T, 0.002, rate_from_alpha(0.05, T)))
                for T in range(2, 201)
            ]
            diffs = np.diff(values)
            assert np.all(diffs < 0), f"{fn.__name__} not decreasing for d={d}"


def test_baseline_radii_reproduce_union_bound_chain():
    # with the baseline radii, sum_a (T_a+1)^{d_a} e^{-T_a r_a} equals
    # e^{-T_min rate} exactly, checked in log space
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        T = rng.integers(1, 60, size=m)
        d = rng.integers(1, 50, size=m)
        t_min = int(T.min())
        rate = rate_from_alpha(float(rng.uniform(0.01, 0.5)), t_min)
        log_terms = []
        for a in range(m):
            r_a = radius_baseline(RadiusInputs(int(T[a]), int(d[a]), m, t_min, 0.5, rate))
            log_terms.append(d[a] * math.log(T[a] + 1) - T[a] * r_a)
        assert logsumexp(log_terms) <= -t_min * rate + 1e-9


def test_ambiguity_spec_validation():
    # The radii are a plain array, checked where the rules use them.
    g = build_layered(1, 2)
    data = dataset_from_costs(Support.integers(3), [[1, 2], [2, 2], [1, 3], [3, 3]])
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            dro_prescribe(data, np.array([0.1, bad, 0.1, 0.1]), g)
    assert dro_prescribe(data, np.full(g.num_arcs, math.inf), g).arc_costs.tolist() == [3.0] * 4
    for wrong in ([0.1], np.full(g.num_arcs + 1, 0.1)):
        with pytest.raises(ValueError, match="one radius per action is required"):
            dro_prescribe(data, wrong, g)
    with pytest.raises(ValueError):
        RadiusInputs(5, 2, 1, 6, 0.5, 1.0)
    with pytest.raises(ValueError):
        RadiusInputs(5, 2, 1, 5, 1.5, 1.0)


def test_mixed_scalar_and_array_inputs_equal_the_scalar_calls():
    # A scalar T_a next to an array alpha_a is broadcast to the array's shape.
    alphas = [0.05, 0.1]
    got = radius_best(RadiusInputs(5, 3, 1, 5, np.array(alphas), 1.0))
    alone = [radius_best(RadiusInputs(5, 3, 1, 5, alpha, 1.0)) for alpha in alphas]
    assert got[0].tolist() == [r for r, _ in alone]
    assert got[1].tolist() == [label for _, label in alone]
    for bound in (radius_baseline, radius_agrawal, radius_mardia):
        mixed = bound(RadiusInputs(5, 3, 1, 5, np.array(alphas), 1.0))
        assert mixed.tolist() == [bound(RadiusInputs(5, 3, 1, 5, a, 1.0)) for a in alphas]


def radius_best_in_full(inp):
    """The minimum of every applicable bound, each computed in full."""
    candidates = [(radius_baseline(inp), "baseline")]
    if inp.d_a >= 2:
        candidates.append((radius_agrawal(inp), "agrawal"))
        if inp.T_a >= 2:
            candidates.append((radius_mardia(inp), "mardia"))
    return min(candidates, key=lambda c: c[0])


@pytest.mark.parametrize("d, T", [(2, 2), (2, 3000), (2, 10**4), (3, 2), (3, 10**4)])
def test_best_equals_full_search_next_to_the_agrawal_mardia_crossing(d, T):
    # Bisect alpha to where the two bounds cross, then probe alphas within
    # 4e-9 (relative) on either side: the array minimum must pick the same
    # radius and label as the scalar bounds compared one by one there.
    def agrawal_wins(alpha):
        inp = inputs(T, d, alpha_a=alpha)
        return radius_agrawal(inp) <= radius_mardia(inp)

    lo, hi = 1e-12, 1.0 - 1e-9
    assert not agrawal_wins(lo) and agrawal_wins(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if agrawal_wins(mid) else (mid, hi)
    probes = [np.nextafter(lo, 0.0), lo, hi, np.nextafter(hi, 1.0)]
    probes += [lo * (1.0 + k * 1e-11) for k in range(-400, 401)]
    labels = set()
    for alpha in probes:
        inp = inputs(T, d, alpha_a=float(alpha))
        got = radius_best(inp)
        assert got == radius_best_in_full(inp)
        labels.add(got[1])
    assert labels == {"agrawal", "mardia"}


# Supports from 2 to 50**9 points, counts from 1 to 1e4, both weighted
# towards small values, where every bound can win.
supports = st.one_of(st.integers(2, 60), st.integers(2, 50**9))
counts = st.one_of(st.integers(1, 30), st.integers(1, 10**4))
budgets = st.floats(1e-12, 1.0 - 1e-9)

# Each bound must reach the floor ln(d/T) when d > T: for q uniform on d
# points, KL(q_hat || q) = ln d - H(q_hat) >= ln(d/T) on every draw of T.
floor_inputs = st.builds(
    lambda T, extra, m, t_min_share, alpha: RadiusInputs(
        T, T + extra, m, max(1, round(t_min_share * T)), alpha,
        rate_from_alpha(alpha, max(1, round(t_min_share * T)))),
    counts, st.one_of(st.integers(1, 60), st.integers(1, 50**9)), st.integers(1, 1000),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=150)
@given(floor_inputs)
def test_baseline_and_agrawal_reach_the_floor_when_d_exceeds_T(inp):
    floor = math.log(inp.d_a / inp.T_a)
    assert radius_baseline(inp) >= floor
    assert radius_agrawal(inp) >= floor


@pytest.mark.xfail(strict=True, reason="the Mardia bound falls below the floor: d=50, T=5, "
                                       "alpha=0.05 gives 1.816 < ln(10) = 2.303")
@settings(max_examples=150)
@given(floor_inputs)
@example(RadiusInputs(5, 50, 1, 5, 0.05, rate_from_alpha(0.05, 5)))
def test_best_reaches_the_floor_when_d_exceeds_T(inp):
    assert radius_best(inp)[0] >= math.log(inp.d_a / inp.T_a)


LABELLED = [  # (T_a, d_a, num_actions, alpha_a) and the bound that wins
    ((1, 2, 1, 1e-6), "baseline"),
    ((1, 2, 10, 0.5), "agrawal"),
    ((2, 2, 1, 0.05), "mardia"),
]


@pytest.mark.parametrize("args, label", LABELLED)
def test_best_labelled_examples(args, label):
    T, d, m, alpha = args
    inp = RadiusInputs(T, d, m, T, alpha, rate_from_alpha(alpha, T))
    assert radius_best(inp) == radius_best_in_full(inp)
    assert radius_best(inp)[1] == label


@settings(max_examples=150)
@given(counts, supports, st.integers(1, 1000), st.floats(0.0, 1.0), budgets, budgets)
def test_best_equals_full_search(T, d, m, t_min_share, alpha_a, alpha):
    t_min = max(1, round(t_min_share * T))
    inp = RadiusInputs(T, d, m, t_min, alpha_a, rate_from_alpha(alpha, t_min))
    assert radius_best(inp) == radius_best_in_full(inp)


@settings(max_examples=40)
@given(supports, st.floats(1e-12, 0.99), st.integers(1, 1000), st.integers(1, 30),
       st.lists(counts, min_size=2, max_size=4))
@example(2, 0.05, 1, 1, [1, 2, 10**4])
@example(50**9, 1e-12, 104, 5, [5, 6, 10**4])
def test_radii_nonincreasing_in_T(d, alpha_a, m, t_min, extra):
    """With T_min and the number of actions held fixed; <= rather than <,
    since a bound that overflows reads inf at every T."""
    rate = rate_from_alpha(alpha_a, t_min)
    Ts = sorted(t_min + e - 1 for e in extra)
    bounds = [radius_baseline, radius_agrawal, lambda inp: radius_best(inp)[0]]
    if Ts[0] >= 2:
        bounds.append(radius_mardia)
    for fn in bounds:
        values = [fn(RadiusInputs(T, d, m, t_min, alpha_a, rate)) for T in Ts]
        assert all(b <= a for a, b in zip(values, values[1:])), (fn, Ts, values)


def kl_tail_exact(q, T, radius):
    """P(KL(q_hat || q) > radius) for q_hat the empirical pmf of T i.i.d.
    draws from q, summed exactly over every type (count vector) of T."""
    d = len(q)
    grid = np.indices((T + 1,) * (d - 1)).reshape(d - 1, -1).T
    grid = grid[grid.sum(axis=1) <= T]
    counts = np.column_stack([grid, T - grid.sum(axis=1)])
    log_prob = (gammaln(T + 1) - gammaln(counts + 1).sum(axis=1)
                + (counts * np.log(q)).sum(axis=1))
    share = counts / T
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(counts > 0, share * np.log(share / q), 0.0).sum(axis=1)
    return float(np.exp(log_prob[kl > radius]).sum())


EXACT_TAIL_ALPHAS = (0.05, 0.2)


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform q", "skewed q"])
def test_bounds_cover_exactly_on_small_supports(skewed):
    """Each single-action bound at confidence alpha leaves an exact tail
    mass P(KL(q_hat || q) > r) <= alpha for every d <= 5 and T <= 20 (Mardia's
    from T = 2, where it applies)."""
    worst = 0.0
    for d in range(2, 6):
        q = np.array([0.55, 0.25, 0.12, 0.05, 0.03])[:d] if skewed else np.full(d, 1.0)
        q = q / q.sum()
        for T in range(1, 21):
            for alpha in EXACT_TAIL_ALPHAS:
                inp = RadiusInputs(T, d, 1, T, alpha, rate_from_alpha(alpha, T))
                bounds = [radius_baseline, radius_agrawal] + [radius_mardia] * (T >= 2)
                for bound in bounds:
                    tail = kl_tail_exact(q, T, bound(inp))
                    assert tail <= alpha, (bound.__name__, d, T, alpha, tail)
                    worst = max(worst, tail / alpha)
    assert worst > 0.0  # some bound leaves a tail: the check is not vacuous
