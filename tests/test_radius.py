import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logsumexp

import kldro.radius
from kldro.graphs import build_layered
from kldro.marginals import DataSet, PmfMatrix, Support
from kldro.radius import (
    _log_mardia_sum,
    radius_agrawal,
    radius_baseline,
    radius_best,
    radius_mardia,
)
from kldro.rules import (calibrate_ambiguity, dro_prescribe, hoeffding_costs, hoeffding_slack,
                         truncate_dataset, worst_case_costs)
from oracles import (dataset_from_costs, exact_disappointment, one_sided_miss_probability,
                     type_block, type_probabilities, worst_case_rows)


def best(T_a, d_a, num_actions, alpha_a, alpha):
    """``radius_best`` on one input, as a (radius, label) pair of scalars."""
    radius, label = radius_best(T_a, d_a, num_actions, alpha_a, alpha)
    assert radius.shape == label.shape == ()
    return radius.item(), label.item()


def agrawal_lhs(r, d, T):
    return ((math.e / (d - 1)) * r * T) ** (d - 1) * math.exp(-r * T)


def test_baseline_direct_substitution():
    assert radius_baseline(1, 1, 1, 0.5) == pytest.approx(2 * math.log(2), rel=1e-15)
    # (ln 2 + 2 ln 5 + 4) / 4, frozen from a 50-digit evaluation
    assert radius_baseline(4, 2, 2, math.exp(-4.0)) == pytest.approx(
        1.9780057513570365, rel=1e-14
    )
    # (ln 24 + 50 ln 26 + ln 20) / 25
    assert radius_baseline(25, 50, 24, 0.05) == pytest.approx(6.7631445201990416, rel=1e-14)


def test_agrawal_hand_checked_root():
    # lhs(r=2; d=2, T=1) = 2 e * e^{-2} = 2/e exactly
    r = radius_agrawal(1, 2, 2 / math.e)
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
    got = radius_agrawal(T, d, alpha)
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(0.5743864518390578, rel=1e-12)
    assert abs(agrawal_lhs(got, d, T) - alpha) <= 1e-9 * alpha


def test_agrawal_boundary_as_alpha_tends_to_one():
    r = radius_agrawal(5, 3, 1 - 1e-12)
    assert r == pytest.approx((3 - 1) / 5, rel=1e-5)


def test_agrawal_resubstitution_across_grid():
    for T in range(2, 201, 7):
        for d in (2, 5, 17, 50):
            r = radius_agrawal(T, d, 0.05)
            lhs = (d - 1) * (1 + math.log(r * T) - math.log(d - 1)) - r * T
            assert abs(math.exp(lhs) - 0.05) <= 1e-8 * 0.05


def test_agrawal_degenerate_support_returns_zero():
    assert radius_agrawal(5, 1, 0.5) == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_agrawal_matches_the_series_root_as_alpha_tends_to_one(d):
    # x - log1p(x) = c inverts to x = s + s^2/3 + s^3/36 - s^4/270 + O(s^5),
    # s = sqrt(2c), whose dropped terms are far below 1e-16 of x here
    T = 10**4
    for gap in (1e-8, 1e-9, 3e-10, 1e-12):
        alpha = 1.0 - gap
        s = math.sqrt(2.0 * -math.log(alpha) / (d - 1))
        x = s + s**2 / 3 + s**3 / 36 - s**4 / 270
        assert radius_agrawal(T, d, alpha) == pytest.approx(
            (d - 1) * (1 + x) / T, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [2, 5, 50, 50**24], ids=["2", "5", "50", "50**24"])
def test_agrawal_on_arrays_equals_scalar_calls_bit_for_bit(d):
    rng = np.random.default_rng(17)
    alphas = np.concatenate([np.geomspace(1e-12, 0.5, 20), 1.0 - np.geomspace(1e-9, 0.5, 20)])
    alphas = rng.permutation(np.concatenate([alphas, alphas[::3]]))  # repeats share a root
    T = rng.integers(1, 10**4, size=alphas.size)
    got = radius_agrawal(T, d, alphas)
    alone = [radius_agrawal(int(t), d, float(a)) for t, a in zip(T, alphas)]
    assert got.shape == T.shape and np.array_equal(got, alone)


def test_agrawal_at_and_beyond_the_float_range_of_the_support():
    # near the top of the float range x < 1e-150 vanishes beside 1, even
    # where ln(1/alpha)/(d - 1) is subnormal or underflows to 0
    for d in (3 * 10**296, 10**298, 10**308, 17 * 10**307):
        for alpha in (0.05, 1.0 - 1e-12, 1.0 - 2.0**-52, 1.0 - 2.0**-53):
            assert radius_agrawal(7, d, alpha) == float(d - 1) / 7
    assert radius_agrawal(5, 10**400, 0.5) == math.inf
    T, alphas = np.array([5, 9]), np.array([0.05, 0.5])
    assert np.array_equal(radius_agrawal(T, 10**400, alphas), [math.inf, math.inf])
    assert radius_best(T, 10**400, 1, alphas, 0.05)[1].tolist() == ["mardia", "mardia"]


def test_agrawal_raises_naming_the_input_when_newton_does_not_converge(monkeypatch):
    monkeypatch.setattr(kldro.radius, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match=r"d_a=7, alpha_a=0\.05"):
        radius_agrawal(5, 7, 0.05)


def test_wallis_products():
    # u_2 = pi/2, u_3 = 4/3, K_1 = u_0 u_1 = 2 pi show up in the d=4, T=2
    # constant: C = (12/pi)(1 + u_0 x + u_0 u_1 x^2) for x = e sqrt(T)/(2 pi)
    x = math.e * math.sqrt(2) / (2 * math.pi)
    expected = (12 / math.pi) * (1 + math.pi * x + 2 * math.pi * x**2)
    assert _log_mardia_sum(4, 2) == pytest.approx(math.log(expected * math.pi / 12), rel=1e-12)


def test_mardia_d2_constant_and_radius():
    assert _log_mardia_sum(2, 10) == 0.0  # C = 12/pi: the sum is its j = 0 term
    got = radius_mardia(10, 2, 0.05)
    # (ln(12/pi) + ln 20)/10, frozen from a 50-digit evaluation
    assert got == pytest.approx(0.4335909037492591, rel=1e-13)


def test_mardia_decreasing_in_alpha():
    lo = radius_mardia(10, 5, 0.20)
    hi = radius_mardia(10, 5, 0.01)
    assert lo < hi


def test_mardia_rejects_undefined_inputs():
    with pytest.raises(ValueError):
        radius_mardia(1, 3, 0.5)
    with pytest.raises(ValueError):
        radius_mardia(5, 1, 0.5)


def test_mardia_huge_support_truncates():
    # the joint-ball case: support size d^m is astronomical but the partial
    # sum converges, so this must return quickly with a finite value
    r = radius_mardia(10, 10**24, 0.05)
    assert 0 < r < 10


def test_cached_mardia_sum_equals_uncached_bit_for_bit():
    # includes the joint balls of the 3x3 (24 arcs) and 7x4 (104 arcs) graphs
    for d in (2, 3, 4, 10, 50, 1000, 50**24, 50**104):
        for T in (2, 3, 5, 10, 35, 1000):
            assert _log_mardia_sum(d, T) == _log_mardia_sum.__wrapped__(d, T)
            assert _log_mardia_sum(d, T) == _log_mardia_sum.__wrapped__(d, T)  # cache hit


def test_best_degenerate_support_uses_baseline_only():
    value, label = best(5, 1, 1, 0.5, math.exp(-5.0))
    assert label == "baseline"
    assert value == radius_baseline(5, 1, 1, math.exp(-5.0))


def test_best_is_minimum_of_applicable():
    rng = np.random.default_rng(5)
    for _ in range(100):
        T = int(rng.integers(2, 120))
        d = int(rng.integers(2, 40))
        m, alpha_a, alpha = int(rng.integers(1, 30)), float(rng.uniform(1e-4, 0.5)), math.exp(-T)
        value, label = best(T, d, m, alpha_a, alpha)
        cands = {
            "baseline": radius_baseline(T, d, m, alpha),
            "agrawal": radius_agrawal(T, d, alpha_a),
            "mardia": radius_mardia(T, d, alpha_a),
        }
        assert value <= cands["baseline"]
        assert value == min(cands.values())
        assert cands[label] == value


def test_best_paper_scale_prefers_improved_bound():
    value, label = best(25, 50, 24, 0.05 / 24, 0.05)
    assert label in ("agrawal", "mardia")
    assert value < radius_baseline(25, 50, 24, 0.05)


def test_all_radii_strictly_decreasing_in_T():
    T = np.arange(2, 201)
    for d in (2, 7, 50):
        for name, values in [("baseline", radius_baseline(T, d, 24, 0.05)),
                             ("agrawal", radius_agrawal(T, d, 0.002)),
                             ("mardia", radius_mardia(T, d, 0.002))]:
            assert np.all(np.diff(values) < 0), f"{name} not decreasing for d={d}"


def test_baseline_radii_reproduce_union_bound_chain():
    # with the baseline radii, sum_a (T_a+1)^{d_a} e^{-T_a r_a} equals
    # alpha exactly, checked in log space
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        T = rng.integers(1, 60, size=m)
        d = rng.integers(1, 50, size=m)
        alpha = float(rng.uniform(0.01, 0.5))
        log_terms = []
        for a in range(m):
            r_a = radius_baseline(int(T[a]), int(d[a]), m, alpha)
            log_terms.append(d[a] * math.log(T[a] + 1) - T[a] * r_a)
        assert logsumexp(log_terms) <= math.log(alpha) + 1e-9


def test_ambiguity_spec_validation():
    # The radii are a plain array, checked where the rules use them.
    g = build_layered(1, 2)
    data = dataset_from_costs(Support.integers(3), [[1, 2], [2, 2], [1, 3], [3, 3]])
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            dro_prescribe(data, np.array([0.1, bad, 0.1, 0.1]), g)
    top = worst_case_costs(data.support, data.pmf, np.full(g.num_arcs, math.inf))
    assert top.tolist() == [3.0] * 4
    for wrong in ([0.1], np.full(g.num_arcs + 1, 0.1)):
        with pytest.raises(ValueError, match="one radius per action is required"):
            dro_prescribe(data, wrong, g)
    # radius_best checks the inputs of the bounds, as the CLI passes them
    for bad in [(0, 2, 1, 0.5, 0.5), (np.array([5, 0]), 2, 1, 0.5, 0.5), (5, 0, 1, 0.5, 0.5),
                (5, 2, 0, 0.5, 0.5)]:
        with pytest.raises(ValueError, match="T_a, d_a and num_actions must be >= 1"):
            radius_best(*bad)
    for alpha_a in (0.0, 1.5, math.nan, np.array([0.5, 1.0])):
        with pytest.raises(ValueError, match=r"alpha_a must lie in \(0, 1\)"):
            radius_best(5, 2, 1, alpha_a, 0.5)
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            radius_best(5, 2, 1, 0.5, alpha)


def test_mixed_scalar_and_array_inputs_equal_the_scalar_calls():
    # A scalar T_a next to an array alpha_a is broadcast to the array's shape.
    alphas = [0.05, 0.1]
    got = radius_best(5, 3, 1, np.array(alphas), math.exp(-5.0))
    alone = [best(5, 3, 1, alpha, math.exp(-5.0)) for alpha in alphas]
    assert got[0].tolist() == [r for r, _ in alone]
    assert got[1].tolist() == [label for _, label in alone]
    for bound in (radius_agrawal, radius_mardia):
        mixed = bound(5, 3, np.array(alphas))
        assert mixed.tolist() == [bound(5, 3, a) for a in alphas]
    # the baseline's only per-action input is T_a
    assert radius_baseline(np.array([5, 7]), 3, 1, 0.05).tolist() == [
        radius_baseline(t, 3, 1, 0.05) for t in (5, 7)]


def radius_best_in_full(T_a, d_a, num_actions, alpha_a, alpha):
    """The minimum of every applicable bound, each computed in full."""
    candidates = [(float(radius_baseline(T_a, d_a, num_actions, alpha)), "baseline")]
    if d_a >= 2:
        candidates.append((float(radius_agrawal(T_a, d_a, alpha_a)), "agrawal"))
        if T_a >= 2:
            candidates.append((float(radius_mardia(T_a, d_a, alpha_a)), "mardia"))
    return min(candidates, key=lambda c: c[0])


@pytest.mark.parametrize("d, T", [(2, 2), (2, 3000), (2, 10**4), (3, 2), (3, 10**4)])
def test_best_equals_full_search_next_to_the_agrawal_mardia_crossing(d, T):
    # Bisect alpha to where the two bounds cross, then probe alphas within
    # 4e-9 (relative) on either side: the array minimum must pick the same
    # radius and label as the scalar bounds compared one by one there.  One
    # action, so the baseline's budget is the action's.
    def agrawal_wins(alpha):
        return radius_agrawal(T, d, alpha) <= radius_mardia(T, d, alpha)

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
        args = (T, d, 1, float(alpha), float(alpha))
        got = best(*args)
        assert got == radius_best_in_full(*args)
        labels.add(got[1])
    assert labels == {"agrawal", "mardia"}


# Supports from 2 to 50**9 points, counts from 1 to 1e4, both weighted
# towards small values, where every bound can win.
supports = st.one_of(st.integers(2, 60), st.integers(2, 50**9))
counts = st.one_of(st.integers(1, 30), st.integers(1, 10**4))
budgets = st.floats(1e-12, 1.0 - 1e-9)

# Each bound must reach the floor ln(d/T) when d > T: for q uniform on d
# points, KL(q_hat || q) = ln d - H(q_hat) >= ln(d/T) on every draw of T.
# Inputs are (T_a, d_a, num_actions, alpha), with alpha_a = alpha.
floor_inputs = st.builds(
    lambda T, extra, m, alpha: (T, T + extra, m, alpha),
    counts, st.one_of(st.integers(1, 60), st.integers(1, 50**9)), st.integers(1, 1000),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=150)
@given(floor_inputs)
def test_baseline_and_agrawal_reach_the_floor_when_d_exceeds_T(inp):
    T, d, m, alpha = inp
    floor = math.log(d / T)
    assert radius_baseline(T, d, m, alpha) >= floor
    assert radius_agrawal(T, d, alpha) >= floor


@pytest.mark.xfail(strict=True, reason="the Mardia bound falls below the floor: d=50, T=5, "
                                       "alpha=0.05 gives 1.816 < ln(10) = 2.303")
@settings(max_examples=150)
@given(floor_inputs)
@example((5, 50, 1, 0.05))
def test_best_reaches_the_floor_when_d_exceeds_T(inp):
    T, d, m, alpha = inp
    assert best(T, d, m, alpha, alpha)[0] >= math.log(d / T)


LABELLED = [  # (T_a, d_a, num_actions, alpha_a) and the bound that wins
    ((1, 2, 1, 1e-6), "baseline"),
    ((1, 2, 10, 0.5), "agrawal"),
    ((2, 2, 1, 0.05), "mardia"),
]


@pytest.mark.parametrize("args, label", LABELLED)
def test_best_labelled_examples(args, label):
    T, d, m, alpha = args
    assert best(T, d, m, alpha, alpha) == radius_best_in_full(T, d, m, alpha, alpha)
    assert best(T, d, m, alpha, alpha)[1] == label


@settings(max_examples=150)
@given(counts, supports, st.integers(1, 1000), budgets, budgets)
def test_best_equals_full_search(T, d, m, alpha_a, alpha):
    assert best(T, d, m, alpha_a, alpha) == radius_best_in_full(T, d, m, alpha_a, alpha)


@settings(max_examples=40)
@given(supports, st.floats(1e-12, 0.99), st.integers(1, 1000), st.integers(1, 30),
       st.lists(counts, min_size=2, max_size=4))
@example(2, 0.05, 1, 1, [1, 2, 10**4])
@example(50**9, 1e-12, 104, 5, [5, 6, 10**4])
def test_radii_nonincreasing_in_T(d, alpha_a, m, t_min, extra):
    """With the budgets and the number of actions held fixed, over counts
    from ``t_min`` up; <= rather than <, since a bound that overflows reads
    inf at every T."""
    Ts = sorted(t_min + e - 1 for e in extra)
    bounds = {"baseline": lambda T: radius_baseline(T, d, m, alpha_a),
              "agrawal": lambda T: radius_agrawal(T, d, alpha_a),
              "best": lambda T: best(T, d, m, alpha_a, alpha_a)[0]}
    if Ts[0] >= 2:
        bounds["mardia"] = lambda T: radius_mardia(T, d, alpha_a)
    for name, fn in bounds.items():
        values = [fn(T) for T in Ts]
        assert all(b <= a for a, b in zip(values, values[1:])), (name, Ts, values)


def kl_tail_exact(q, T, radius):
    """P(KL(q_hat || q) > radius) for q_hat the empirical pmf of T i.i.d.
    draws from q, summed exactly over every type (count vector) of T."""
    counts, probs = type_probabilities(q, T)
    share = counts / T
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(counts > 0, share * np.log(share / q), 0.0).sum(axis=1)
    return float(probs[kl > radius].sum())


def test_type_enumeration_is_the_multinomial():
    """Every composition of T into d parts once, with probabilities that
    fsum to 1 (exact zeros in the pmf too); for d = 2 the binomial pmf."""
    for q, T in (([0.3, 0.7], 1), ([0.2, 0.0, 0.8], 6), (np.full(5, 0.2), 20)):
        counts, probs = type_probabilities(q, T)
        assert (counts.sum(axis=1) == T).all() and counts.min() >= 0
        assert len(np.unique(counts, axis=0)) == len(counts) == math.comb(T + len(q) - 1, T)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    counts, probs = type_probabilities([0.3, 0.7], 9)
    assert probs == pytest.approx(stats.binom.pmf(counts[:, 1], 9, 0.7), rel=1e-12)


def one_sided_pmfs(d):
    """Uniform, 0.9 at the bottom, 0.9 at the top, one with an exact zero,
    and three Dirichlet(0.3) draws from a fixed seed."""
    rest = np.full(d - 1, 0.1 / (d - 1))
    return [np.full(d, 1.0 / d), np.r_[0.9, rest], np.r_[rest, 0.9],
            np.r_[0.0, np.full(d - 1, 1.0 / (d - 1))],
            *np.random.default_rng(21).dirichlet(np.full(d, 0.3), size=3)]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_best_radius_bounds_the_one_sided_miss_exactly(d):
    """dro disappoints on an arc only if its worst-case mean U falls below
    the true mean mu.  At today's radius for one action seen T times, the
    exact P(U < mu), summed over every type of T draws, is at most alpha_a."""
    worst = 0.0
    for q in one_sided_pmfs(d):
        for T in (1, 2, 3, 5, 10, 20):
            for alpha_a in (0.05, 0.2, 0.5):
                r, _ = best(T, d, 1, alpha_a, alpha_a)
                miss = one_sided_miss_probability(np.arange(1.0, d + 1.0), q, T, r)
                assert miss <= alpha_a, (q.tolist(), T, alpha_a, miss)
                worst = max(worst, miss / alpha_a)
    assert worst > 0.0  # some type misses: the check is not vacuous


def test_one_sided_miss_obeys_the_mixture_bound_up_to_a_thousand_draws():
    """The one-sided bound P(U < mu) <= 2 (T + 1) e^{-T r}, for any radius
    r, checked exactly: at d = 2 the types of T draws are binomial, so the
    enumeration reaches T = 1000."""
    worst = 0.0
    for q in one_sided_pmfs(2):
        for T in (10, 100, 1000):
            for r in (0.01, 0.05, 0.2, 0.5):
                assert T * r <= 500  # e^{-T r} stays a normal float
                miss = one_sided_miss_probability([1.0, 2.0], q, T, r)
                bound = 2 * (T + 1) * math.exp(-T * r)
                assert miss <= bound, (q.tolist(), T, r, miss, bound)
                worst = max(worst, miss / bound)
    assert worst > 0.0  # some type misses: the check is not vacuous


@pytest.mark.parametrize("d", [2, 3])
def test_one_arc_rule_miss_equals_the_one_sided_miss_exactly(d):
    """On one arc the rule path's P(U < mu), with every type of T draws a
    row of a one-action block solved by ``worst_case_costs`` at today's
    radius, equals the oracle's exact one-sided miss, to the bit."""
    support = Support.integers(d)
    missed = 0
    for q in one_sided_pmfs(d):
        mu = PmfMatrix(support, q).means
        for T in (1, 2, 3, 5, 10, 20):
            arc = type_block(support, T, q)
            for alpha_a in (0.05, 0.2, 0.5):
                r, _ = best(T, d, 1, alpha_a, alpha_a)
                [upper] = worst_case_rows([arc], [r])
                miss = math.fsum(arc[1][upper < mu])
                assert miss == one_sided_miss_probability(support.points, q, T, r), (
                    q.tolist(), T, alpha_a)
                missed += miss > 0.0
    assert missed  # some type misses: the check is not vacuous


@pytest.mark.parametrize("d, arcs", [pytest.param(2, 2, id="2"), pytest.param(3, 2, id="3"),
                                     pytest.param(5, 2, id="5"),
                                     pytest.param(2, 3, id="2-three-arcs")])
def test_one_path_disappointment_is_at_most_alpha_exactly(d, arcs):
    """On the one-path graph, two or three arcs seen unequal numbers of
    times, summed exactly over every combination of the arcs' types at the
    radii and slacks the rules calibrate: dro, dro2 and hoeffding predict
    below the nominal loss with probability at most alpha, and dro does so
    with probability at most the sum of the arcs' one-sided misses
    P(U_a < mu_a)."""
    g, support = build_layered(arcs - 1, 1), Support.integers(d)
    pmfs = one_sided_pmfs(d)
    worst = dict.fromkeys(("dro", "dro2", "hoeffding"), 0.0)
    for k in range(len(pmfs)):
        nominal = PmfMatrix(support, np.stack([pmfs[(k + j) % len(pmfs)] for j in range(arcs)]))
        means = nominal.means
        for sizes in ((1, 4, 2), (3, 2, 5), (5, 9, 7)):
            sizes = sizes[:arcs]
            data = DataSet(support, np.zeros(sum(sizes), dtype=int), np.array(sizes))
            cut = truncate_dataset(data)  # dro2's data: T_min draws of each arc
            whole = [type_block(support, t, row) for t, row in zip(sizes, nominal.probs)]
            short = [type_block(support, t, row) for t, row in zip(cut.sizes, nominal.probs)]
            for alpha in (0.05, 0.2, 0.5):
                slack = hoeffding_slack(data, alpha)
                hoeffding = [hoeffding_costs(block, e)[:, 0] for (block, _), e in zip(whole, slack)]
                dro = worst_case_rows(whole, calibrate_ambiguity(data, alpha))
                dro2 = worst_case_rows(short, calibrate_ambiguity(cut, alpha))
                found = {"dro": exact_disappointment(g, dro, whole, means),
                         "dro2": exact_disappointment(g, dro2, short, means),
                         "hoeffding": exact_disappointment(g, hoeffding, whole, means)}
                misses = [math.fsum(p[u < mu]) for (_, p), u, mu in zip(whole, dro, means)]
                case = (nominal.probs.tolist(), sizes, alpha, found, misses)
                assert max(found.values()) <= alpha, case
                assert found["dro"] <= math.fsum(misses) * (1 + 1e-12), case
                for rule, value in found.items():
                    worst[rule] = max(worst[rule], value / alpha)
    assert worst["dro"] > 0.0 and worst["hoeffding"] > 0.0  # the check is not vacuous


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
                bounds = {"baseline": radius_baseline(T, d, 1, alpha),
                          "agrawal": radius_agrawal(T, d, alpha)}
                if T >= 2:
                    bounds["mardia"] = radius_mardia(T, d, alpha)
                for name, radius in bounds.items():
                    tail = kl_tail_exact(q, T, radius)
                    assert tail <= alpha, (name, d, T, alpha, tail)
                    worst = max(worst, tail / alpha)
    assert worst > 0.0  # some bound leaves a tail: the check is not vacuous
