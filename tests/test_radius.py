import math

import numpy as np
import pytest
from scipy.special import logsumexp

from kldro.radius import (
    AmbiguitySpec,
    _log_mardia_sum,
    RadiusInputs,
    mardia_constant,
    radius_agrawal,
    radius_baseline,
    radius_best,
    radius_mardia,
    rate_from_alpha,
)


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
    spec = AmbiguitySpec.manual([0.0, 0.5])
    assert spec.labels == ("manual", "manual")
    assert spec.num_actions == 2
    with pytest.raises(ValueError):
        AmbiguitySpec(np.array([-0.1]), ("manual",))
    with pytest.raises(ValueError):
        AmbiguitySpec(np.array([0.1]), ("bogus",))
    with pytest.raises(ValueError):
        RadiusInputs(5, 2, 1, 6, 0.5, 1.0)
    with pytest.raises(ValueError):
        RadiusInputs(5, 2, 1, 5, 1.5, 1.0)
