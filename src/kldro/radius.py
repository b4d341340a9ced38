"""Calibration of per-action relative-entropy ball radii.

Three interchangeable finite-sample bounds turn a sample count, a support
size and a confidence budget into a ball radius: a method-of-types bound
(always applicable), a moment-generating-function bound that reduces in
closed form to one scalar root per support size and confidence, divided by
the count, and a partial-sum bound with Wallis-product coefficients.  The
smallest applicable estimate wins.

Every bound takes counts T_a and budgets alpha_a as scalars or arrays and
returns radii of their broadcast shape; its logarithms stay ``math`` calls
per input, which ``np.log`` may miss by an ulp, so a radius is the same
alone or in an array.  ``radius_best`` checks its inputs once and runs the
bounds once per distinct (T_a, alpha_a).  The rules take radii as a plain
array, one per action.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["radius_baseline", "radius_agrawal", "radius_mardia", "radius_best",
           "mardia_constant"]

_LABELS = ("baseline", "agrawal", "mardia")


def _each(fn, values) -> np.ndarray:
    """``fn``, a scalar function, of every entry of ``values``."""
    return np.array(list(map(fn, np.ravel(values).tolist()))).reshape(np.shape(values))


def radius_baseline(T_a, d_a: int, num_actions: int, alpha: float):
    """Method-of-types radius, applicable for any support size, with the
    budget ``alpha`` split by a union bound over ``num_actions`` actions:
    (ln |A| + d_a ln(T_a + 1) + ln(1/alpha)) / T_a."""
    try:
        d = float(d_a)
    except OverflowError:
        return np.full(np.shape(T_a), math.inf)
    d_term = d * _each(math.log, np.add(T_a, 1))
    return (math.log(num_actions) + d_term - math.log(alpha)) / T_a


# (x - log1p(x)) / x^2 = sum_k (-x)^k / (k + 2), in Horner order
_SERIES = tuple(1.0 / (k + 2) for k in range(15, -1, -1))
_NEWTON_STEPS = 100


def _agrawal_x(d_a: int, alpha_a: float) -> float:
    """The x > 0 with x - log1p(x) = c = ln(1/alpha_a)/(d_a - 1), by Newton's
    method from the series inversion x ~ s + s^2/3, s = sqrt(2c).

    f(x) = x - log1p(x) is convex and increasing, so Newton converges from
    any x > 0, quadratically: once a step is within 1e-12 of x, x is at
    float noise.  Below x = 0.05 the difference cancels, so f is x^2 times
    its series there.
    """
    log_inv = -math.log(alpha_a)
    c = log_inv / (d_a - 1)
    s = math.sqrt(2.0 * log_inv) / math.sqrt(d_a - 1)
    if s < 1e-100:  # x = s (1 + s/3 + ...) = s; c and x * x may be subnormal
        return s
    x = s + s * s / 3.0
    for _ in range(_NEWTON_STEPS):
        if x < 0.05:
            g = 0.0
            for coef in _SERIES:
                g = g * -x + coef
            f = x * x * g
        else:
            f = x - math.log1p(x)
        step = (f - c) * (1.0 + x) / x
        x -= step
        if abs(step) <= 1e-12 * x:
            return x
    raise RuntimeError(f"radius_agrawal: Newton's method did not converge "
                       f"(d_a={d_a}, alpha_a={alpha_a})")


def radius_agrawal(T_a, d_a: int, alpha_a):
    """Radius from the mgf bound: the root above (d-1)/T of the tail
    equation ((e/(d-1)) r T)^(d-1) e^{-rT} = alpha_a.

    With r T = (d-1)(1 + x) the equation reduces to x - log1p(x) =
    ln(1/alpha_a)/(d-1), free of T, so r = (d-1)(1 + x)/T_a for one root
    x per distinct alpha_a (:func:`_agrawal_x`).
    """
    try:
        d_m1 = float(d_a - 1)
    except OverflowError:  # a support too large for floats: never the minimum
        d_m1 = math.inf
    if d_m1 in (0.0, math.inf):  # radius 0 at d = 1: the marginal is known exactly
        return np.full(np.broadcast_shapes(np.shape(T_a), np.shape(alpha_a)), d_m1)
    alphas = np.ravel(alpha_a).tolist()
    roots = {a: _agrawal_x(d_a, a) for a in set(alphas)}
    x = np.array([roots[a] for a in alphas]).reshape(np.shape(alpha_a))
    return d_m1 * (1.0 + x) / T_a


@functools.cache
def _log_mardia_sum(d_a: int, T_a: int) -> float:
    """ln of sum_{j=0}^{d-2} K_{j-1} (e sqrt(T)/(2 pi))^j, in log space.

    Terms rise and then decay super-geometrically; accumulation stops once a
    term falls below 1e-300 relative significance, so even astronomically
    large support sizes cost only a bounded number of terms.  A pure function
    of two ints, cached: a sweep meets only a few distinct (d_a, T_a).
    """
    log_x = 1.0 + 0.5 * math.log(T_a) - math.log(2.0 * math.pi)
    log_total = 0.0  # j = 0 term is K_{-1} = 1
    log_term = 0.0
    # u_0 = pi, u_1 = 2, u_i = u_{i-2} (i-1)/i
    u_im2, u_im1 = math.pi, 2.0
    cutoff = math.log(1e-300)
    j = 1
    while j <= d_a - 2:
        i = j - 1  # term j carries the factor u_{j-1}
        if i == 0:
            u = math.pi
        elif i == 1:
            u = 2.0
        else:
            u = u_im2 * (i - 1) / i
            u_im2, u_im1 = u_im1, u
        log_term += math.log(u) + log_x
        log_total = np.logaddexp(log_total, log_term)
        if log_term - log_total < cutoff:
            break
        j += 1
    return float(log_total)


def mardia_constant(d_a: int, T_a: int) -> float:
    """The pre-exponential constant of the partial-sum tail bound."""
    if d_a < 2 or T_a < 2:
        raise ValueError("mardia bound requires d_a >= 2 and T_a >= 2")
    # 3 u_1 / u_2 = 12 / pi
    return math.exp(math.log(12.0 / math.pi) + _log_mardia_sum(d_a, T_a))


def radius_mardia(T_a, d_a: int, alpha_a):
    """Radius from the Wallis-product partial-sum bound (d_a, T_a >= 2)."""
    if d_a < 2 or (np.asarray(T_a) < 2).any():
        raise ValueError("mardia bound requires d_a >= 2 and T_a >= 2")
    log_c = math.log(12.0 / math.pi) + _each(functools.partial(_log_mardia_sum, d_a), T_a)
    return (log_c - _each(math.log, alpha_a)) / T_a


def radius_best(T_a, d_a: int, num_actions: int, alpha_a, alpha: float):
    """Minimum of the applicable bounds and the winner's label, two arrays
    shaped like the broadcast T_a and alpha_a; ties go to the earlier of
    baseline, agrawal, mardia.  ``alpha_a`` is each action's budget and
    ``alpha`` the one the baseline splits over ``num_actions``.

    The inputs are checked here, since the command line passes them on
    unchecked.  One lexsort finds the distinct (T_a, alpha_a), and each
    bound runs once on those.
    """
    T_a, alpha_a = np.broadcast_arrays(T_a, alpha_a)
    if (T_a < 1).any() or d_a < 1 or num_actions < 1:
        raise ValueError("T_a, d_a and num_actions must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not ((0.0 < alpha_a) & (alpha_a < 1.0)).all():
        raise ValueError("alpha_a must lie in (0, 1)")
    T, alphas = T_a.ravel(), alpha_a.ravel()
    order = np.lexsort((alphas, T))
    new = np.ones(order.size, dtype=bool)  # where a distinct input starts, in sorted order
    new[1:] = (T[order[1:]] != T[order[:-1]]) | (alphas[order[1:]] != alphas[order[:-1]])
    T, alphas = T[order[new]], alphas[order[new]]
    candidates = [radius_baseline(T, d_a, num_actions, alpha)]
    if d_a >= 2:
        candidates += [radius_agrawal(T, d_a, alphas),
                       np.where(T >= 2, radius_mardia(np.maximum(T, 2), d_a, alphas), math.inf)]
    distinct = np.empty(order.size, dtype=np.intp)
    distinct[order] = np.cumsum(new) - 1
    # argmin takes the first least radius: ties go to the earlier label
    stacked = np.stack(candidates)[:, distinct].reshape(-1, *T_a.shape)
    return stacked.min(axis=0), np.array(_LABELS)[stacked.argmin(axis=0)]
