"""Worst-case expected cost over a relative-entropy ball.

The largest mean over pmfs within KL distance ``r`` of a pmf ``q`` on points
``z`` equals the minimum over ``beta >= top`` of the convex dual

    f(beta) = beta - e^{-r} prod_i (beta - z_i)^{q_i}

(the phi-divergence dual of Ben-Tal et al. 2013 and Hu & Hong 2013).  One
vectorized kernel, :func:`solve_dual_batch`, minimizes it for every row of a
weight matrix at once, on values given one row per weight row or as one
row that every weight row shares.  In the log offset u = ln(beta - top),
stationarity reads K(u) = r, where K(u), decreasing in u, is the relative
entropy from ``q`` of the tilted pmf proportional to q_i / (beta - z_i).  A
safeguarded Halley step on ln K(u) - ln r, bisecting whenever the step
leaves the bracket or stalls, finds the root in a few passes, even far
closer to the boundary than one ulp of beta.  The boundary minimum at
``beta = top`` and the zero radius are masks.  :func:`solve_dual` and
:func:`minimize_dual` are one-row calls of the kernel;
:func:`worst_case_pmfs` builds the maximizing pmfs of rows from
stationarity.  Envelope lemma: p = e^{-r} q + (1 - e^{-r}) delta_top lies in the
ball (KL(q || p) <= r), so the value is at least e^{-r} mean(q) + (1 - e^{-r}) top.

Each row starts from the expansion of K that fits it.  With gaps
g_i = top - z_i and t_i = g_i / e^u, K = L + ln B for L = sum q ln(1 + t)
and B = sum q / (1 + t); H_j = sum_{g>0} q / g^j.

* The top weighted, with q_top its weight, w = sum_{g>0} q the rest and
  S = sum_{g>0} q ln g: since ln(1 + t) >= ln t and B >= q_top,
  K(u) >= S + ln q_top - w u at every u, so u_deep = (S + ln q_top - r) / w
  is a proven lower end of the bracket.  Since ln(1 + t) <= ln t + 1/t and
  B <= q_top + e^u H1, K exceeds that line by at most e^u H1 (1 + 1/q_top),
  and the search starts at u_deep where that is at most r.
* The top unweighted: K rises to K_inf = S + ln H1 as u -> -inf, and
  K ~ K_inf - e^u (H2/H1 - H1) gives the start where its root has
  e^u H2/H1 <= 1/4.
* Otherwise the small-radius asymptote K ~ Var(g) e^{-2u} / 2.

Each pass takes the Halley step on ln K - ln r: the Newton step divided by
1 + step (ln K)'' / (2 (ln K)'), floored at 1/2 so that the step at most
doubles and never turns back.  The second derivative costs one more row
sum, the third q-moment of t/(1 + t) about its mean (see :func:`_tilt`).

The factors with q_i = 0 drop out of f, and an arc seen T times has at most
T observed points, so the kernel's elementwise work (the gaps, their logs,
the tilt, every q-weighted product) runs on the observed (q > 0) entries
only, found once per call in row-major order.  Each row sum adds a row's
observed products one after another in column order (``np.bincount``),
which is the sequential sum over the dense row from +0.0: adding a
zero-weight product, +0.0 or -0.0, changes no partial sum.  So every
output bit is the dense kernel's (``tests/oracles.py`` keeps it as the
reference), and zero-weight padding costs nothing.  It changes no bit of a
row's result either, as long as it does not lower the row's least value
(which bounds the root bracket), except where the dense row mean decides
the value: at r = 0, or where the value is clipped to the mean.

Converged rows stay in place: every pass runs over all Newton rows, and a
row's beta, value, iterations and log offset are those of the pass where
it first stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import PmfMatrix, pmf_means

__all__ = ["DualBatch", "DualSolution", "solve_dual_batch", "worst_case_pmfs", "minimize_dual",
           "solve_dual"]

# Offsets beta - top below e^-700 of the largest gap are beneath float
# resolution for any cost scale, so the root search looks no lower.
_LOG_SPAN = 700.0
# A tiny Newton step ends a row only where |ln K - ln r| <= this (true stops
# read ~1e-12); far below the root V is rounding noise and the step ~1e-121.
_NEWTON_STOP = 1e-6
_MAX_ITERATIONS = 200
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class DualBatch:
    """Per-row minimizers of the dual.  ``log_offset`` is ln(beta - lower):
    -inf when the minimum sits on the boundary, +inf at radius zero."""

    beta: np.ndarray
    value: np.ndarray
    iterations: np.ndarray
    log_offset: np.ndarray


@dataclass(frozen=True)
class DualSolution:
    beta: float
    value: float
    iterations: int
    primal: PmfMatrix


def _tilt(log_gaps, q, u, row):
    """Row sums of the tilted pmf at log offsets ``u``.

    Elementwise work runs on the observed entries only: ``log_gaps`` and
    ``q`` are theirs and ``row`` their rows, in row-major order.  With
    t_i = g_i / e^u, one exp gives t and one division 1/(1 + t), whose
    product is t/(1 + t); one log1p gives the softplus ln(1 + t).  Offsets
    stay above the largest gap less 700 in logs, so t is finite.
    L = sum q ln(1 + t) and the complementary masses A = sum q t/(1 + t),
    B = sum q/(1 + t) are each free of cancellation, and K = L + ln B
    (ln B as log1p(-A) while A < 1/2) is the relative entropy of the tilt.
    Since ln(1 + t) >= ln t and B is at least the weight on gap 0, K lies
    above the deep-side line of the module docstring.  V and M, the second
    and third q-moments of t/(1 + t) about A, give dK/du = -V / B and
    d2K/du2 = (V (2B - A) - 2M - V^2 / B) / B, from which the Halley step.
    """
    m = u.size
    t = np.exp(log_gaps - u[row])
    rest = 1.0 / (1.0 + t)
    share = t * rest
    big_l = np.bincount(row, q * np.log1p(t), m)
    big_a = np.bincount(row, q * share, m)
    big_b = np.bincount(row, q * rest, m)
    log_b = np.where(big_a < 0.5, np.log1p(-big_a), np.log(big_b))
    share -= big_a[row]
    qc2 = q * share * share
    return (big_l, big_l + log_b, big_a, big_b, np.bincount(row, qc2, m),
            np.bincount(row, qc2 * share, m))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_dual_batch(values, weights, radii, lower) -> DualBatch:
    """Minimize the dual for every row of ``values``/``weights`` at once.

    Each row of ``weights`` is a pmf on the matching row of ``values``
    (zero-weight entries are padding), or on the one row of a (1, k)
    ``values`` that every row shares, as broadcasting reads it; a shared
    row's largest and least value are taken once.  ``radii`` holds one ball
    radius per row and ``lower`` the bound beta >= lower, which must not be
    below the row's largest value.  Rows are solved independently: a row's
    result is bit-identical whatever other rows share the batch, whether
    its values are shared, and whatever the memory layout of the input.
    Values are clipped to [row mean, lower] to absorb rounding.  Raises
    ValueError on a negative weight or a row without a positive one,
    RuntimeError when a row fails to converge.

    Every log, exp, product and sum runs on the observed (q > 0) entries
    only, so zero-weight padding costs nothing there; the row means stay
    dense pairwise sums, since z * 0 can be -0.0.  Rows that converge stay
    in place under a ``live`` mask, and their results are those of the pass
    where they first stop.
    """
    z = np.asarray(values, dtype=float)
    q = np.asarray(weights, dtype=float)
    r = np.asarray(radii, dtype=float)
    top = np.asarray(lower, dtype=float)
    n = len(q) if q.ndim else 0
    if (q.ndim != 2 or z.ndim != 2 or z.shape[1:] != q.shape[1:] or len(z) not in (1, n)
            or r.shape != (n,) or top.shape != (n,)):
        raise ValueError("weights must be (rows, k) and values (rows, k) or (1, k), with one "
                         "radius and bound per row")
    shared = len(z) == 1  # one row of values for every row of weights
    # The means are pairwise only along rows whose elements are adjacent in
    # memory; rows already laid out so (broadcast ones too) are not copied.
    z, q = (x if x.strides[1] == x.itemsize else np.ascontiguousarray(x) for x in (z, q))
    if not (r >= 0.0).all():
        raise ValueError("radius must be nonnegative")
    if not (q >= 0.0).all():
        raise ValueError("weights must be nonnegative")
    k = z.shape[1]
    at = np.flatnonzero(q > 0.0)  # places of the observed entries in row-major order
    row = at // k
    if not np.bincount(row, minlength=n).all():
        raise ValueError("every row of weights needs a positive weight")
    if (top < z.max(axis=1) - 1e-12).any():
        raise ValueError("beta_lower must not be below the largest value")
    mean = pmf_means(z, q)
    qs = q.reshape(-1)[at]
    col = at - row * k
    gaps = np.maximum(top[row] - (z[0].take(col) if shared else z[row, col]), 0.0)
    log_gaps = np.log(gaps)
    # As u -> -inf, K tends to ln GM(g) - ln HM(g) when the top carries no
    # weight (+inf otherwise); at or below r the minimum is beta = top.
    log_geo = np.bincount(row, qs * log_gaps, n)
    k_inf = log_geo + np.log(np.bincount(row, qs * np.exp(-log_gaps), n))
    spread = np.bincount(row, qs * gaps * gaps, n)
    zero = r == 0.0
    boundary = ~zero & ((k_inf <= r) | (spread == 0.0))

    u = np.where(boundary, -np.inf, np.inf)
    at_u = np.zeros(n)  # L at the final offset
    iterations = np.zeros(n, dtype=int)
    newton_rows = ~zero & ~boundary
    rows = np.flatnonzero(newton_rows)
    if rows.size:
        kept = newton_rows[row]  # the Newton rows' entries, on rows renumbered 0, 1, ...
        row = (np.cumsum(newton_rows) - 1)[row[kept]]
        lg, qs, gaps = log_gaps[kept], qs[kept], gaps[kept]
        m = rows.size
        live = np.ones(m, dtype=bool)
        rs, spread = r[rows], spread[rows]
        log_r = np.log(rs)
        # Deep side (see the module docstring): q_top is the weight on gap 0,
        # and S, w and H_j sum q ln g, q and q / g^j over the positive gaps.
        seen = gaps > 0.0
        qg, lgs = np.where(seen, qs, 0.0), np.where(seen, lg, 0.0)
        inv = np.exp(-lgs)
        q_top = np.bincount(row, qs - qg, m)
        h1 = np.bincount(row, qg * inv, m)
        h2 = np.bincount(row, qg * inv * inv, m)
        deep = (np.bincount(row, qg * lgs, m) + np.log(q_top) - rs) / np.bincount(row, qg, m)
        # K(u) >= S + ln q_top - w u, so K >= r at and below u_deep.  The
        # largest gap of a whole row, unobserved points too, is
        # max(top - min z, 0), since rounding is monotone.
        widest = np.log(np.maximum(top[rows] - (z if shared else z[rows]).min(axis=1), 0.0))
        lo = np.maximum(widest - _LOG_SPAN, deep)
        # K(u) <= E[g^2] e^{-2u}, so K < r/4 above hi.
        hi = np.maximum(0.5 * (np.log(spread) - log_r) + math.log(2.0), lo)
        # Small radius: K ~ Var(g) e^{-2u} / 2.
        g_mean = np.bincount(row, qs * gaps, m)
        us = 0.5 * (np.log(np.maximum(spread - g_mean * g_mean, 0.0)) - np.log(2.0 * rs))
        # Top unweighted: K ~ K_inf - e^u (H2/H1 - H1), for e^u H2/H1 <= 1/4.
        near = np.log((k_inf[rows] - rs) / (h2 / h1 - h1))
        us = np.where(np.exp(near) * h2 <= 0.25 * h1, near, us)
        # Top weighted: K(u_deep) <= r + e^u_deep H1 (1 + 1/q_top) <= 2r.
        us = np.where(np.exp(deep) * h1 * (1.0 + 1.0 / q_top) <= rs, deep, us)
        us = np.clip(us, lo, hi)
        step = hi - lo
        step_old = step
        for it in range(1, _MAX_ITERATIONS + 1):
            big_l, k_val, big_a, big_b, var, m3 = _tilt(lg, qs, us, row)
            above = k_val > rs
            lo = np.where(above, us, lo)
            hi = np.where(above, hi, us)
            # Newton on ln K - ln r, whose derivative is -V / (B K); Halley
            # divides its step by 1 + step * (ln K)'' / (2 (ln K)'), floored at
            # 1/2 so that the step at most doubles and never turns back.
            residual = np.log(k_val) - log_r
            newton = residual * k_val * big_b / var
            curve = big_a - 2.0 * big_b + 2.0 * m3 / var + var / big_b * (1.0 + 1.0 / k_val)
            halley = newton / np.maximum(1.0 + 0.5 * newton * curve, 0.5)
            tol = 4.0 * _EPS * np.maximum(1.0, np.abs(us))
            width = hi - lo
            done = (
                (np.abs(k_val - rs) <= 64.0 * _EPS * (2.0 * big_l - k_val + rs))
                | (width <= tol)
                | ((np.abs(newton) <= tol) & (np.abs(residual) <= _NEWTON_STOP))
            )
            stops = done & live
            if stops.any():
                fin = rows[stops]
                u[fin] = us[stops]
                at_u[fin] = big_l[stops]
                iterations[fin] = it
                live &= ~done
                if not live.any():
                    break
            nxt = us + halley
            size = np.abs(halley)
            take = (nxt > lo) & (nxt < hi) & (size <= 0.5 * step_old)
            half = 0.5 * width
            step_old = step
            step = np.where(take, size, half)
            us = np.where(take, nxt, lo + half)
        else:
            row = int(rows[live][0])
            raise RuntimeError(
                f"dual solve did not converge in {_MAX_ITERATIONS} iterations "
                f"(row {row}, r={float(r[row])!r}, top={float(top[row])!r})"
            )

    offset = np.exp(u)
    # f at beta = top + e^u, written as top - e^u (e^{L - r} - 1) so that
    # large offsets (small radii) keep full precision.
    interior = top - offset * np.expm1(at_u - r)
    value = np.where(zero, mean, np.where(boundary, top - np.exp(log_geo - r), interior))
    value = np.minimum(np.maximum(value, mean), top)
    return DualBatch(top + offset, value, iterations, u)


# bench/trace_layers.py wraps this function by name (as rules.minimize_dual).
def minimize_dual(values, weights, r: float, beta_lower: float | None = None):
    """Minimize the scalar dual objective over [beta_lower, inf).

    ``values``/``weights`` describe a pmf on a point set (an action's
    empirical pmf, or per-path realizations of a joint empirical).  Returns
    ``(beta, value, iterations)``.  For r = 0 the ball is a point and the
    minimum is the weighted mean, reached as beta -> inf.
    """
    top = float(np.max(values)) if beta_lower is None else float(beta_lower)
    sol = solve_dual_batch([values], [weights], [r], [top])
    return float(sol.beta[0]), float(sol.value[0]), int(sol.iterations[0])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def worst_case_pmfs(values, weights, radii, log_offset) -> np.ndarray:
    """Maximizing pmfs of rows solved with beta bounded below by each row's
    largest value, from the kernel's ``log_offset``: the weights at radius
    zero (+inf); inside, mass proportional to q_i / (beta - z_i), in logs;
    on the boundary (-inf), e^{-r} GM(g) q_i / g_i, with the leftover mass
    on the top.  Observed masses are floored at the smallest normal float,
    so a pmf stays inside the ball when they fall below the float range."""
    z, q = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    r, u = (np.asarray(x, dtype=float)[:, None] for x in (radii, log_offset))
    seen, log_q = q > 0.0, np.log(q)
    log_gaps = np.log(z.max(axis=1, keepdims=True) - z)
    logw = np.where(seen, log_q - np.logaddexp(0.0, log_gaps - u), -np.inf)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    interior = np.where(seen, np.maximum(w / np.sum(w, axis=1, keepdims=True), _TINY), 0.0)
    below = seen & (log_gaps > -np.inf)
    lg = np.where(below, log_gaps, 0.0)
    w = np.exp(-r + np.sum(q * lg, axis=1, keepdims=True) + log_q - lg)
    w = np.where(below, np.maximum(w, _TINY), 0.0)
    mass = np.sum(w, axis=1, keepdims=True)
    boundary = w / np.maximum(mass, 1.0)
    boundary[np.arange(len(z)), z.argmax(axis=1)] += 1.0 - np.minimum(mass[:, 0], 1.0)
    return np.where(u == np.inf, q, np.where(u == -np.inf, boundary, interior))


# bench/trace_layers.py wraps this function by name (as rules.solve_dual).
def solve_dual(empirical: PmfMatrix, r_a: float) -> DualSolution:
    """Worst-case expected cost of one pmf row over its KL ball.

    Returns the dual minimizer, the worst-case mean, the kernel's iteration
    count and the maximizing pmf as a one-row :class:`PmfMatrix`.
    """
    z, q = [empirical.support.points], [empirical.probs]
    sol = solve_dual_batch(z, q, [r_a], [z[0][-1]])
    primal = PmfMatrix(empirical.support, worst_case_pmfs(z, q, [r_a], sol.log_offset)[0])
    return DualSolution(float(sol.beta[0]), float(sol.value[0]), int(sol.iterations[0]), primal)
