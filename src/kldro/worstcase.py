"""Worst-case expected cost over a relative-entropy ball.

The largest mean over pmfs within KL distance ``r`` of a pmf ``q`` on points
``z`` equals the minimum over ``beta >= top`` of the convex dual

    f(beta) = beta - e^{-r} prod_i (beta - z_i)^{q_i}

(the phi-divergence dual of Ben-Tal et al. 2013 and Hu & Hong 2013).  One
vectorized kernel, :func:`solve_dual_batch`, minimizes it for every row of a
value/weight matrix at once.  In the log offset u = ln(beta - top),
stationarity reads K(u) = r, where K(u), decreasing in u, is the relative
entropy from ``q`` of the tilted pmf proportional to q_i / (beta - z_i).  A
safeguarded Newton step on ln K(u) - ln r, bisecting whenever Newton leaves
the bracket or stalls, finds the root even far closer to the boundary than
one ulp of beta.  The boundary minimum at ``beta = top`` and the zero radius
are masks.  :func:`solve_dual` and :func:`minimize_dual` are one-row calls
of the kernel; the maximizing pmf follows from stationarity.  A simplex
grid-search oracle verifies strong duality in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import Marginal, pmf_means

__all__ = ["DualBatch", "DualSolution", "dual_objective", "solve_dual_batch", "minimize_dual",
           "solve_dual", "primal_oracle"]

# Offsets beta - top below e^-700 of the largest gap are beneath float
# resolution for any cost scale, so the root search starts there.
_LOG_SPAN = 700.0
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
    primal: Marginal


def dual_objective(beta: float, empirical: Marginal, r_a: float) -> float:
    """beta - e^{-r} prod_i (beta - z_i)^{q_i}; factors with q_i = 0 drop out."""
    if r_a < 0.0:
        raise ValueError("radius must be nonnegative")
    z_top = empirical.support.max
    if beta < z_top:
        raise ValueError(f"beta={beta!r} below top support point {z_top!r}")
    seen = empirical.probs > 0.0
    diffs = beta - empirical.support.points[seen]
    if np.any(diffs <= 0.0):
        return beta  # the product vanishes on the boundary
    return beta - math.exp(-r_a + float(np.sum(empirical.probs[seen] * np.log(diffs))))


_rowsum = np.add.reduce  # called with axis=1: one pairwise sum per contiguous row


def _tilt(log_gaps: np.ndarray, q: np.ndarray, u: np.ndarray):
    """Row sums of the tilted pmf at log offsets ``u``.

    With t_i = g_i / e^u: L = sum q ln(1 + t) and the two complementary
    masses A = sum q t/(1 + t), B = sum q/(1 + t), each free of
    cancellation, so that K = L + ln(1 - A) is the relative entropy of the
    tilt; V, the q-variance of t/(1 + t), gives dK/du = -V / B.
    """
    y = log_gaps - u[:, None]
    soft = np.logaddexp(0.0, y)
    share = np.exp(y - soft)
    big_l = _rowsum(q * soft, axis=1)
    big_a = _rowsum(q * share, axis=1)
    big_b = _rowsum(q * np.exp(-soft), axis=1)
    log_b = np.where(big_a < 0.5, np.log1p(-big_a), np.log(big_b))
    share -= big_a[:, None]
    var = _rowsum(q * share * share, axis=1)
    return big_l, big_l + log_b, big_b, var


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_dual_batch(values, weights, radii, lower) -> DualBatch:
    """Minimize the dual for every row of ``values``/``weights`` at once.

    Each row of ``weights`` is a pmf on the matching row of ``values``
    (zero-weight entries are padding), ``radii`` holds one ball radius per
    row and ``lower`` the bound beta >= lower, which must not be below the
    row's largest value.  Rows are solved independently: a row's result is
    bit-identical whatever other rows share the batch.  Values are clipped
    to [row mean, lower] to absorb rounding.  Raises RuntimeError when a
    row fails to converge.
    """
    z = np.asarray(values, dtype=float)
    q = np.asarray(weights, dtype=float)
    r = np.asarray(radii, dtype=float)
    top = np.asarray(lower, dtype=float)
    n = z.shape[0]
    if z.ndim != 2 or q.shape != z.shape or r.shape != (n,) or top.shape != (n,):
        raise ValueError("values/weights must be (rows, k) with one radius and bound per row")
    if (r < 0.0).any():
        raise ValueError("radius must be nonnegative")
    if (top < z.max(axis=1) - 1e-12).any():
        raise ValueError("beta_lower must not be below the largest value")
    mean = pmf_means(z, q)
    gaps = np.maximum(top[:, None] - z, 0.0)
    log_gaps = np.log(gaps)
    # As u -> -inf, K tends to ln GM(g) - ln HM(g) when the top carries no
    # weight (+inf otherwise); at or below r the minimum is beta = top.
    seen_lg = np.where(q > 0.0, log_gaps, 0.0)
    log_geo = _rowsum(q * seen_lg, axis=1)
    k_inf = log_geo + np.log(_rowsum(q * np.exp(-seen_lg), axis=1))
    spread = _rowsum(q * gaps * gaps, axis=1)
    zero = r == 0.0
    boundary = ~zero & ((k_inf <= r) | (spread == 0.0))

    u = np.where(boundary, -np.inf, np.inf)
    at_u = np.zeros(n)  # L at the final offset
    iterations = np.zeros(n, dtype=int)
    rows = np.flatnonzero(~zero & ~boundary)
    if rows.size:
        lg, qs, rs = log_gaps[rows], q[rows], r[rows]
        lo = np.log(gaps[rows].max(axis=1)) - _LOG_SPAN
        # K(u) <= E[g^2] e^{-2u}, so K < r/4 above hi.
        hi = np.maximum(0.5 * (np.log(spread[rows]) - np.log(rs)) + math.log(2.0), lo)
        # First guess: the small-radius asymptote K ~ Var(g) e^{-2u} / 2.
        g_mean = _rowsum(qs * gaps[rows], axis=1)
        var_g = np.maximum(spread[rows] - g_mean * g_mean, 0.0)
        us = np.clip(0.5 * (np.log(var_g) - np.log(2.0 * rs)), lo, hi)
        step = hi - lo
        step_old = step.copy()
        for it in range(1, _MAX_ITERATIONS + 1):
            big_l, k_val, big_b, var = _tilt(lg, qs, us)
            above = k_val > rs
            lo = np.where(above, us, lo)
            hi = np.where(above, hi, us)
            # Newton on ln K - ln r, whose derivative is -V / (B K).
            newton = (np.log(k_val) - np.log(rs)) * k_val * big_b / var
            tol = 4.0 * _EPS * np.maximum(1.0, np.abs(us))
            done = (
                (np.abs(k_val - rs) <= 64.0 * _EPS * (2.0 * big_l - k_val + rs))
                | (hi - lo <= tol)
                | (np.abs(newton) <= tol)
            )
            if done.any():
                fin = rows[done]
                u[fin] = us[done]
                at_u[fin] = big_l[done]
                iterations[fin] = it
                keep = ~done
                rows, lg, qs, rs = rows[keep], lg[keep], qs[keep], rs[keep]
                us, lo, hi, newton = us[keep], lo[keep], hi[keep], newton[keep]
                step, step_old = step[keep], step_old[keep]
                if not rows.size:
                    break
            nxt = us + newton
            take = (nxt > lo) & (nxt < hi) & (np.abs(newton) <= 0.5 * step_old)
            half = 0.5 * (hi - lo)
            step_old = step
            step = np.where(take, np.abs(newton), half)
            us = np.where(take, nxt, lo + half)
        else:
            row = int(rows[0])
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


def _worst_case_pmf(empirical: Marginal, r: float, log_offset: float) -> Marginal:
    """Maximizing pmf from stationarity: observed points get mass
    proportional to q_i / (beta - z_i), evaluated in logs; masses below the
    float range are floored at the smallest normal float so the pmf stays
    inside the ball.  On the boundary with an unobserved top point the
    leftover mass rides on the top."""
    if log_offset == math.inf:
        return empirical
    qhat = empirical.probs
    gaps = empirical.support.max - empirical.support.points
    probs = np.zeros_like(qhat)
    if log_offset > -math.inf:
        seen = qhat > 0.0
        with np.errstate(divide="ignore"):
            log_gaps = np.log(gaps[seen])
        logw = np.log(qhat[seen]) - np.logaddexp(0.0, log_gaps - log_offset)
        w = np.exp(logw - logw.max())
        probs[seen] = np.maximum(w / np.sum(w), _TINY)
        return Marginal(empirical.support, probs)
    seen = (qhat > 0.0) & (gaps > 0.0)
    log_gaps = np.log(gaps[seen])
    w = np.exp(-r + float(np.sum(qhat[seen] * log_gaps)) + np.log(qhat[seen]) - log_gaps)
    s = float(np.sum(w))
    if s > 1.0:
        w = w / s
        s = 1.0
    probs[seen] = w
    probs[-1] += 1.0 - s
    return Marginal(empirical.support, probs)


def solve_dual(empirical: Marginal, r_a: float) -> DualSolution:
    """Worst-case expected cost of one action over its KL ball.

    Returns the dual minimizer, the worst-case mean, the kernel's iteration
    count and the maximizing pmf.
    """
    z = empirical.support.points
    sol = solve_dual_batch([z], [empirical.probs], [r_a], [z[-1]])
    return DualSolution(
        float(sol.beta[0]),
        float(sol.value[0]),
        int(sol.iterations[0]),
        _worst_case_pmf(empirical, r_a, float(sol.log_offset[0])),
    )


def _kl_to_rows(qhat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """KL(qhat || row) for each row, with the usual 0/inf conventions."""
    mask = qhat > 0.0
    with np.errstate(divide="ignore"):
        logs = np.log(rows[:, mask])
    terms = qhat[mask] * (np.log(qhat[mask]) - logs)
    out = np.sum(terms, axis=1)
    out[np.any(rows[:, mask] == 0.0, axis=1)] = np.inf
    return out


def primal_oracle(empirical: Marginal, r_a: float, grid: float = 1e-3) -> float:
    """Feasible-point grid search for the worst-case mean (d <= 4).

    Searches the simplex on a mesh that is repeatedly recentered on the best
    feasible point and refined until the spacing drops to ``grid``.  Every
    candidate is checked against the KL constraint directly, so the result
    never exceeds the true maximum and approaches it to within O(grid).
    """
    d = empirical.support.size
    if d > 4:
        raise ValueError("oracle cost grows as grid^(d-1); use d <= 4")
    if r_a < 0.0:
        raise ValueError("radius must be nonnegative")
    z = empirical.support.points
    qhat = empirical.probs
    if r_a == 0.0 or d == 1:
        return empirical.mean()

    npts = 17
    lo = np.zeros(d - 1)
    hi = np.ones(d - 1)
    best_q = qhat.copy()
    best_val = empirical.mean()
    while True:
        axes = [np.linspace(lo[k], hi[k], npts) for k in range(d - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        free = np.stack([m.ravel() for m in mesh], axis=1)
        tail = 1.0 - np.sum(free, axis=1)
        keep = tail >= -1e-12
        free, tail = free[keep], np.maximum(tail[keep], 0.0)
        rows = np.concatenate([free, tail[:, None]], axis=1)
        feasible = _kl_to_rows(qhat, rows) <= r_a
        moved = False
        if np.any(feasible):
            vals = rows[feasible] @ z
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                moved = True
                best_val = float(vals[k])
                best_q = rows[feasible][k]
        spacing = (hi - lo) / (npts - 1)
        if np.all(spacing <= grid):
            return best_val
        # Shrink only once the best point stops moving: along a thin curved
        # feasible sliver a shrinking window would stall short of the optimum.
        half = (8.0 if moved else 4.0) * np.maximum(spacing, grid / 4.0)
        center = best_q[: d - 1]
        lo = np.clip(center - half, 0.0, 1.0)
        hi = np.clip(center + half, 0.0, 1.0)
