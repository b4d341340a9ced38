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
of the kernel; the maximizing pmf follows from stationarity.

The factors with q_i = 0 drop out of f, and an arc seen T times has at most
T observed points, so the kernel's elementwise work (the gaps, their logs,
the tilt's logaddexp and exp, every q-weighted product) runs on the
observed (q > 0) entries only, found once per call.  A row sum writes its
products into one zeroed (rows, k) buffer and reduces it along the rows.
The dense products at zero weights are +0.0, so each row's pairwise sum
sees the same values in the same places as a sum over the dense row, and
every output bit is the dense kernel's (``tests/oracles.py`` keeps it as
the reference).  Zero-weight padding costs only its share of a row sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import Marginal, pmf_means

__all__ = ["DualBatch", "DualSolution", "solve_dual_batch", "minimize_dual", "solve_dual"]

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


_rowsum = np.add.reduce  # called with axis=1: one pairwise sum per contiguous row


def _rowsums(buf: np.ndarray, at: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row sums of ``buf`` after writing ``x`` at its flat places ``at``.

    ``buf`` is C-contiguous (so ``reshape`` is a view) and +0.0 outside
    ``at``, where the dense kernel's q-weighted products are +0.0 too, so
    each row's pairwise sum adds the same values in the same order as a
    sum over the dense row.
    """
    buf.reshape(-1)[at] = x
    return _rowsum(buf, axis=1)


def _tilt(log_gaps, q, u, row, buf, at):
    """Row sums of the tilted pmf at log offsets ``u``.

    Elementwise work runs on the observed entries only: ``log_gaps`` and
    ``q`` are theirs, ``row`` their rows and ``at`` their places in the row
    sum buffer ``buf``, through which every sum goes (see :func:`_rowsums`).
    With t_i = g_i / e^u: L = sum q ln(1 + t) and the two complementary
    masses A = sum q t/(1 + t), B = sum q/(1 + t), each free of
    cancellation, so that K = L + ln(1 - A) is the relative entropy of the
    tilt; V, the q-variance of t/(1 + t), gives dK/du = -V / B.
    """
    y = log_gaps - u[row]
    soft = np.logaddexp(0.0, y)
    share = np.exp(y - soft)
    big_l = _rowsums(buf, at, q * soft)
    big_a = _rowsums(buf, at, q * share)
    big_b = _rowsums(buf, at, q * np.exp(-soft))
    log_b = np.where(big_a < 0.5, np.log1p(-big_a), np.log(big_b))
    share -= big_a[row]
    var = _rowsums(buf, at, q * share * share)
    return big_l, big_l + log_b, big_b, var


def _compact(keep, row, buf, at, *entries):
    """The entries of the rows where ``keep`` holds, renumbered onto the
    first ``keep.sum()`` rows of ``buf``: their rows, places and
    ``entries``.  Every old place of ``buf`` is reset to +0.0."""
    buf.reshape(-1)[at] = 0.0
    kept = keep[row]
    old, k = row[kept], buf.shape[1]
    row = (np.cumsum(keep) - 1)[old]
    return (row, at[kept] + (row - old) * k, *(x[kept] for x in entries))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_dual_batch(values, weights, radii, lower) -> DualBatch:
    """Minimize the dual for every row of ``values``/``weights`` at once.

    Each row of ``weights`` is a pmf on the matching row of ``values``
    (zero-weight entries are padding), ``radii`` holds one ball radius per
    row and ``lower`` the bound beta >= lower, which must not be below the
    row's largest value.  Rows are solved independently: a row's result is
    bit-identical whatever other rows share the batch and whatever the
    memory layout of the input.  Values are clipped to [row mean, lower] to
    absorb rounding.  Raises ValueError on a negative weight or a row
    without a positive one, RuntimeError when a row fails to converge.

    Every log, exp and product runs on the observed (q > 0) entries only,
    so zero-weight padding costs only its share of a row sum.  The sums go
    through one zeroed (rows, k) buffer per call (see :func:`_rowsums`),
    which keeps every bit of a sum over the dense rows; the row means stay
    dense, since z * 0 can be -0.0.  Rows that converge leave the observed
    entries, and the rest move onto the buffer's first rows.
    """
    z = np.asarray(values, dtype=float)
    q = np.asarray(weights, dtype=float)
    r = np.asarray(radii, dtype=float)
    top = np.asarray(lower, dtype=float)
    n = z.shape[0]
    if z.ndim != 2 or q.shape != z.shape or r.shape != (n,) or top.shape != (n,):
        raise ValueError("values/weights must be (rows, k) with one radius and bound per row")
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
    gaps = np.maximum(top[row] - z[row, at - row * k], 0.0)
    log_gaps = np.log(gaps)
    buf = np.zeros((n, k))
    # As u -> -inf, K tends to ln GM(g) - ln HM(g) when the top carries no
    # weight (+inf otherwise); at or below r the minimum is beta = top.
    log_geo = _rowsums(buf, at, qs * log_gaps)
    k_inf = log_geo + np.log(_rowsums(buf, at, qs * np.exp(-log_gaps)))
    spread = _rowsums(buf, at, qs * gaps * gaps)
    zero = r == 0.0
    boundary = ~zero & ((k_inf <= r) | (spread == 0.0))

    u = np.where(boundary, -np.inf, np.inf)
    at_u = np.zeros(n)  # L at the final offset
    iterations = np.zeros(n, dtype=int)
    newton_rows = ~zero & ~boundary
    rows = np.flatnonzero(newton_rows)
    if rows.size:
        row, at, lg, qs, gaps = _compact(newton_rows, row, buf, at, log_gaps, qs, gaps)
        rs, view = r[rows], buf[:rows.size]
        # The largest gap of a whole row, unobserved points too, is
        # max(top - min z, 0), since rounding is monotone.
        lo = np.log(np.maximum(top[rows] - z[rows].min(axis=1), 0.0)) - _LOG_SPAN
        # K(u) <= E[g^2] e^{-2u}, so K < r/4 above hi.
        hi = np.maximum(0.5 * (np.log(spread[rows]) - np.log(rs)) + math.log(2.0), lo)
        # First guess: the small-radius asymptote K ~ Var(g) e^{-2u} / 2.
        g_mean = _rowsums(view, at, qs * gaps)
        var_g = np.maximum(spread[rows] - g_mean * g_mean, 0.0)
        us = np.clip(0.5 * (np.log(var_g) - np.log(2.0 * rs)), lo, hi)
        step = hi - lo
        step_old = step.copy()
        for it in range(1, _MAX_ITERATIONS + 1):
            big_l, k_val, big_b, var = _tilt(lg, qs, us, row, view, at)
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
                rows, rs = rows[keep], rs[keep]
                us, lo, hi, newton = us[keep], lo[keep], hi[keep], newton[keep]
                step, step_old = step[keep], step_old[keep]
                if not rows.size:
                    break
                row, at, lg, qs = _compact(keep, row, view, at, lg, qs)
                view = buf[:rows.size]
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
