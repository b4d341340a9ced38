"""Calibration of per-action relative-entropy ball radii.

Three interchangeable finite-sample bounds turn a sample count, a support
size and a confidence budget into a ball radius: a method-of-types bound
(always applicable), a moment-generating-function bound solved as a root
problem, and a partial-sum bound with Wallis-product coefficients.  The
smallest applicable estimate wins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadiusInputs",
    "AmbiguitySpec",
    "rate_from_alpha",
    "radius_baseline",
    "radius_agrawal",
    "radius_mardia",
    "radius_best",
    "mardia_constant",
]

_LABELS = ("baseline", "agrawal", "mardia", "manual")


@dataclass(frozen=True)
class RadiusInputs:
    """Everything the calibration formulas need for one action."""

    T_a: int
    d_a: int
    num_actions: int
    T_min: int
    alpha_a: float
    rate: float

    def __post_init__(self):
        if self.T_a < 1 or self.d_a < 1 or self.num_actions < 1:
            raise ValueError("T_a, d_a and num_actions must be >= 1")
        if not 1 <= self.T_min <= self.T_a:
            raise ValueError("T_min must satisfy 1 <= T_min <= T_a")
        if not 0.0 < self.alpha_a < 1.0:
            raise ValueError("alpha_a must lie in (0, 1)")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")


def rate_from_alpha(alpha: float, T_min: int) -> float:
    """Exponential decay rate matching confidence level ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if T_min < 1:
        raise ValueError("T_min must be >= 1")
    return -math.log(alpha) / T_min


def radius_baseline(inputs: RadiusInputs) -> float:
    """Method-of-types radius; applicable for any support size."""
    try:
        d_term = float(inputs.d_a) * math.log(inputs.T_a + 1)
    except OverflowError:
        return math.inf
    return (math.log(inputs.num_actions) + d_term + inputs.T_min * inputs.rate) / inputs.T_a


def _agrawal_log_lhs(offset: float, d_a: int, T_a: int) -> float:
    # ln of ((e/(d-1)) r T)^(d-1) e^{-rT} at r T = (d-1) + offset, which
    # collapses to (d-1) log1p(x) - offset for x = offset/(d-1).  When x is
    # tiny the linear parts cancel far below float noise, so switch to the
    # series -(d-1) x^2 (1/2 - x/3 + x^2/4 - ...).
    x = offset / (d_a - 1)
    if x < 1e-6:
        return -(d_a - 1) * x * x * (0.5 - x / 3.0 + x * x / 4.0)
    return (d_a - 1) * math.log1p(x) - offset


def radius_agrawal(inputs: RadiusInputs) -> float:
    """Radius from the mgf bound: the root of its tail equation above (d-1)/T.

    The left side equals 1 at r = (d-1)/T and decreases to 0, so a unique
    root exists for any confidence in (0, 1).  Solved by bisection (safe on
    the monotone branch) in log space, parametrized by the offset of r T
    above d-1.
    """
    d, T, alpha = inputs.d_a, inputs.T_a, inputs.alpha_a
    if d == 1:
        # Degenerate support: the marginal is known exactly.
        return 0.0
    log_alpha = math.log(alpha)
    try:
        lo = 1e-12 * T
        # For offsets small against d-1 the left side behaves like
        # -offset^2 / (2(d-1)), so the root sits near sqrt(2 (d-1) |ln a|);
        # seeding the bracket there keeps the doubling count bounded for
        # astronomically large support sizes.
        hi = max(1.0 * T, math.sqrt(2.0 * float(d - 1) * -log_alpha))
        expansions = 0
        while _agrawal_log_lhs(hi, d, T) > log_alpha:
            hi *= 2.0
            expansions += 1
            if expansions > 200:
                raise RuntimeError(
                    f"radius_agrawal: no bracket after {expansions} doublings "
                    f"(d_a={d}, T_a={T}, alpha_a={alpha})"
                )
        for _ in range(300):
            # Absolute tolerance well inside 1e-10 on r, or relative once the
            # offset is so large that absolute width hits float resolution.
            if hi - lo <= 1e-12 * T or hi - lo <= 1e-13 * max(float(T), hi):
                break
            mid = 0.5 * (lo + hi)
            if _agrawal_log_lhs(mid, d, T) > log_alpha:
                lo = mid
            else:
                hi = mid
        else:
            raise RuntimeError(
                f"radius_agrawal: bisection did not converge (d_a={d}, T_a={T}, "
                f"alpha_a={alpha}, offset bracket=[{lo}, {hi}])"
            )
        return ((d - 1) + 0.5 * (lo + hi)) / T
    except OverflowError:
        # Support so large the bound cannot be evaluated in floats; it is
        # certainly not the minimum then.
        return math.inf


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


def radius_mardia(inputs: RadiusInputs) -> float:
    """Radius from the Wallis-product partial-sum bound (d_a, T_a >= 2)."""
    if inputs.d_a < 2 or inputs.T_a < 2:
        raise ValueError("mardia bound requires d_a >= 2 and T_a >= 2")
    log_c = math.log(12.0 / math.pi) + _log_mardia_sum(inputs.d_a, inputs.T_a)
    return (log_c - math.log(inputs.alpha_a)) / inputs.T_a


def _agrawal_exceeds(r: float, inputs: RadiusInputs) -> bool:
    """True when at most one evaluation proves ``radius_agrawal(inputs) > r``.

    The bisection runs on the offset o = r T - (d-1) and returns a radius
    above (d-1)/T.  Test o' = (r (1 + 1e-9) + 1e-12) T - (d-1).  If o' <= 0,
    r is below (d-1)/T.  Else the left side of the tail equation decreases
    in o, so a value above ln(alpha) at o' puts the root beyond o'.  The
    bisection returns the midpoint of a final bracket no wider than 1e-12 T
    (or 1e-13 o once o > 10 T), which the 1e-12 T term covers; without it a
    tie at T = 1e4 can resolve the other way.  The 1e-9 margin is scaled by
    r T, not by o, which loses ~0.5 to cancellation when d_a ~ 50**9, and
    stays far above the float noise in the left side.  So the bisected
    radius is then strictly above r, and skipping it changes neither the
    minimum nor its label.
    """
    d, T = inputs.d_a, inputs.T_a
    try:
        offset = (r * (1.0 + 1e-9) + 1e-12) * T - (d - 1)
        return offset <= 0.0 or _agrawal_log_lhs(offset, d, T) > math.log(inputs.alpha_a)
    except OverflowError:
        return False


def radius_best(inputs: RadiusInputs) -> tuple[float, str]:
    """Minimum of the applicable estimates, with the winner's label; ties go
    to the earlier of baseline, agrawal, mardia.

    Mardia's radius is computed first.  When one evaluation of the mgf
    bound's left side proves the Agrawal root larger (see
    ``_agrawal_exceeds``), the ~43-step bisection is skipped: that bound
    cannot win, so the value and label are those of the full search.
    """
    candidates = [(radius_baseline(inputs), "baseline")]
    if inputs.d_a >= 2 and inputs.T_a >= 2:
        r_m = radius_mardia(inputs)
        if not _agrawal_exceeds(r_m, inputs):
            candidates.append((radius_agrawal(inputs), "agrawal"))
        candidates.append((r_m, "mardia"))
    elif inputs.d_a >= 2:
        candidates.append((radius_agrawal(inputs), "agrawal"))
    return min(candidates, key=lambda c: c[0])


@dataclass(frozen=True)
class AmbiguitySpec:
    """Per-action ball radii plus the calibration that produced them."""

    radii: np.ndarray
    labels: tuple

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        r.setflags(write=False)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("radii must be a nonempty 1-d array")
        if not np.all(r >= 0.0):
            raise ValueError("radii must be nonnegative")
        if len(self.labels) != r.size:
            raise ValueError("one label per radius is required")
        for lab in self.labels:
            if lab not in _LABELS:
                raise ValueError(f"unknown calibration label {lab!r}")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def num_actions(self) -> int:
        return int(self.radii.size)

    @classmethod
    def manual(cls, radii) -> "AmbiguitySpec":
        r = np.asarray(radii, dtype=float)
        return cls(r, ("manual",) * r.size)
