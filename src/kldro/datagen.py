"""Nominal cost distributions, heterogeneous sample sizes, and data sets.

Costs live on the integer grid {1, ..., d}.  Nominal marginals are either
shifted binomials (optionally coupled through a joint multinomial) or a
renormalized discretization of a normal density.  Sample counts per action
are drawn uniformly or with a binomial tilt that observes cheap (or
expensive) actions more often.

Every function takes plain arguments: ``binomial_pmfs`` and ``normal_pmfs``
build the one (actions x d) pmf matrix
(:class:`~kldro.marginals.PmfMatrix`, row means computed once) from
parameter arrays, and ``nominal_marginals`` draws those parameters per
instance.  Sample sizes and data draws read that matrix, not per-action
objects.  A draw hands its support indices straight to the
:class:`~kldro.marginals.DataSet`.

Randomness comes from numpy's counter-based Philox generator; the
substream for replicate ``i`` of an experiment uses key ``seed XOR i``, so
any replicate can be regenerated in isolation, byte for byte.  Per-action
observations come from one ``rng.random`` call over all actions, mapped
through each row's inverse cdf exactly as ``Generator.choice`` maps its
uniforms; the draws, and the stream position afterwards, equal those of one
``rng.choice(d, size=T_a, p=row)`` call per action in action order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .marginals import DataSet, PmfMatrix, Support

__all__ = [
    "substream",
    "binomial_pmfs",
    "normal_pmfs",
    "nominal_marginals",
    "sample_sizes",
    "draw_dataset",
]

NOMINAL_KINDS = ("shifted-binomial", "multinomial", "discretized-normal")
SIZE_KINDS = ("uniform", "binomial1", "binomial2")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent deterministic stream: Philox keyed by seed XOR index.

    The seed occupies the high limb of the 128-bit key, so streams never
    collide across (seed, index) pairs with index below 2**64.
    """
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) ^ int(index)))


def binomial_pmfs(p, d: int) -> PmfMatrix:
    """Shifted binomials on {1, ..., d}: cost 1 + Bin(d - 1, p_a) for each
    success probability p_a, from exact binomial coefficients."""
    support = Support.integers(d)
    p = np.asarray(p, dtype=float)[:, None]
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    n = d - 1
    ks = np.arange(d)
    comb = np.array([float(math.comb(n, k)) for k in ks])
    cells = comb * p**ks * (1.0 - p) ** (n - ks)
    return PmfMatrix(support, cells / cells.sum(axis=1, keepdims=True))


def normal_pmfs(mu, sigma: float, d: int) -> PmfMatrix:
    """Normal densities of means ``mu`` and one standard deviation
    ``sigma``, discretized on {1, ..., d}: each cell is the difference of
    the normal cdf at its half-integer edges, and each row is renormalized."""
    support = Support.integers(d)
    mu = np.asarray(mu, dtype=float)
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not np.all((1.0 <= mu) & (mu <= d)):
        raise ValueError("mu must lie in [1, d]")
    edges = np.arange(0.5, d + 1.0)
    cells = np.diff(ndtr((edges - mu[:, None]) / sigma), axis=1)
    return PmfMatrix(support, cells / cells.sum(axis=1, keepdims=True))


def nominal_marginals(kind: str, num_actions: int, d: int, rng: np.random.Generator,
                      sigma: float | None = None) -> PmfMatrix:
    """Fresh nominal pmfs for ``num_actions`` actions on {1, ..., d}.

    Binomial kinds draw p_a ~ U(0, 1), normalized to sum to 1 for the
    multinomial; the discretized normal draws mu_a ~ U(1, d) and needs the
    shared ``sigma``.
    """
    if kind not in NOMINAL_KINDS:
        raise ValueError(f"unknown nominal kind {kind!r}")
    if kind == "discretized-normal":
        if sigma is None:
            raise ValueError("discretized-normal requires sigma")
        return normal_pmfs(rng.uniform(1.0, float(d), num_actions), sigma, d)
    p = rng.uniform(0.0, 1.0, num_actions)
    return binomial_pmfs(p / p.sum() if kind == "multinomial" else p, d)


def sample_sizes(kind: str, t_min: int, delta: int, nominal: PmfMatrix,
                 rng: np.random.Generator) -> np.ndarray:
    """Realized per-action observation counts in [t_min, t_min + delta]:
    uniform, or binomial with a success share that rises (binomial1) or
    falls (binomial2) with the action's nominal mean."""
    if kind not in SIZE_KINDS:
        raise ValueError(f"unknown sample-size kind {kind!r}")
    if t_min < 1:
        raise ValueError("t_min must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if kind == "uniform":
        return rng.integers(t_min, t_min + delta + 1, size=len(nominal))
    means = nominal.means
    lo, hi = float(means.min()), float(means.max())
    if hi - lo == 0.0:
        raise ValueError(f"{kind} sizes need unequal nominal means to normalize")
    share = (means - lo) / (hi - lo)
    if kind == "binomial2":
        share = 1.0 - share
    return t_min + rng.binomial(delta, share)


def draw_dataset(
    nominal: PmfMatrix,
    sizes,
    rng: np.random.Generator,
    joint: bool = False,
) -> DataSet:
    """Observations as support indices: i.i.d. per action, or prefixes of
    joint draws.

    Independent draws take sum(T_a) uniforms from one ``rng.random`` call
    and send action ``a``'s block of T_a through the inverse cdf of row
    ``a``: ``cdf = cumsum(row)``, ``cdf /= cdf[-1]``, then
    ``searchsorted(u, side="right")``.  That is what
    ``rng.choice(d, size=T_a, p=row)`` does, so the indices, and the stream
    position afterwards, equal one ``choice`` call per action in action
    order, draw for draw.

    With ``joint=True`` the marginals must be the binomial components of a
    multinomial vector; max(T_a) full count vectors are drawn jointly and
    action ``a`` keeps the first T_a of its counts (a count c is the cost
    c + 1, that is support index c), preserving the joint dependence on the
    observed prefix.
    """
    sizes = np.array(sizes, dtype=int)
    if sizes.size != len(nominal):
        raise ValueError("one sample count per action is required")
    if np.any(sizes < 1):
        raise ValueError("every action needs at least one observation")
    support = nominal.support
    d = support.size
    if not joint:
        ends = np.cumsum(sizes).tolist()
        u = rng.random(ends[-1])
        cdf = np.cumsum(nominal.probs, axis=1)
        cdf /= cdf[:, -1:]
        index = np.concatenate([row.searchsorted(u[lo:hi], side="right")
                                for row, lo, hi in zip(cdf, [0, *ends[:-1]], ends)])
        return DataSet(support, index, sizes)
    if d == 1:
        return DataSet(support, np.zeros(int(sizes.sum()), dtype=int), sizes)
    p = (nominal.means - 1.0) / (d - 1.0)
    if np.any(p < -1e-9) or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError("joint sampling requires multinomial component marginals")
    p = np.clip(p, 0.0, 1.0)
    t_max = int(sizes.max())
    counts = rng.multinomial(d - 1, p / p.sum(), size=t_max)
    return DataSet(support, counts.T[np.arange(t_max) < sizes[:, None]], sizes)
