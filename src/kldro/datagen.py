"""Nominal cost distributions, heterogeneous sample sizes, and data sets.

Costs live on the integer grid {1, ..., d}.  Nominal marginals are either
shifted binomials (optionally coupled through a joint multinomial) or a
renormalized discretization of a normal density.  Sample counts per action
are drawn uniformly or with a binomial tilt that observes cheap (or
expensive) actions more often.

Every function takes plain arguments, for one data set or for a block of
replicates given one generator each: then ``nominal_marginals`` builds one
stacked (replicates x actions x d) :class:`~kldro.marginals.PmfMatrix`,
``sample_sizes`` one row per replicate and ``draw_dataset`` a list of
:class:`~kldro.marginals.DataSet`.  One generator is a block of one.

Randomness comes from numpy's counter-based Philox generator; the
substream for replicate ``i`` of an experiment uses key ``seed XOR i``, so
any replicate can be regenerated in isolation, byte for byte.  In any
block, each stream makes its replicate's calls in order: ``uniform``, then
``integers`` or ``binomial``, then ``random`` (or ``multinomial``).

Draws equal ``Generator.choice`` draw for draw.  ``rng.choice(d, size=T,
p=row)`` takes T uniforms from ``random``, sets ``cdf = cumsum(row); cdf /=
cdf[-1]`` and counts the entries c <= u by ``searchsorted(u,
side="right")``.  ``draw_dataset`` takes a replicate's uniforms in one
``random`` call, builds the same cdf rows and counts the same entries for
every uniform of a block by one bisection that only compares floats.  In a
nondecreasing row the entries c <= u are a prefix, whose length n the
bisection keeps in [at, at + width], ``at`` counted from the row's first
entry and starting from [0, d].  If entry at + half - 1 is <= u, then n >=
at + half and ``at`` moves up by half; otherwise n <= at + half - 1 <= at +
width - half.  Either way the width drops by half.  At width 1, n is ``at``
plus whether entry ``at`` is <= u.  Comparisons alone decide n, so it
equals the ``searchsorted`` count for any u, on or off the 2**-53 grid of
``random``.
"""

from __future__ import annotations

import functools
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


def _per_stream(rng, draw, *args):
    """``draw(rng, *args)`` for one generator; for a block, the stack of
    ``draw(rng[b], *(a[b] for a in args))``, each stream in turn."""
    if isinstance(rng, np.random.Generator):
        return draw(rng, *args)
    return np.array([draw(r, *a) for r, *a in zip(rng, *args)])


@functools.cache
def _binomial_coefficients(n: int) -> tuple:
    return tuple(float(math.comb(n, k)) for k in range(n + 1))


def binomial_pmfs(p, d: int) -> PmfMatrix:
    """Shifted binomials on {1, ..., d}: cost 1 + Bin(d - 1, p) for each
    success probability in ``p``, (actions,) or (replicates, actions), from
    exact binomial coefficients."""
    support = Support.integers(d)
    p = np.asarray(p, dtype=float)[..., None]
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    n = d - 1
    ks = np.arange(d)
    # In place, one temporary fewer; the products commute, so the bits stay.
    cells = p**ks
    cells *= np.array(_binomial_coefficients(n))
    cells *= (1.0 - p) ** (n - ks)
    cells /= cells.sum(axis=-1, keepdims=True)
    return PmfMatrix(support, cells)


def normal_pmfs(mu, sigma, d: int) -> PmfMatrix:
    """Normal densities of means ``mu`` and standard deviation ``sigma``,
    discretized on {1, ..., d}: each cell is the difference of the normal
    cdf at its half-integer edges, and each row is renormalized.  For a
    block, ``mu`` has a row and ``sigma`` one value or one per replicate."""
    support = Support.integers(d)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(sigma > 0.0):
        raise ValueError("sigma must be positive")
    if not np.all((1.0 <= mu) & (mu <= d)):
        raise ValueError("mu must lie in [1, d]")
    edges = np.arange(0.5, d + 1.0)
    cells = np.diff(ndtr((edges - mu[..., None]) / sigma[..., None, None]), axis=-1)
    return PmfMatrix(support, cells / cells.sum(axis=-1, keepdims=True))


def nominal_marginals(kind: str, num_actions: int, d: int, rng, sigma=None) -> PmfMatrix:
    """Fresh nominal pmfs for ``num_actions`` actions on {1, ..., d}.

    Binomial kinds draw p_a ~ U(0, 1), normalized to sum to 1 for the
    multinomial; the discretized normal draws mu_a ~ U(1, d) and needs
    ``sigma``, one per replicate for a block.
    """
    if kind not in NOMINAL_KINDS:
        raise ValueError(f"unknown nominal kind {kind!r}")
    if kind == "discretized-normal":
        if sigma is None:
            raise ValueError("discretized-normal requires sigma")
        mu = _per_stream(rng, lambda r: r.uniform(1.0, float(d), num_actions))
        return normal_pmfs(mu, sigma, d)
    p = _per_stream(rng, lambda r: r.uniform(0.0, 1.0, num_actions))
    return binomial_pmfs(p / p.sum(axis=-1, keepdims=True) if kind == "multinomial" else p, d)


def sample_sizes(kind: str, t_min, delta, nominal: PmfMatrix, rng) -> np.ndarray:
    """Realized per-action observation counts in [t_min, t_min + delta]:
    uniform, or binomial with a success share that rises (binomial1) or
    falls (binomial2) with the action's nominal mean.  For a block, every
    argument but ``kind`` runs along its replicates."""
    if kind not in SIZE_KINDS:
        raise ValueError(f"unknown sample-size kind {kind!r}")
    if np.any(np.less(t_min, 1)):
        raise ValueError("t_min must be >= 1")
    if np.any(np.less(delta, 0)):
        raise ValueError("delta must be >= 0")
    means = nominal.means
    if kind == "uniform":
        return _per_stream(rng, lambda r, low, spread: r.integers(
            low, low + spread + 1, size=means.shape[-1]), t_min, delta)
    lo, hi = means.min(axis=-1, keepdims=True), means.max(axis=-1, keepdims=True)
    if np.any(hi == lo):
        raise ValueError(f"{kind} sizes need unequal nominal means to normalize")
    share = (means - lo) / (hi - lo)
    if kind == "binomial2":
        share = 1.0 - share
    return _per_stream(rng, lambda r, low, spread, s: low + r.binomial(spread, s),
                       t_min, delta, share)


def _inverse_cdf(cdf: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf[row[i]].searchsorted(u[i], side="right")`` for every i, by the
    bisection of the module docstring over the flattened rows; cdf rows are
    nondecreasing."""
    d = cdf.shape[1]
    flat = cdf.ravel()
    first = row * d
    at, width = first.copy(), d
    while width > 1:
        half = width // 2
        at += half * (flat[at + half - 1] <= u)
        width -= half
    return at - first + (flat[at] <= u)


def draw_dataset(nominal: PmfMatrix, sizes, rng, joint: bool = False):
    """Observations as support indices: i.i.d. per action, or prefixes of
    joint draws; for a block, one data set per replicate.

    Independent draws, and the stream position afterwards, equal one
    ``rng.choice(d, size=T_a, p=row)`` call per action in action order.

    With ``joint=True`` the marginals must be the binomial components of a
    multinomial vector; max(T_a) full count vectors are drawn jointly and
    action ``a`` keeps the first T_a of its counts (a count c is the cost
    c + 1, that is support index c), preserving the joint dependence on the
    observed prefix.
    """
    sizes = np.array(sizes, dtype=int)
    if sizes.shape != nominal.means.shape:
        raise ValueError("one sample count per action is required")
    if np.any(sizes < 1):
        raise ValueError("every action needs at least one observation")
    support = nominal.support
    d = support.size
    one = isinstance(rng, np.random.Generator)
    streams, rows = ([rng] if one else rng), sizes.reshape(-1, sizes.shape[-1])
    if not joint:
        u = np.concatenate([r.random(t) for r, t in zip(streams, rows.sum(axis=1))])
        cdf = np.cumsum(nominal.probs.reshape(-1, d), axis=1)
        cdf /= cdf[:, -1:]
        index = _inverse_cdf(cdf, np.repeat(np.arange(rows.size), rows.ravel()), u)
        indices = np.split(index, np.cumsum(rows.sum(axis=1))[:-1])
    elif d == 1:
        indices = [np.zeros(t, dtype=int) for t in rows.sum(axis=1)]
    else:
        p = (nominal.means.reshape(rows.shape) - 1.0) / (d - 1.0)
        if np.any(p < -1e-9) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
            raise ValueError("joint sampling requires multinomial component marginals")
        p = np.clip(p, 0.0, 1.0)
        counts = [r.multinomial(d - 1, q / q.sum(), size=t.max())
                  for r, q, t in zip(streams, p, rows)]
        indices = [c.T[np.arange(len(c)) < t[:, None]] for c, t in zip(counts, rows)]
    data = [DataSet(support, index, t) for index, t in zip(indices, rows)]
    return data[0] if one else data
