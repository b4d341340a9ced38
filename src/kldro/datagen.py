"""Nominal cost distributions, heterogeneous sample sizes, and data sets.

Costs live on the integer grid {1, ..., d}.  Nominal marginals are either
shifted binomials (optionally coupled through a joint multinomial) or a
renormalized discretization of a normal density.  Sample counts per action
are drawn uniformly or with a binomial tilt that observes cheap (or
expensive) actions more often.

The nominal marginals of all actions form one (actions x d) pmf matrix
(:class:`~kldro.marginals.PmfMatrix`) with its row means computed once;
sample sizes and data draws read that matrix, not per-action objects.

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
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .graphs import LayeredGraph
from .marginals import DataSet, PmfMatrix, Support

__all__ = [
    "NominalSpec",
    "SampleSizeSpec",
    "substream",
    "random_nominal_spec",
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


@dataclass(frozen=True)
class NominalSpec:
    """Parameters of the data-generating marginals on {1, ..., d}."""

    kind: str
    d: int
    p: np.ndarray | None = None
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in NOMINAL_KINDS:
            raise ValueError(f"unknown nominal kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.kind in ("shifted-binomial", "multinomial"):
            if self.p is None:
                raise ValueError(f"{self.kind} requires success probabilities p")
            p = np.asarray(self.p, dtype=float)
            p.setflags(write=False)
            if np.any(p < 0.0) or np.any(p > 1.0):
                raise ValueError("p must lie in [0, 1]")
            if self.kind == "multinomial" and abs(float(p.sum()) - 1.0) > 1e-9:
                raise ValueError("multinomial p must sum to 1")
            object.__setattr__(self, "p", p)
        else:
            if self.mu is None or self.sigma is None:
                raise ValueError("discretized-normal requires mu and sigma")
            mu = np.asarray(self.mu, dtype=float)
            sigma = np.asarray(self.sigma, dtype=float)
            mu.setflags(write=False)
            sigma.setflags(write=False)
            if np.any(sigma <= 0.0):
                raise ValueError("sigma must be positive")
            if np.any(mu < 1.0) or np.any(mu > self.d):
                raise ValueError("mu must lie in [1, d]")
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "sigma", sigma)

    @property
    def num_actions(self) -> int:
        arr = self.p if self.p is not None else self.mu
        return int(arr.size)


@dataclass(frozen=True)
class SampleSizeSpec:
    """How many observations each action gets: T_a in [t_min, t_min + delta]."""

    kind: str
    t_min: int
    delta: int

    def __post_init__(self):
        if self.kind not in SIZE_KINDS:
            raise ValueError(f"unknown sample-size kind {self.kind!r}")
        if self.t_min < 1:
            raise ValueError("t_min must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")

    @property
    def t_max(self) -> int:
        return self.t_min + self.delta


def random_nominal_spec(
    kind: str, num_actions: int, d: int, rng: np.random.Generator, sigma: float | None = None
) -> NominalSpec:
    """Fresh per-instance parameters: p_a ~ U(0,1), mu_a ~ U(1,d)."""
    if kind == "shifted-binomial":
        return NominalSpec(kind, d, p=rng.uniform(0.0, 1.0, num_actions))
    if kind == "multinomial":
        p = rng.uniform(0.0, 1.0, num_actions)
        return NominalSpec(kind, d, p=p / p.sum())
    if kind == "discretized-normal":
        if sigma is None:
            raise ValueError("discretized-normal requires sigma")
        mu = rng.uniform(1.0, float(d), num_actions)
        return NominalSpec(kind, d, mu=mu, sigma=np.full(num_actions, float(sigma)))
    raise ValueError(f"unknown nominal kind {kind!r}")


def nominal_marginals(spec: NominalSpec, graph: LayeredGraph) -> PmfMatrix:
    """One pmf per arc of ``graph`` on the shared support {1, ..., d}.

    All arcs are evaluated on one (arcs x d) grid: binomial pmfs from exact
    binomial coefficients, normal cells as differences of the normal cdf at
    the half-integer edges; each row is then renormalized.
    """
    if spec.num_actions != graph.num_arcs:
        raise ValueError(
            f"spec covers {spec.num_actions} actions but the graph has {graph.num_arcs} arcs"
        )
    if spec.kind in ("shifted-binomial", "multinomial"):
        n = spec.d - 1
        ks = np.arange(spec.d)
        comb = np.array([float(math.comb(n, k)) for k in ks])
        p = spec.p[:, None]
        cells = comb * p**ks * (1.0 - p) ** (n - ks)
    else:
        edges = np.arange(0.5, spec.d + 1.0)
        cdf = ndtr((edges - spec.mu[:, None]) / spec.sigma[:, None])
        cells = np.diff(cdf, axis=1)
    return PmfMatrix(Support.integers(spec.d), cells / cells.sum(axis=1, keepdims=True))


def sample_sizes(spec: SampleSizeSpec, nominal: PmfMatrix, rng: np.random.Generator) -> np.ndarray:
    """Realized per-action observation counts, always within [t_min, t_max]."""
    if spec.kind == "uniform":
        return rng.integers(spec.t_min, spec.t_max + 1, size=len(nominal))
    means = nominal.means
    lo, hi = float(means.min()), float(means.max())
    if hi - lo == 0.0:
        raise ValueError(f"{spec.kind} sizes need unequal nominal means to normalize")
    share = (means - lo) / (hi - lo)
    if spec.kind == "binomial2":
        share = 1.0 - share
    return spec.t_min + rng.binomial(spec.delta, share)


def draw_dataset(
    nominal: PmfMatrix,
    sizes,
    rng: np.random.Generator,
    joint: bool = False,
) -> DataSet:
    """Observation vectors: i.i.d. per action, or prefixes of joint draws.

    Independent draws take sum(T_a) uniforms from one ``rng.random`` call
    and send action ``a``'s block of T_a through the inverse cdf of row
    ``a``: ``cdf = cumsum(row)``, ``cdf /= cdf[-1]``, then
    ``searchsorted(u, side="right")``.  That is what
    ``rng.choice(d, size=T_a, p=row)`` does, so the samples, and the stream
    position afterwards, equal one ``choice`` call per action in action
    order, draw for draw.

    With ``joint=True`` the marginals must be the binomial components of a
    multinomial vector; max(T_a) full cost vectors are drawn jointly and
    action ``a`` keeps the first T_a coordinates, preserving the joint
    dependence on the observed prefix.
    """
    sizes = np.asarray(sizes, dtype=int)
    if sizes.size != len(nominal):
        raise ValueError("one sample count per action is required")
    if np.any(sizes < 1):
        raise ValueError("every action needs at least one observation")
    support = nominal.support
    d = support.size
    if not joint:
        ends = np.cumsum(sizes).tolist()
        blocks = list(zip([0, *ends[:-1]], ends))
        u = rng.random(ends[-1])
        cdf = np.cumsum(nominal.probs, axis=1)
        cdf /= cdf[:, -1:]
        idx = np.concatenate(
            [row.searchsorted(u[lo:hi], side="right") for row, (lo, hi) in zip(cdf, blocks)]
        )
        costs = support.points[idx]
        return DataSet(support, tuple(costs[lo:hi] for lo, hi in blocks))
    if d == 1:
        samples = tuple(np.ones(int(t)) for t in sizes)
        return DataSet(support, samples)
    p = (nominal.means - 1.0) / (d - 1.0)
    if np.any(p < -1e-9) or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError("joint sampling requires multinomial component marginals")
    p = np.clip(p, 0.0, 1.0)
    counts = rng.multinomial(d - 1, p / p.sum(), size=int(sizes.max()))
    costs = counts.astype(float) + 1.0
    samples = tuple(costs[: int(t), a] for a, t in enumerate(sizes))
    return DataSet(support, samples)
