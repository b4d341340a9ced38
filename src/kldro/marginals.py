"""Finite discrete marginal distributions over per-component cost supports.

Every cost component ("action") takes values on a small, strictly positive,
strictly increasing grid of support points.  The data for an action is a
vector of observations drawn from that grid; observation counts may differ
across actions, which is the whole point of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Support",
    "Marginal",
    "PmfMatrix",
    "DataSet",
    "empirical_from_samples",
    "kl_divergence",
    "mean",
    "pmf_means",
]


def pmf_means(points: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Mean along the last axis as one pairwise sum per row, so a row's mean
    is bit-identical whether taken alone or as part of a matrix."""
    return np.add.reduce(points * probs, axis=-1)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Support:
    """Ordered, strictly positive cost grid for one action."""

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("support must be a nonempty 1-d array")
        if not np.all(pts > 0.0):
            raise ValueError("support points must be strictly positive")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ValueError("support points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def max(self) -> float:
        return float(self.points[-1])

    @classmethod
    def integers(cls, d: int) -> "Support":
        """The grid {1, ..., d} used throughout the experiments."""
        if d < 1:
            raise ValueError("d must be >= 1")
        return cls(np.arange(1, d + 1, dtype=float))

    def same_as(self, other: "Support") -> bool:
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True)
class Marginal:
    """A pmf over a :class:`Support`."""

    support: Support
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _checked_pmfs(self.probs, self.support, 1))

    def mean(self) -> float:
        return float(pmf_means(self.support.points, self.probs))


def _checked_pmfs(probs, support: Support, ndim: int) -> np.ndarray:
    """``probs`` as a read-only array of ``ndim`` dimensions whose rows are
    pmfs on ``support``: entries in [0, 1], each row summing to 1 within 1e-12."""
    p = _readonly(probs)
    if p.ndim != ndim or p.shape[-1:] != support.points.shape:
        raise ValueError("probs length must match support size")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    sums = np.sum(p, axis=-1, keepdims=True)
    off = np.abs(sums - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"probabilities sum to {float(sums[off][0])!r}, not 1")
    return p


@dataclass(frozen=True)
class PmfMatrix:
    """One pmf per action on a shared :class:`Support`, as an
    (actions x d) matrix validated once, with every row's mean.

    Indexing builds the per-action :class:`Marginal` on demand;
    ``means[a]`` equals ``self[a].mean()`` bit for bit.
    """

    support: Support
    probs: np.ndarray
    means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = _checked_pmfs(self.probs, self.support, 2)
        means = pmf_means(self.support.points, p)
        means.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "means", means)

    def __len__(self) -> int:
        return self.probs.shape[0]

    def __getitem__(self, action: int) -> Marginal:
        return Marginal(self.support, self.probs[action])


def mean(m: Marginal) -> float:
    """Expected cost under ``m``."""
    return m.mean()


def empirical_from_samples(samples, support: Support) -> Marginal:
    """Frequency pmf of ``samples`` on ``support``.

    Raises if any sample is not a support point.  The smallest observed
    entry absorbs the float rounding so the pmf sums to exactly 1.0.
    """
    return DataSet((support,), (samples,)).empirical(0)


def _absorb_rounding(probs: np.ndarray, target: float, index: int) -> None:
    """Adjust ``probs[index]`` until math.fsum(probs) equals ``target``.

    fsum computes the exact sum rounded once, so it is monotone in any
    single entry; stepping an entry whose ulp is finer than the total's
    walks the rounded sum through every representable value, so bisection
    reaches the target exactly.  Callers pass the index of the smallest
    positive entry for exactly that reason; the adjustment stays within a
    few of its ulps.
    """

    def total(t: float) -> float:
        probs[index] = t
        return math.fsum(probs)

    base = probs[index]
    current = total(base)
    if current == target:
        return
    pad = 4.0 * max(abs(target - current), np.finfo(float).eps * max(abs(base), 1.0))
    lo, hi = base - pad, base + pad
    while total(lo) > target:
        lo -= pad
        pad *= 2.0
    while total(hi) < target:
        hi += pad
        pad *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        got = total(mid)
        if got < target:
            lo = mid
        elif got > target:
            hi = mid
        else:
            return
    for candidate in (lo, hi):
        if total(candidate) == target:
            return
    probs[index] = base  # no exact hit reachable; keep the unadjusted value


def kl_divergence(p: Marginal, q: Marginal) -> float:
    """Relative entropy D(p || q) with the 0 ln 0 = 0 and ln(x/0) = inf conventions."""
    if not p.support.same_as(q.support):
        raise ValueError("marginals must share the same support")
    pa, qa = p.probs, q.probs
    active = pa > 0.0
    if np.any(qa[active] == 0.0):
        return float("inf")
    return float(np.sum(pa[active] * np.log(pa[active] / qa[active])))


def _fsum_is_one(pmf: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``math.fsum(pmf[a]) == 1.0`` for every row a of entries c / sizes[a].

    For T_a <= 1024 every entry is a multiple of 2**-62 (c / T_a >= 2**-10
    has an ulp >= 2**-62), so the int64 sum of ``pmf * 2**62`` is the row's
    exact sum, and fsum rounds it to 1.0 exactly when it lies in
    [2**62 - 2**8, 2**62 + 2**9]: both half-way points round to even, that
    is to 1.0.  Rows with T_a > 1024 are summed by fsum.
    """
    total = (pmf * 2.0**62).astype(np.int64).sum(axis=1)
    one = (total >= 2**62 - 2**8) & (total <= 2**62 + 2**9)
    for a in np.flatnonzero(sizes > 1024):
        one[a] = math.fsum(pmf[a]) == 1.0
    return one


@dataclass(frozen=True)
class DataSet:
    """Per-action observation vectors of possibly different lengths.

    Validation builds the empirical pmfs once: ``pmf`` and ``points`` are
    (actions x width) matrices, width the largest support size; narrower
    supports are padded with their top point at zero mass.  ``dims`` holds
    every action's support size.  When every action shares one
    :class:`Support` object, as ``draw_dataset`` arranges, all observations
    are checked and counted in one search, with no grouping by support.

    Each row whose ``math.fsum`` is not exactly 1.0 is fixed up, the
    smallest observed entry absorbing the rounding; ``_fsum_is_one`` finds
    those rows with one exact integer sum per row instead of an fsum.

    ``cache`` holds what the rules derive from a data set (its truncation,
    its confidence splits), so each is computed once per data set.
    """

    supports: tuple
    samples: tuple = field(repr=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    dims: np.ndarray = field(init=False, repr=False, compare=False)
    pmf: np.ndarray = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)
    cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if len(self.supports) != len(self.samples):
            raise ValueError("one sample vector per support is required")
        if len(self.supports) == 0:
            raise ValueError("data set must cover at least one action")
        supports = tuple(self.supports)
        samples = tuple(map(_readonly, self.samples))
        sizes = np.array([arr.size if arr.ndim == 1 else 0 for arr in samples])
        if not sizes.all():
            raise ValueError(f"action {int(np.argmin(sizes))}: at least one observation required")
        m = len(samples)
        if len(set(map(id, supports))) == 1:
            groups = [(supports[0], np.arange(m), samples)]
        else:
            by_support: dict = {}
            for a, sup in enumerate(supports):
                by_support.setdefault(id(sup), (sup, []))[1].append(a)
            groups = [(sup, np.array(actions), [samples[a] for a in actions])
                      for sup, actions in by_support.values()]
        width = max(sup.size for sup, _, _ in groups)
        dims = np.empty(m, dtype=int)
        points = np.empty((m, width))
        counts = np.zeros(m * width)
        for sup, actions, group_samples in groups:
            dims[actions] = sup.size
            points[actions, : sup.size] = sup.points
            points[actions, sup.size :] = sup.max
            obs = np.concatenate(group_samples)
            owner = np.repeat(actions, sizes[actions])
            idx = np.searchsorted(sup.points, obs)
            bad = (idx >= sup.size) | (sup.points[np.minimum(idx, sup.size - 1)] != obs)
            if bad.any():
                k = int(np.argmax(bad))
                off = float(obs[k])
                raise ValueError(f"action {owner[k]}: observation {off!r} outside support")
            counts += np.bincount(owner * width + idx, minlength=m * width)
        counts = counts.reshape(m, width)
        pmf = counts / sizes[:, None]
        for a in np.flatnonzero(~_fsum_is_one(pmf, sizes)):
            seen = np.flatnonzero(counts[a])
            _absorb_rounding(pmf[a], 1.0, int(seen[np.argmin(pmf[a, seen])]))
        for name, value in (("sizes", sizes), ("dims", dims), ("pmf", pmf), ("points", points)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "supports", supports)

    @property
    def num_actions(self) -> int:
        return len(self.samples)

    @property
    def t_min(self) -> int:
        return int(self.sizes.min())

    @property
    def means(self) -> np.ndarray:
        """Empirical mean of every action (equal to ``empirical(a).mean()``)."""
        return pmf_means(self.points, self.pmf)

    def empirical(self, action: int) -> Marginal:
        sup = self.supports[action]
        return Marginal(sup, self.pmf[action, : sup.size])
