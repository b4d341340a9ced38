"""Finite discrete marginal distributions on a shared cost support.

Every cost component ("action") takes values on one small, strictly
positive, strictly increasing grid of support points.  A data set stores
each observation as its index on that grid, all actions in one flat array;
observation counts may differ across actions, which is the whole point of
the library.  A block of R replicates is one data set with (R, actions)
counts over one flat index (:meth:`DataSet.stacked`).
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
    "kl_divergence",
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
    """Ordered, strictly positive cost grid shared by the actions."""

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
        object.__setattr__(self, "probs", _checked_pmfs(self.probs, self.support, False))

    def mean(self) -> float:
        return float(pmf_means(self.support.points, self.probs))


def _checked_pmfs(probs, support: Support, stacked: bool) -> np.ndarray:
    """``probs`` as a read-only array of one row, or of rows ``stacked`` on
    two or more axes, that are pmfs on ``support``: entries in [0, 1] (so
    not NaN), each row summing to 1 within 1e-12."""
    p = _readonly(probs)
    if (p.ndim >= 2) != stacked or p.shape[-1:] != support.points.shape:
        raise ValueError("probs length must match support size")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    sums = np.sum(p, axis=-1, keepdims=True)
    off = np.abs(sums - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"probabilities sum to {float(sums[off][0])!r}, not 1")
    return p


@dataclass(frozen=True)
class PmfMatrix:
    """One pmf per action on a shared :class:`Support`, as an
    (actions x d) matrix validated once, with every row's mean; a block of
    replicates stacks its matrices into one (replicates x actions x d).

    Indexing a matrix builds the per-action :class:`Marginal` on demand;
    ``means[a]`` equals ``self[a].mean()`` bit for bit.
    """

    support: Support
    probs: np.ndarray
    means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = _checked_pmfs(self.probs, self.support, True)
        means = pmf_means(self.support.points, p)
        means.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "means", means)

    def __len__(self) -> int:
        return self.probs.shape[0]

    def __getitem__(self, action: int) -> Marginal:
        return Marginal(self.support, self.probs[action])


def _absorb_rounding(probs: np.ndarray, target: float, index: int) -> None:
    """Adjust ``probs[index]`` until math.fsum(probs) equals ``target``.

    fsum computes the exact sum rounded once, so it is monotone in any
    single entry; stepping an entry whose ulp is finer than the total's
    walks the rounded sum through every representable value, so bisection
    reaches the target exactly.  Callers pass the index of the smallest
    positive entry for exactly that reason; the adjustment stays within a
    few of its ulps.  Raises ``RuntimeError`` when no value of the entry
    hits the target, leaving the entry unchanged.
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
    probs[index] = base
    raise RuntimeError(f"no value at index {index} makes the sum exactly {target!r}")


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
    # One int64 temporary, truncated as astype does: for a block's pmf a
    # float temporary as well costs more than the arithmetic.
    total = np.multiply(pmf, 2.0**62, out=np.empty(pmf.shape, np.int64), casting="unsafe").sum(1)
    one = (total >= 2**62 - 2**8) & (total <= 2**62 + 2**9)
    for a in np.flatnonzero(sizes > 1024):
        one[a] = math.fsum(pmf[a]) == 1.0
    return one


@dataclass(frozen=True)
class DataSet:
    """Observations of every action on one shared :class:`Support`, stored
    as support indices: ``index`` holds action 0's ``sizes[0]`` indices,
    then action 1's, and so on.  Counts may differ across actions.

    Validation checks every index against the support and builds the
    empirical pmfs once, as the (actions x d) matrix ``pmf``, with one
    bincount.  Each row whose ``math.fsum`` is not exactly 1.0 is fixed up,
    the smallest observed entry absorbing the rounding; ``_fsum_is_one``
    finds those rows with one exact integer sum per row instead of an fsum.
    ``index`` and ``sizes`` become read-only.

    A block (:meth:`stacked`) has (R, actions) ``sizes`` and an (R,
    actions, d) ``pmf``; each row equals the data set of its replicate.

    ``cache`` holds what the rules derive from a data set (its truncation,
    its confidence splits), so each is computed once per data set.
    """

    support: Support
    index: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    pmf: np.ndarray = field(init=False, repr=False, compare=False)
    cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        index, sizes = np.asarray(self.index), np.asarray(self.sizes)
        for name, arr in (("index", index), ("sizes", sizes)):
            if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
                raise ValueError(f"{name} must be a 1-d integer array")
        index, sizes = index.astype(np.intp, copy=False), sizes.astype(np.intp, copy=False)
        if not sizes.size:
            raise ValueError("data set must cover at least one action")
        if sizes.min() < 1:
            raise ValueError(f"action {int(np.argmin(sizes))}: at least one observation required")
        if int(sizes.sum()) != index.size:
            raise ValueError(f"sizes sum to {int(sizes.sum())} but index holds {index.size}")
        m, d = sizes.size, self.support.size
        owner = np.repeat(np.arange(m), sizes)
        if index.min() < 0 or index.max() >= d:
            k = int(np.argmax((index < 0) | (index >= d)))
            raise ValueError(f"action {owner[k]}: support index {int(index[k])} outside [0, {d})")
        counts = np.bincount(owner * d + index, minlength=m * d).reshape(m, d)
        pmf = counts / sizes[:, None]
        for a in np.flatnonzero(~_fsum_is_one(pmf, sizes)):
            seen = np.flatnonzero(counts[a])
            _absorb_rounding(pmf[a], 1.0, int(seen[np.argmin(pmf[a, seen])]))
        for name, value in (("index", index), ("sizes", sizes), ("pmf", pmf)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def stacked(cls, support: Support, index, sizes) -> "DataSet":
        """The data set of counts ``sizes`` of any shape, (R, actions) for a
        block, validated once over all its rows."""
        data, shape = cls(support, index, np.ravel(sizes)), np.shape(sizes)
        object.__setattr__(data, "sizes", data.sizes.reshape(shape))
        object.__setattr__(data, "pmf", data.pmf.reshape(*shape, -1))
        return data

    @property
    def num_actions(self) -> int:
        return self.sizes.shape[-1]

    @property
    def t_min(self):
        """The least count; one per replicate for a block."""
        least = self.sizes.min(axis=-1)
        return least if least.ndim else int(least)

    @property
    def means(self) -> np.ndarray:
        """Empirical mean of every action (equal to ``empirical(a).mean()``)."""
        return pmf_means(self.support.points, self.pmf)

    def empirical(self, action: int) -> Marginal:
        return Marginal(self.support, self.pmf[action])
