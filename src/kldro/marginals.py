"""Finite discrete marginal distributions on a shared cost support.

Every cost component ("action") takes values on one small, strictly
positive, strictly increasing grid of support points.  A data set stores
each observation as its index on that grid, all actions in one flat array;
observation counts may differ across actions, which is the whole point of
the library.  A block of R replicates is one data set with (R, actions)
counts over one flat index; one constructor builds either.

A pmf is an array with the support on its last axis, one row (d,) or any
stack of rows; :class:`PmfMatrix` is the one validated pmf container.  An
estimated probability is its exact ratio rounded once, never moved to make
a sum exact: c / T_a in a :class:`DataSet`, as are the rules' joint
probabilities and budget shares; an empirical row fsums to 1 or 1 - 2**-53.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Support",
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
    """Ordered, finite, strictly positive cost grid shared by the actions."""

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("support must be a nonempty 1-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("support points must be finite")
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


def _checked_pmfs(probs, support: Support) -> np.ndarray:
    """``probs`` as a read-only array of one row or a stack of rows that
    are pmfs on ``support``: entries in [0, 1] (so not NaN), each row
    summing to 1 within 1e-12."""
    p = _readonly(probs)
    if p.shape[-1:] != support.points.shape:
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
    """Pmfs on a shared :class:`Support`, validated once, with every row's
    mean: one row (d,), one per action (actions x d), or a block's
    (replicates x actions x d) stack.  ``means`` has the shape of the rows,
    () for one row, and a row's mean is bit-identical alone or stacked."""

    support: Support
    probs: np.ndarray
    means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = _checked_pmfs(self.probs, self.support)
        means = np.asarray(pmf_means(self.support.points, p))
        means.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "means", means)


@np.errstate(divide="ignore", invalid="ignore")
def kl_divergence(p, q) -> np.ndarray:
    """Relative entropy D(p || q) of pmf rows along the last axis (rows
    broadcast), with the 0 ln 0 = 0 and ln(x/0) = inf conventions."""
    p = np.asarray(p, dtype=float)
    return np.sum(np.where(p > 0.0, p * np.log(p / q), 0.0), axis=-1)


@dataclass(frozen=True)
class DataSet:
    """Observations of every action on one shared :class:`Support`, stored
    as support indices: ``index`` holds action 0's ``sizes[0]`` indices,
    then action 1's, and so on.  Counts may differ across actions.

    ``sizes`` is (actions,) for one data set or (R, actions) for a block
    of R replicates, whose flat index holds row 0's observations, then row
    1's.  Validation runs once over the flat counts: it checks every index
    against the support and builds the empirical pmfs, counts over
    ``sizes``, with one bincount, shaped (..., d) like ``sizes``; each row
    of a block equals the data set of its replicate.  ``index``, ``sizes``
    and ``pmf`` are read-only.

    ``cache`` holds the confidence splits the rules derive from a data
    set, so each is computed once per (data set, alpha).
    """

    support: Support
    index: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    pmf: np.ndarray = field(init=False, repr=False, compare=False)
    cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        index, sizes = np.asarray(self.index), np.asarray(self.sizes)
        if index.ndim != 1 or (index.size and index.dtype.kind not in "iu"):
            raise ValueError("index must be a 1-d integer array")
        if sizes.ndim not in (1, 2) or (sizes.size and sizes.dtype.kind not in "iu"):
            raise ValueError("sizes must be an (actions,) or (R, actions) integer array")
        index, sizes = index.astype(np.intp, copy=False), sizes.astype(np.intp, copy=False)
        if not sizes.size:
            raise ValueError("data set must cover at least one action")
        flat = sizes.ravel()
        if flat.min() < 1:
            raise ValueError(f"action {int(np.argmin(flat))}: at least one observation required")
        if int(flat.sum()) != index.size:
            raise ValueError(f"sizes sum to {int(flat.sum())} but index holds {index.size}")
        m, d = flat.size, self.support.size
        owner = np.repeat(np.arange(m), flat)
        if index.min() < 0 or index.max() >= d:
            k = int(np.argmax((index < 0) | (index >= d)))
            raise ValueError(f"action {owner[k]}: support index {int(index[k])} outside [0, {d})")
        counts = np.bincount(owner * d + index, minlength=m * d).reshape(*sizes.shape, d)
        pmf = counts / sizes[..., None]
        for name, value in (("index", index), ("sizes", sizes), ("pmf", pmf)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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
        """Empirical mean of every action (equal to ``empirical(a).means``)."""
        return pmf_means(self.support.points, self.pmf)

    # bench/trace_layers.py wraps this method by name.
    def empirical(self, action: int) -> PmfMatrix:
        return PmfMatrix(self.support, self.pmf[action])
