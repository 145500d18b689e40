"""Distance-profile embeddings into finite-dimensional sup-metric space.

A covering enumeration (x_1, ..., x_m) of a finite metric space sends each
point x to its distance profile (d(x_1, x), ..., d(x_m, x)).  Because every
point appears in the enumeration, the sup metric between profiles reproduces
d exactly.  The timed variant prepends tau as coordinate zero, which can only
be dominated by the distance coordinates since tau is 1-Lipschitz, so it is
distance preserving as well.

Hausdorff distances here are the closed max-min form: for finite sets the
infimum over admissible thresholds is attained, so no strict-epsilon bookkeeping
is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoordinateMismatch,
    EmptyCloud,
    EmptySubset,
    IncompleteEnumeration,
    IndexOutOfRange,
    TooFewCoordinates,
)
from .spaces import (
    FiniteMetricSpace,
    TimedMetricSpace,
    _check_index,
    _check_type,
    _maxmin,
    _readonly,
)


@dataclass(frozen=True)
class Enumeration:
    """A finite list of point indices; repetitions allowed."""

    seq: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.seq)


@dataclass(frozen=True)
class LinftyCloud:
    """A finite set of m-dimensional vectors carrying the sup metric.

    coords has one row per point; column k is the k-th coordinate.
    """

    coords: np.ndarray

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def m(self) -> int:
        return self.coords.shape[1]


def _check_enumeration(n: int, enum: Enumeration) -> None:
    if len(enum.seq) == 0:
        raise IncompleteEnumeration("enumeration is empty")
    for k in enum.seq:
        _check_index(k, n, "enumeration index", IndexOutOfRange)
    if len(set(enum.seq)) != n:
        missing = sorted(set(range(n)) - set(enum.seq))
        raise IncompleteEnumeration(f"enumeration misses points {missing}")


def frechet_embed(space: FiniteMetricSpace, enum: Enumeration) -> LinftyCloud:
    """Embed each point as its distance profile along the enumeration."""
    _check_enumeration(space.n, enum)
    idx = np.array(enum.seq, dtype=int)
    coords = space.d[idx, :].T.copy()
    return LinftyCloud(coords=_readonly(coords))


def timed_frechet_embed(timed: TimedMetricSpace, enum: Enumeration) -> LinftyCloud:
    """Like frechet_embed, with tau prepended as coordinate zero (TypeError
    for a space that is not a TimedMetricSpace)."""
    _check_type(timed, TimedMetricSpace, "timed")
    _check_enumeration(timed.n, enum)
    idx = np.array(enum.seq, dtype=int)
    coords = np.concatenate([timed.tau[:, None], timed.d[idx, :].T], axis=1)
    return LinftyCloud(coords=_readonly(coords))


def delete_first_coordinate(cloud: LinftyCloud) -> LinftyCloud:
    if cloud.m < 2:
        raise TooFewCoordinates(f"cannot delete a coordinate from m = {cloud.m}")
    return LinftyCloud(coords=_readonly(cloud.coords[:, 1:].copy()))


def sup_distances(a: LinftyCloud, b: LinftyCloud) -> np.ndarray:
    """All pairwise sup-metric distances between two clouds (rows of a by rows of b)."""
    if a.size == 0 or b.size == 0:
        raise EmptyCloud("clouds must be nonempty")
    if a.m != b.m:
        raise CoordinateMismatch(f"coordinate counts differ: {a.m} vs {b.m}")
    return np.abs(a.coords[:, None, :] - b.coords[None, :, :]).max(axis=2)


def hausdorff_sup(a: LinftyCloud, b: LinftyCloud) -> float:
    """Hausdorff distance between two clouds under the sup metric."""
    return _maxmin(sup_distances(a, b))


def hausdorff_in(space: FiniteMetricSpace, subset_a, subset_b) -> float:
    """Hausdorff distance between two nonempty index subsets inside one space."""
    a = list(subset_a)
    b = list(subset_b)
    if not a or not b:
        raise EmptySubset("subsets must be nonempty")
    for i in a + b:
        _check_index(i, space.n, error=IndexOutOfRange)
    return _maxmin(space.d[np.ix_(a, b)])
