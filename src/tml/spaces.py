"""Finite metric spaces, time functions, and structure classification.

A timed metric space is a finite metric space together with a nonnegative
1-Lipschitz time function tau.  Spaces where time is exactly the distance to
a single origin point ("big bang") or to the whole zero-time set ("future
developed") are recognized by ``classify`` via defect functionals computed in
``structure_report``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    Asymmetry,
    IndistinctPoints,
    LipschitzViolation,
    NegativeEntry,
    NegativeTime,
    NonzeroDiagonal,
    TriangleViolation,
    ValidationError,
)

DEFAULT_TOL = 1e-9

# Cells of the gap table the triangle check holds at once: 2**14 float64
# entries, 128 KB, which stays in cache and below glibc's default mmap
# threshold (on a 2-core Xeon VM, 2**16 ran the n = 50 check 1.5-2x slower).
# The whole n**3 table would take 27 MB at n = 150.
TRIANGLE_CELLS = 1 << 14


def _readonly(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _maxmin(block: np.ndarray) -> float | np.ndarray:
    """Hausdorff value of a table of distances between two finite sets: the
    larger of the worst row minimum and the worst column minimum.  A float for
    one (m, n) table; one value per table for a stack of tables (k, m, n).

    A stack is copied once with k innermost and reduced over its two outer
    axes: numpy then reduces whole rows of k values at once, under 1 ns an
    entry, where reducing the two short last axes costs 4-7 ns (numpy 2.4).
    Min and max are exact, so each value is its table's own, bit for bit.
    An explicit transpose costs about 3 us a call less than np.moveaxis."""
    if block.ndim == 2:
        return float(np.maximum(block.min(axis=-1).max(axis=-1), block.min(axis=-2).max(axis=-1)))
    t = block.transpose(1, 2, 0).copy()
    return np.maximum(t.min(axis=1).max(axis=0), t.min(axis=0).max(axis=0))


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A validated metric on n labeled points, stored as a dense table.

    Construct through :func:`build_metric_space`; instances are immutable.
    """

    labels: tuple[str, ...]
    d: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.d.max()) if self.n else 0.0

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no point labeled {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={self.n}, diameter={self.diameter!r})"


@dataclass(frozen=True)
class TimedMetricSpace:
    """A finite metric space with a nonnegative 1-Lipschitz time function."""

    base: FiniteMetricSpace
    tau: np.ndarray

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels

    @property
    def d(self) -> np.ndarray:
        return self.base.d

    @property
    def tau_max(self) -> float:
        return float(self.tau.max())

    def __repr__(self) -> str:
        return f"TimedMetricSpace(n={self.n}, tau_max={self.tau_max!r})"


def metric_violations(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """Collect every metric-constraint violation in an n-by-n real table.

    Checks symmetry (exact), zero diagonal (exact), nonnegativity, point
    distinctness (off-diagonal entries must exceed tol), and all triangle
    inequalities up to tol.  Triangle violations are reported once per
    canonical triple (i < k, middle point j), ordered by (i, k, j).

    The triangle check takes the table in blocks of rows and holds only one
    block's arrays in memory, never the n**3 gap table: TRIANGLE_CELLS
    entries each, or n * n when one row alone has more.  Each gap is
    d[i][k] - (d[i][j] + d[j][k]), rounded as written, so amounts and the
    test against tol match a plain loop over the triples bit for bit.  A tol
    that is not a finite real >= 0 raises ValueError.
    """
    _check_tol(tol)
    d = np.asarray(matrix, dtype=float)
    n = d.shape[0]
    found = [NonzeroDiagonal(i, v) for i, v in enumerate(d.diagonal().tolist()) if v != 0.0]
    # A superset of the pairs the checks below flag; each is decided as written.
    flagged = (d != d.T) | (d < 0.0) | (d <= tol)
    for i, j in zip(*np.nonzero(flagged)):
        if i >= j:
            continue
        i, j = int(i), int(j)
        if d[i, j] != d[j, i]:
            found.append(Asymmetry(i, j, float(d[i, j] - d[j, i])))
        if d[i, j] < 0.0 or d[j, i] < 0.0:
            found.append(NegativeEntry(i, j, float(min(d[i, j], d[j, i]))))
        elif d[i, j] <= tol:
            found.append(IndistinctPoints(i, j, float(d[i, j])))
    if n < 3:  # no triangle without three points
        return found
    step = max(1, TRIANGLE_CELLS // (n * n))
    for start in range(0, n, step):
        rows = d[start : start + step]
        # gap[b, c, j] = d[i, k] - (d[i, j] + d[j, k]) for i = start + b and
        # k = start + 1 + c: only the columns k > start can hold a canonical triple.
        gap = rows[:, start + 1 :, None] - (rows[:, None, :] + d.T[start + 1 :])
        over = gap > tol
        if not over.any():  # np.nonzero of a 3-d mask costs more than the gaps
            continue
        for b, c, j in zip(*np.nonzero(over)):
            i, j, k = start + int(b), int(j), start + 1 + int(c)
            if i < k and j != i and j != k:
                found.append(TriangleViolation(i, j, k, float(gap[b, c, j])))
    return found


def time_violations(space: FiniteMetricSpace, tau: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """Collect violations of nonnegativity and the 1-Lipschitz property of tau.
    A tol that is not a finite real >= 0 raises ValueError."""
    _check_tol(tol)
    t = np.asarray(tau, dtype=float)
    found = [NegativeTime(i, v) for i, v in enumerate(t.tolist()) if v < 0.0]
    gap = np.abs(t[:, None] - t) - space.d
    for i, j in zip(*np.nonzero(gap > tol)):
        if i < j:
            found.append(LipschitzViolation(int(i), int(j), float(gap[i, j])))
    return found


def build_metric_space(labels, matrix, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Validate a distance table and return the space, or raise ValidationError.

    The error carries the complete list of violations, so a caller sees every
    problem at once rather than the first.
    """
    labels = tuple(str(x) for x in labels)
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance table must be square, got shape {d.shape}")
    if d.shape[0] != len(labels):
        raise ValueError(f"{len(labels)} labels for a {d.shape[0]}-point table")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if len(labels) == 0:
        raise ValueError("a space needs at least one point")
    if not np.isfinite(d).all():
        raise ValueError("distance entries must be finite reals")
    found = metric_violations(d, tol)
    if found:
        raise ValidationError(found)
    return FiniteMetricSpace(labels=labels, d=_readonly(d))


def build_timed_space(space: FiniteMetricSpace, tau, tol: float = DEFAULT_TOL) -> TimedMetricSpace:
    """Attach a time function to a validated space, or raise ValidationError
    (TypeError for a space that is not a FiniteMetricSpace, timed ones too)."""
    _check_type(space, FiniteMetricSpace)
    t = np.asarray(tau, dtype=float)
    if t.shape != (space.n,):
        raise ValueError(f"tau must have shape ({space.n},), got {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("time values must be finite reals")
    found = time_violations(space, t, tol)
    if found:
        raise ValidationError(found)
    return TimedMetricSpace(base=space, tau=_readonly(t))


class SpaceClass(Enum):
    BIG_BANG = "big-bang"
    FUTURE_DEVELOPED = "future-developed"
    GENERIC = "generic"


@dataclass(frozen=True)
class StructureReport:
    """Defect functionals describing how close tau is to a distance-to-origin shape.

    zero_set   indices with tau <= delta
    zero_diam  diameter of the zero set (0.0 when it has at most one point)
    fd_defect  max over points of |tau(x) - d(zero_set, x)|; +inf for empty zero set
    bb_defect  max(fd_defect, zero_diam)
    min_tau    smallest time value
    """

    zero_set: tuple[int, ...]
    zero_diam: float
    fd_defect: float
    bb_defect: float
    min_tau: float


def structure_report(timed: TimedMetricSpace, delta: float = 0.0) -> StructureReport:
    """The zero set (times <= delta) and the defects `classify` reads off it.
    A delta that is not a finite real >= 0 raises ValueError, a space that is
    not a TimedMetricSpace TypeError."""
    _check_tol(delta, "delta")
    _check_type(timed, TimedMetricSpace, "timed")
    tau = timed.tau
    zero = tuple(int(i) for i in range(timed.n) if tau[i] <= delta)
    if not zero:
        return StructureReport(
            zero_set=zero,
            zero_diam=0.0,
            fd_defect=math.inf,
            bb_defect=math.inf,
            min_tau=float(tau.min()),
        )
    idx = np.array(zero, dtype=int)
    zero_diam = float(timed.d[np.ix_(idx, idx)].max()) if len(zero) > 1 else 0.0
    dist_to_zero = timed.d[idx, :].min(axis=0)
    fd_defect = float(np.abs(tau - dist_to_zero).max())
    return StructureReport(
        zero_set=zero,
        zero_diam=zero_diam,
        fd_defect=fd_defect,
        bb_defect=max(fd_defect, zero_diam),
        min_tau=float(tau.min()),
    )


def _check_tol(tol, name: str = "tol") -> None:
    """Refuse a classification tolerance `name` that is not a finite real
    >= 0 (bools included)."""
    if (isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating))
            or not 0 <= tol < math.inf):
        raise ValueError(f"{name} must be a finite real >= 0, got {tol!r}")


def _check_index(i, n: int, name: str = "index", error: type[Exception] = ValueError) -> None:
    """Refuse, with `error`, an index `name` that is not an integer in
    [0, n): a bool or a float is refused too."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < n:
        raise error(f"{name} {i!r} is not an integer in [0, {n})")


def _check_count(value, name: str, least: int, error: type[Exception] = ValueError) -> None:
    """Refuse, with `error`, a count `name` that is not an integer >= least:
    a bool or a float is refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def _check_type(value, cls: type, name: str = "space") -> None:
    """Refuse, with TypeError, a `name` that is not a `cls`."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def classify(timed: TimedMetricSpace, tol: float = DEFAULT_TOL) -> SpaceClass:
    """Classify a timed space, reporting the strongest class that applies.

    Big bang requires a single zero-time point with tau equal to the distance
    from it (bb_defect <= tol); future developed requires tau equal to the
    distance from the whole zero set (fd_defect <= tol, zero set nonempty).
    A big bang space is in particular future developed; the stronger class
    is returned.  A tol that is not a finite real >= 0 raises ValueError, a
    space that is not a TimedMetricSpace TypeError.
    """
    _check_tol(tol)
    return report_class(structure_report(timed, delta=tol), tol)


def report_class(report: StructureReport, tol: float = DEFAULT_TOL) -> SpaceClass:
    """The class `classify` reads off a structure report taken at delta = tol."""
    if report.bb_defect <= tol and len(report.zero_set) == 1:
        return SpaceClass.BIG_BANG
    if report.zero_set and report.fd_defect <= tol:
        return SpaceClass.FUTURE_DEVELOPED
    return SpaceClass.GENERIC
