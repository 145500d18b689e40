"""Exception types and validation-violation records used across the package.

Validation is total: every input either yields a value or raises an exception
carrying the complete list of violated constraints, each with indices and a
magnitude.  Nothing is silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass


class TmlError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Violation records collected by the validators.


@dataclass(frozen=True)
class Asymmetry:
    i: int
    j: int
    amount: float

    def describe(self) -> str:
        return f"d[{self.i}][{self.j}] != d[{self.j}][{self.i}] (difference {self.amount!r})"


@dataclass(frozen=True)
class NonzeroDiagonal:
    i: int
    value: float

    def describe(self) -> str:
        return f"d[{self.i}][{self.i}] = {self.value!r} is not zero"


@dataclass(frozen=True)
class NegativeEntry:
    i: int
    j: int
    value: float

    def describe(self) -> str:
        return f"d[{self.i}][{self.j}] = {self.value!r} is negative"


@dataclass(frozen=True)
class IndistinctPoints:
    i: int
    j: int
    value: float

    def describe(self) -> str:
        return f"points {self.i} and {self.j} are not distinct (d = {self.value!r})"


@dataclass(frozen=True)
class TriangleViolation:
    """d[i][k] exceeds d[i][j] + d[j][k] by `amount` (canonical orientation i < k)."""

    i: int
    j: int
    k: int
    amount: float

    def describe(self) -> str:
        return (
            f"d[{self.i}][{self.k}] > d[{self.i}][{self.j}] + d[{self.j}][{self.k}] "
            f"by {self.amount!r}"
        )


@dataclass(frozen=True)
class NegativeTime:
    i: int
    value: float

    def describe(self) -> str:
        return f"tau[{self.i}] = {self.value!r} is negative"


@dataclass(frozen=True)
class LipschitzViolation:
    """|tau[i] - tau[j]| exceeds d[i][j] by `amount`."""

    i: int
    j: int
    amount: float

    def describe(self) -> str:
        return f"|tau[{self.i}] - tau[{self.j}]| > d[{self.i}][{self.j}] by {self.amount!r}"


Violation = (
    Asymmetry
    | NonzeroDiagonal
    | NegativeEntry
    | IndistinctPoints
    | TriangleViolation
    | NegativeTime
    | LipschitzViolation
)


class ValidationError(TmlError):
    """Raised by the space builders; carries every violated constraint.  A
    table read from a file names the file first."""

    def __init__(self, violations, path=None):
        self.violations = list(violations)
        lines = "; ".join(v.describe() for v in self.violations)
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}{len(self.violations)} constraint(s) violated: {lines}")


# ---------------------------------------------------------------------------
# Embedding and cloud errors.


class IncompleteEnumeration(TmlError):
    """The enumeration does not list every point of the space."""


class IndexOutOfRange(TmlError):
    pass


class TooFewCoordinates(TmlError):
    pass


class CoordinateMismatch(TmlError):
    pass


class EmptyCloud(TmlError):
    pass


class EmptySubset(TmlError):
    pass


# ---------------------------------------------------------------------------
# Engine and construction errors.


class InvalidBasepoint(TmlError):
    pass


class NotBigBang(TmlError):
    def __init__(self, side: int, message: str = ""):
        self.side = side
        super().__init__(message or f"argument {side} is not a big bang space")


class NotFutureDeveloped(TmlError):
    def __init__(self, side: int, message: str = ""):
        self.side = side
        super().__init__(message or f"argument {side} is not future developed")


class DeltaTooSmall(TmlError):
    """Gluing offset too small to produce a metric; carries the violations."""

    def __init__(self, delta: float, violations):
        self.delta = delta
        self.violations = list(violations)
        detail = "; ".join(v.describe() for v in self.violations)
        super().__init__(f"delta = {delta!r} does not glue to a metric: {detail}")


class EmptySet(TmlError):
    pass


class InvalidSpec(TmlError):
    pass


class BudgetTooSmall(TmlError):
    """Exactness was required but the search budget did not allow it."""


# ---------------------------------------------------------------------------
# File format errors.


class ParseError(TmlError):
    pass


class SchemaError(TmlError):
    pass
