"""Reading and writing space files and campaign reports.

Space files are UTF-8 JSON objects:

    {
      "name": "example",
      "labels": ["a", "b"],
      "d": [[0.0, 1.0], [1.0, 0.0]],
      "tau": [0.0, 1.0],          # optional; omit for a plain metric space
      "zero_set": ["a"]           # optional; must equal the tau-zero labels
    }

Reals are serialized with Python's shortest round-trip repr, so writing a
space and reading it back reproduces every value bit for bit.  Reports are
flat CSV or JSONL with one row per check and no timestamps, which keeps
repeated runs byte-identical.  Both formats write a non-finite real as the
token ``inf``, ``-inf`` or ``nan`` (a JSON string in JSONL), so every JSONL
line is strict JSON.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .spaces import (
    FiniteMetricSpace,
    TimedMetricSpace,
    build_metric_space,
    build_timed_space,
)

AnySpace = Union[FiniteMetricSpace, TimedMetricSpace]

_ALLOWED_KEYS = {"name", "labels", "d", "tau", "zero_set"}
_REAL_TYPES = {int, float}  # JSON numbers; bool is neither


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: integer too large for a float") from None


def _table_of(rows: list, n: int) -> np.ndarray:
    """The n-by-n table a list of n rows spells out.  When every row is a
    list of n ints and floats, one numpy call converts it; otherwise, or when
    an integer is too large for a float, the rows are walked to name the first
    bad row or entry."""
    if all(isinstance(row, list) and len(row) == n and _REAL_TYPES.issuperset(map(type, row))
           for row in rows):
        try:
            return np.array(rows, dtype=float).reshape(n, n)
        except OverflowError:
            pass
    table = np.zeros((n, n))
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == n, f"'d' row {i} must have {n} entries")
        for j, value in enumerate(row):
            table[i, j] = _as_real(value, f"d[{i}][{j}]")
    return table


def read_space(path) -> AnySpace:
    """Load a space file; returns a timed space when 'tau' is present.  Every
    ParseError, SchemaError and ValidationError it raises starts with the
    path."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno} column {err.colno}: {err.msg}") from None
    except ValueError as err:  # bytes that are not UTF-8, an integer too long to read
        raise ParseError(f"{path}: {err}") from None
    try:
        return _space_of(data)
    except (SchemaError, ValueError) as err:  # the builders refuse a table by ValueError
        raise SchemaError(f"{path}: {err}") from None
    except ValidationError as err:
        raise ValidationError(err.violations, path) from None


def _space_of(data) -> AnySpace:
    """The space a parsed space file describes."""
    _require(isinstance(data, dict), "top level must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    _require(not unknown, f"unknown keys: {sorted(unknown)}")
    for key in ("name", "labels", "d"):
        _require(key in data, f"missing required key {key!r}")
    _require(isinstance(data["name"], str), "'name' must be a string")

    labels = data["labels"]
    _require(
        isinstance(labels, list) and all(isinstance(s, str) for s in labels),
        "'labels' must be a list of strings",
    )
    n = len(labels)

    rows = data["d"]
    _require(isinstance(rows, list) and len(rows) == n, f"'d' must be a list of {n} rows")
    space = build_metric_space(labels, _table_of(rows, n))

    if "tau" not in data:
        _require("zero_set" not in data, "'zero_set' requires 'tau'")
        return space

    tau_list = data["tau"]
    _require(
        isinstance(tau_list, list) and len(tau_list) == n,
        f"'tau' must be a list of {n} numbers",
    )
    tau = np.array([_as_real(v, f"tau[{i}]") for i, v in enumerate(tau_list)])
    timed = build_timed_space(space, tau)

    if "zero_set" in data:
        declared = data["zero_set"]
        _require(
            isinstance(declared, list) and all(isinstance(s, str) for s in declared),
            "'zero_set' must be a list of strings",
        )
        actual = {labels[i] for i in range(n) if tau[i] == 0.0}
        _require(
            set(declared) == actual and len(declared) == len(set(declared)),
            f"'zero_set' must equal the tau-zero labels {sorted(actual)}",
        )
    return timed


def write_space(space: AnySpace, path, name: str = "space") -> None:
    """Serialize a space to JSON with full-precision reals."""
    if isinstance(space, TimedMetricSpace):
        base, tau = space.base, space.tau
    else:
        base, tau = space, None
    payload: dict = {
        "name": name,
        "labels": list(base.labels),
        "d": [[float(v) for v in row] for row in base.d],
    }
    if tau is not None:
        payload["tau"] = [float(v) for v in tau]
        payload["zero_set"] = [base.labels[i] for i in range(base.n) if tau[i] == 0.0]
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _plain(value):
    """Coerce numpy scalars so json/csv render them like python builtins, and
    non-finite reals to their tokens "inf", "-inf" and "nan"."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _render_csv_cell(value) -> str:
    value = _plain(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_report(rows: Iterable[Mapping], path, fmt: str = "csv") -> None:
    """Write report rows (mappings sharing one key set) as CSV or JSONL.

    Output contains no timestamps or environment data, so identical inputs
    produce identical bytes.
    """
    rows = list(rows)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if not rows:
                return
            writer = csv.writer(fh, lineterminator="\n")
            header: Sequence[str] = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_render_csv_cell(row[k]) for k in header])
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                row = {k: _plain(v) for k, v in row.items()}
                fh.write(json.dumps(row, sort_keys=True, allow_nan=False))
                fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


__all__ = ["read_space", "write_space", "write_report"]
