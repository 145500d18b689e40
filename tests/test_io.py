import json
import math

import numpy as np
import pytest

import tml
from tml.errors import Asymmetry, ParseError, SchemaError, ValidationError


def test_round_trip_metric(tmp_path, path3):
    target = tmp_path / "path.json"
    tml.write_space(path3, target, name="path3")
    loaded = tml.read_space(target)
    assert isinstance(loaded, tml.FiniteMetricSpace)
    assert loaded.labels == path3.labels
    assert np.array_equal(loaded.d, path3.d)


def test_round_trip_timed(tmp_path, path3):
    timed = tml.make_future_developed(path3, [0, 2])
    target = tmp_path / "timed.json"
    tml.write_space(timed, target)
    text = target.read_text()
    assert '"zero_set"' in text
    loaded = tml.read_space(target)
    assert isinstance(loaded, tml.TimedMetricSpace)
    assert np.array_equal(loaded.tau, timed.tau)
    assert np.array_equal(loaded.d, timed.d)
    # serialization is bit exact, so a second round trip writes identical bytes
    second = tmp_path / "again.json"
    tml.write_space(loaded, second)
    assert second.read_bytes() == target.read_bytes()


@pytest.mark.parametrize("name", [5, None, b"path3", ["path3"]])
def test_write_refuses_a_name_read_would_refuse(tmp_path, path3, name):
    target = tmp_path / "path.json"
    with pytest.raises(TypeError, match=f"^name must be a str, got {type(name).__name__}$"):
        tml.write_space(path3, target, name=name)
    assert not target.exists()
    tml.write_space(path3, target, name=str(name))
    assert json.loads(target.read_text())["name"] == str(name)
    assert tml.read_space(target).labels == path3.labels


def test_round_trip_preserves_awkward_floats(tmp_path):
    d = np.array([[0.0, 0.1], [0.1, 0.0]])
    space = tml.build_metric_space(("a", "b"), d)
    target = tmp_path / "tenth.json"
    tml.write_space(space, target)
    loaded = tml.read_space(target)
    assert loaded.d[0, 1] == 0.1


def test_read_rejects_bad_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text('{"name": "x", "labels": ["a"]')
    with pytest.raises(ParseError) as info:
        tml.read_space(target)
    assert "line" in str(info.value)


def test_read_rejects_missing_keys(tmp_path):
    target = tmp_path / "missing.json"
    target.write_text('{"name": "x", "labels": ["a"]}')
    with pytest.raises(SchemaError):
        tml.read_space(target)


def test_read_rejects_unknown_keys(tmp_path):
    target = tmp_path / "extra.json"
    target.write_text('{"name": "x", "labels": ["a"], "d": [[0.0]], "mass": [1.0]}')
    with pytest.raises(SchemaError) as info:
        tml.read_space(target)
    assert "mass" in str(info.value)


def test_read_rejects_boolean_entries(tmp_path):
    target = tmp_path / "bools.json"
    target.write_text('{"name": "x", "labels": ["a"], "d": [[false]]}')
    with pytest.raises(SchemaError):
        tml.read_space(target)


def test_read_rejects_asymmetric_matrix(tmp_path):
    target = tmp_path / "skew.json"
    target.write_text(
        '{"name": "x", "labels": ["a", "b"], "d": [[0.0, 1.0], [2.0, 0.0]]}'
    )
    with pytest.raises(ValidationError) as info:
        tml.read_space(target)
    assert any(isinstance(v, Asymmetry) for v in info.value.violations)


def write_table(path, d):
    path.write_text(json.dumps({"name": "x", "labels": [f"p{i}" for i in range(len(d))], "d": d}))


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "expected a number, got True"),
        ("0.25", "expected a number, got '0.25'"),
        (10**400, "integer too large for a float"),
    ],
    ids=["true", "string", "400-digit-integer"],
)
def test_read_names_the_bad_entry_of_a_large_table(tmp_path, value, message):
    # A row of numbers converts in one call; a bad entry still names itself.
    d = [[abs(i - j) / 4.0 for j in range(60)] for i in range(60)]
    d[37][21] = value
    target = tmp_path / "bad.json"
    write_table(target, d)
    with pytest.raises(SchemaError) as info:
        tml.read_space(target)
    assert str(info.value) == f"{target}: d[37][21]: {message}"


def test_read_names_the_first_bad_row(tmp_path):
    d = [[float(abs(i - j)) for j in range(5)] for i in range(5)]
    d[1][3], d[2] = "x", d[2][:4]
    target = tmp_path / "short.json"
    write_table(target, d)
    with pytest.raises(SchemaError) as info:
        tml.read_space(target)
    assert str(info.value) == f"{target}: d[1][3]: expected a number, got 'x'"
    d[1][3] = 2.0
    write_table(target, d)
    with pytest.raises(SchemaError) as info:
        tml.read_space(target)
    assert str(info.value) == f"{target}: 'd' row 2 must have 5 entries"


@pytest.mark.parametrize(
    "big", [(2**53 + 1, 2**53 + 3, 2**54 - 1), (2**63 + 5, 2**64 - 1, 2**64 + 2**11 + 1)],
    ids=["above-2**53", "past-int64"],
)
def test_read_converts_large_integers_like_float(tmp_path, big):
    # Above 2**53 a float rounds; the table must hold float(int).  Each
    # triangle of three such sides holds, as no side is twice another.
    d = [[0, big[0], big[1]], [big[0], 0, big[2]], [big[1], big[2], 0]]
    target = tmp_path / "big.json"
    write_table(target, d)
    loaded = tml.read_space(target)
    assert loaded.d.tolist() == [[float(v) for v in row] for row in d]
    assert float(big[0]) != big[0]


def test_zero_set_must_match_time_zeros(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        '{"name": "x", "labels": ["a", "b"], "d": [[0.0, 1.0], [1.0, 0.0]],'
        ' "tau": [0.0, 1.0], "zero_set": ["a"]}'
    )
    loaded = tml.read_space(good)
    assert isinstance(loaded, tml.TimedMetricSpace)

    wrong = tmp_path / "wrong.json"
    wrong.write_text(
        '{"name": "x", "labels": ["a", "b"], "d": [[0.0, 1.0], [1.0, 0.0]],'
        ' "tau": [0.0, 1.0], "zero_set": ["b"]}'
    )
    with pytest.raises(SchemaError):
        tml.read_space(wrong)

    untimed = tmp_path / "untimed.json"
    untimed.write_text(
        '{"name": "x", "labels": ["a"], "d": [[0.0]], "zero_set": ["a"]}'
    )
    with pytest.raises(SchemaError):
        tml.read_space(untimed)


def test_write_report_csv(tmp_path):
    rows = [
        {"suite": "demo", "trial": 0, "lhs": 0.5, "rhs": 1.0, "passed": True, "note": None},
        {"suite": "demo", "trial": 1, "lhs": float("inf"), "rhs": 2.0, "passed": False, "note": "x"},
    ]
    target = tmp_path / "report.csv"
    tml.write_report(rows, target, fmt="csv")
    lines = target.read_text().splitlines()
    assert lines[0] == "suite,trial,lhs,rhs,passed,note"
    assert lines[1] == "demo,0,0.5,1.0,true,"
    assert lines[2] == "demo,1,inf,2.0,false,x"


def test_write_report_jsonl(tmp_path):
    rows = [{"b": 1, "a": np.float64(0.25)}]
    target = tmp_path / "report.jsonl"
    tml.write_report(rows, target, fmt="jsonl")
    assert target.read_text() == '{"a": 0.25, "b": 1}\n'
    with pytest.raises(ValueError):
        tml.write_report(rows, target, fmt="xml")


def test_write_report_jsonl_is_strict_json(tmp_path):
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    rows = [{"a": math.inf, "b": math.nan, "c": -math.inf, "d": np.float64("nan"), "e": 0.5}]
    target = tmp_path / "report.jsonl"
    tml.write_report(rows, target, fmt="jsonl")
    (line,) = target.read_text().splitlines()
    assert json.loads(line, parse_constant=reject) == {
        "a": "inf", "b": "nan", "c": "-inf", "d": "nan", "e": 0.5
    }
    tml.write_report(rows, tmp_path / "report.csv", fmt="csv")
    assert (tmp_path / "report.csv").read_text().splitlines()[1] == "inf,nan,-inf,nan,0.5"
