import json
import time

import numpy as np
import pytest

import tml
import tml.cli
from tml.cli import main
from tml.harness import ReportRow

from conftest import DRIVERS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_validate_classify_flow(tmp_path, capsys):
    target = str(tmp_path / "space.json")
    code, out, err = run(capsys, "gen", "--model", "euclidean", "--time", "cone",
                         "--n", "4", "--seed", "7", "-o", target)
    assert code == 0
    assert target in out

    code, out, err = run(capsys, "validate", target)
    assert code == 0
    assert "valid timed metric space with 4 point(s)" in out
    assert "big-bang" in out

    code, out, err = run(capsys, "classify", target)
    assert code == 0
    assert "big-bang" in out


def test_gen_untimed_then_metric_only_validate(tmp_path, capsys):
    target = str(tmp_path / "plain.json")
    assert run(capsys, "gen", "--model", "graph", "--n", "3", "--seed", "1",
               "-o", target)[0] == 0
    code, out, err = run(capsys, "validate", target)
    assert code == 0
    assert "valid metric space" in out
    code, out, err = run(capsys, "classify", target)
    assert code == 0
    assert "metric (no time function)" in out


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"name": "x", "labels": ["a", "b"], "d": [[0.0, -1.0], [-1.0, 0.0]]}'
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith(f"error: {bad}: "), err
    # A time function that breaks the Lipschitz bound names the file too.
    bad.write_text(
        '{"name": "x", "labels": ["a", "b"], "d": [[0, 1], [1, 0]], "tau": [0, 5]}'
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith(f"error: {bad}: "), err
    assert "|tau[0] - tau[1]| > d[0][1] by 4.0" in err, err
    # Tables the validator refuses before checking the metric axioms: JSON
    # NaN/Infinity entries, repeated labels, no points.
    square = '"d": [[0, 1], [1, 0]]'
    for text in (
        '{"name": "x", "labels": ["a", "b"], "d": [[0, Infinity], [Infinity, 0]]}',
        '{"name": "x", "labels": ["a", "b"], "d": [[0, NaN], [NaN, 0]]}',
        '{"name": "x", "labels": ["a", "b"], ' + square + ', "tau": [0, NaN]}',
        '{"name": "x", "labels": ["a", "b"], ' + square + ', "tau": [0, Infinity]}',
        '{"name": "x", "labels": ["a", "a"], ' + square + '}',
        '{"name": "x", "labels": [], "d": []}',
        # A missing key, and an integer too large for a float.
        '{"name": "x"}',
        '{"name": "x", "labels": ["a", "b"], "d": [[0, 1' + "0" * 400 + '], [1, 0]]}',
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1, text
        assert err.startswith(f"error: {bad}: "), err
    # Bytes that are not UTF-8 are a parse error, like malformed JSON.
    bad.write_bytes(b'{"name": "\xff"}')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith(f"error: {bad}: "), err


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_gen_rejects_a_dimension_below_one(dim, tmp_path, capsys):
    target = tmp_path / "space.json"
    code, out, err = run(capsys, "gen", "--n", "3", "--seed", "1", "--dim", dim, "-o", str(target))
    assert code == 2
    assert err == f"error: dim must be an integer >= 1, got {dim}\n"
    assert not target.exists()


@pytest.mark.parametrize("option, value", [("--subset-size", "0"), ("--anchors", "-2")])
def test_gen_rejects_a_count_below_one(option, value, tmp_path, capsys):
    target = tmp_path / "space.json"
    code, out, err = run(capsys, "gen", "--n", "3", "--seed", "1", "--time", "set-cone",
                         option, value, "-o", str(target))
    assert code == 2
    name = option[2:].replace("-", "_")
    assert err == f"error: {name} must be an integer >= 1, got {value}\n"
    assert not target.exists()


def test_dist_json_output(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(capsys, "gen", "--n", "3", "--seed", "2", "-o", a)
    run(capsys, "gen", "--n", "2", "--seed", "3", "--model", "graph", "-o", b)
    code, out, err = run(capsys, "dist", "--kind", "gh", a, b, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "gh"
    assert payload["exact"] is True
    assert payload["lower"] == payload["upper"]
    assert payload["certificate"]

    code, out, err = run(capsys, "dist", "--kind", "kappa-gh", a, b)
    assert code == 0
    assert "kind: kappa-gh" in out
    assert "<->" in out


def test_dist_timed_kind_needs_timed_file(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(capsys, "gen", "--n", "3", "--seed", "2", "-o", a)
    run(capsys, "gen", "--n", "3", "--seed", "2", "--time", "cone", "-o", b)
    code, out, err = run(capsys, "dist", "--kind", "tau-h", a, b)
    assert code == 1
    assert "timed" in err

    code, out, err = run(capsys, "dist", "--kind", "tau-h", b, b)
    assert code == 0
    assert "upper: 0.0" in out


def test_dist_pointed_needs_basepoints(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    run(capsys, "gen", "--n", "3", "--seed", "4", "-o", a)
    code, out, err = run(capsys, "dist", "--kind", "pt-gh", a, a)
    assert code == 2
    assert "--p1" in err

    space = tml.read_space(a)
    label = space.labels[0]
    code, out, err = run(capsys, "dist", "--kind", "pt-gh", a, a,
                         "--p1", label, "--p2", label)
    assert code == 0
    assert "upper: 0.0" in out


def test_dist_bb_gh_on_worked_pair(tmp_path, capsys):
    two = tml.build_timed_space(
        tml.build_metric_space(("p", "x"), np.array([[0.0, 1.0], [1.0, 0.0]])),
        np.array([0.0, 1.0]),
    )
    one = tml.build_timed_space(
        tml.build_metric_space(("q",), np.zeros((1, 1))), np.zeros(1)
    )
    a, b = str(tmp_path / "two.json"), str(tmp_path / "one.json")
    tml.write_space(two, a)
    tml.write_space(one, b)
    code, out, err = run(capsys, "dist", "--kind", "bb-gh", a, b, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 0.5
    assert payload["upper"] == 1.0
    assert payload["anchor"] == ["p", "q"]

    code, out, err = run(capsys, "dist", "--kind", "tau-h", a, b)
    assert code == 0
    assert "upper: 1.0" in out


def test_campaign_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, err = run(capsys, "campaign", "--suite", "sandwich", "--trials", "5",
                         "--nmax", "3", "--seed", "1", "--out", str(out_path))
    assert code == 0
    assert "5 rows, 5 passed, 0 failed" in out
    lines = out_path.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("suite,trial,check")


def test_campaign_rejects_oversize_nmax(tmp_path, capsys):
    code, out, err = run(capsys, "campaign", "--suite", "sandwich", "--trials", "1",
                         "--nmax", "9", "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "error:" in err


def test_campaign_rejects_a_negative_seed(tmp_path, capsys):
    code, out, err = run(capsys, "campaign", "--suite", "order", "--trials", "1",
                         "--seed", "-1", "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "r.csv").exists()


def test_campaign_reports_failures(tmp_path, capsys, monkeypatch):
    bad_row = ReportRow(
        suite="sandwich", trial=0, check="gh<=kappa<=2gh", n1=2, n2=2,
        class1="metric", class2="metric", seed=7, lhs=1.0, rhs=0.5,
        slack=-0.5, passed=False, details="{}",
    )
    monkeypatch.setattr(tml.cli, "run_suite", lambda cfg: [bad_row])
    code, out, err = run(capsys, "campaign", "--suite", "sandwich", "--trials", "1",
                         "--out", str(tmp_path / "r.csv"))
    assert code == 3
    assert "FAIL suite=sandwich" in err
    assert "trial=0" in err
    assert "seed=7" in err
    assert "nmax=4" in err


def test_sequence_command(tmp_path, capsys):
    space = tml.random_metric_space(17, 4)
    base = tml.make_future_developed(space, [int(space.d.argmax()) // 4])
    base_path = str(tmp_path / "base.json")
    tml.write_space(base, base_path)
    out_path = tmp_path / "table.jsonl"
    code, out, err = run(capsys, "sequence", "--family", "collapse-time",
                         "--base", base_path, "--length", "4", "--rate", "0.5",
                         "--seed", "0", "--out", str(out_path), "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(rows) == 4
    assert all(row["passed"] for row in rows)
    assert [row["j"] for row in rows] == [0, 1, 2, 3]


def test_sequence_refuses_scans_beyond_the_budget(tmp_path, capsys):
    # Element 5 of the family has 10 points against the 5-point base: its gh
    # stream of 6,970,400 correspondences exceeds the default budget, so the
    # command stops before the first scan instead of after the budget.
    base = str(tmp_path / "cone5.json")
    run(capsys, "gen", "--n", "5", "--seed", "3", "--time", "cone", "-o", base)
    start = time.perf_counter()
    code, out, err = run(capsys, "sequence", "--family", "refine-bb-cone",
                         "--base", base, "--out", str(tmp_path / "t.csv"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == ("error: gh: a complete scan needs 6970400 correspondences, more than the "
                   "budget of 5000000; raise the budget, or use a smaller base or a shorter "
                   "sequence\n")
    assert not (tmp_path / "t.csv").exists()


def test_sequence_refuses_a_budget_below_one(tmp_path, capsys):
    base = str(tmp_path / "cone4.json")
    run(capsys, "gen", "--n", "4", "--seed", "1", "--time", "cone", "-o", base)
    code, out, err = run(capsys, "sequence", "--family", "refine-bb-cone", "--base", base,
                         "--length", "2", "--budget", "0", "--out", str(tmp_path / "t.csv"))
    assert (code, out, err) == (2, "", "error: budget must be an integer >= 1, got 0\n")
    assert not (tmp_path / "t.csv").exists()


def test_sequence_needs_timed_base(tmp_path, capsys):
    plain = str(tmp_path / "plain.json")
    run(capsys, "gen", "--n", "3", "--seed", "5", "-o", plain)
    code, out, err = run(capsys, "sequence", "--family", "collapse-time",
                         "--base", plain, "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "timed" in err


def test_usage_errors_exit_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["dist", "--kind", "warp", "a.json", "b.json"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    space = str(tmp_path / "space.json")
    run(capsys, "gen", "--n", "3", "--seed", "5", "--time", "cone", "-o", space)
    code, out, err = run(capsys, "dist", "--kind", "gh", "--tol", "nan", space, space)
    assert (code, out, err) == (2, "", "error: tol must be a finite real >= 0, got nan\n")


@pytest.mark.parametrize("command", ["dist", "validate", "classify", "sequence"])
@pytest.mark.parametrize("unreadable", ["missing", "directory"])
def test_unreadable_input_is_a_usage_error(command, unreadable, tmp_path, capsys):
    good = str(tmp_path / "good.json")
    run(capsys, "gen", "--n", "3", "--seed", "5", "--time", "cone", "-o", good)
    bad = str(tmp_path / unreadable)
    if unreadable == "directory":
        (tmp_path / unreadable).mkdir()
    argv = {
        "dist": ["dist", "--kind", "gh", good, bad],
        "validate": ["validate", bad],
        "classify": ["classify", bad],
        "sequence": ["sequence", "--family", "collapse-time", "--base", bad,
                     "--out", str(tmp_path / "t.csv")],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert tml.__version__ in capsys.readouterr().out


@pytest.mark.parametrize("kind", [k.value for k in tml.DistanceKind])
def test_dist_json_matches_the_driver(kind, tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "gen", "--n", "4", "--seed", "3", "--time", "cone", "-o", a)
    run(capsys, "gen", "--n", "3", "--seed", "5", "--model", "graph", "--time", "cone", "-o", b)
    argv = ["dist", "--kind", kind, a, b, "--json"]
    if kind == "pt-gh":
        argv += ["--p1", "p1", "--p2", "p2"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)

    ta, tb = tml.read_space(a), tml.read_space(b)
    result = DRIVERS[tml.DistanceKind(kind)](ta, tb, (1, 2))

    def named(pairs):
        return [[ta.labels[i], tb.labels[j]] for i, j in pairs]

    assert payload["kind"] == kind
    assert (payload["lower"], payload["upper"]) == (result.lower, result.upper)
    assert payload["exact"] is result.is_exact
    assert payload["explored"] == result.explored
    assert payload["certificate"] == named(result.certificate.pairs)
    assert payload.get("anchor") == (named([result.anchor])[0] if result.anchor else None)
    zero_pairs = payload.get("zero_pairs")
    assert zero_pairs == (named(result.zero_pairs) if result.zero_pairs is not None else None)
