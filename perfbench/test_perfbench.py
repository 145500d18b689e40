"""Tests of the benchmark itself: reduced-size runs of every workload, and
checks that each workload's verdict rejects a deliberately wrong result.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_tml()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "exact-n56": lambda: workloads.ExactScan(shapes=((3, 3), (3, 4)), samples=50),
    "bounded-n10": lambda: workloads.BoundedSearch(pairs=3, budget=40, searched=1, fd_pairs=1, iterations=1),
    "campaign-all": lambda: workloads.Campaign(chunks=1, trials=3, fd_chunks=1, base_n=3),
    "validate-n150": lambda: workloads.Validation(sizes=(8, 12), zeros=2),
}


def one_round(name, tmp_path, seed=3):
    workload = SMALL[name]()
    workload.setup(seed, tmp_path)
    ops = workload.ops()
    outputs, _, rounds, unstable = run.measure(ops, 0.0, run.ReferenceClock())
    assert rounds == 1 and not unstable
    return workload, ops, outputs


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(SMALL)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(name, trace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    args = run.parse_args(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    workload = SMALL[name]()
    assert run.run(args, workload, tmp_path, tracing) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    known = sum(op.known_fault is not None for op in workload.ops())
    assert result["failed"] == known * result["attempted"] // len(workload.ops())
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(SMALL))
def test_only_known_faults_fail(name, tmp_path):
    workload, ops, outputs = one_round(name, tmp_path)
    verdict = workload.check(ops, outputs)
    assert verdict.problems == []
    assert set(verdict.failed) == {i for i, op in enumerate(ops) if op.known_fault}


def test_exact_rejects_upper_off_by_one_ulp(tmp_path):
    workload, ops, outputs = one_round("exact-n56", tmp_path)
    for kind in workloads.EXACT_KINDS:
        i = next(i for i, op in enumerate(ops) if op.kind is kind)
        nudged = list(outputs)
        nudged[i] = dataclasses.replace(outputs[i], upper=float(np.nextafter(outputs[i].upper, np.inf)))
        assert workload.check(ops, nudged).problems, kind


def test_bounded_rejects_lower_above_an_achievable_upper(tmp_path):
    workload, ops, outputs = one_round("bounded-n10", tmp_path)
    gh = next(i for i, op in enumerate(ops) if op.kind is workloads.Kind.GH)
    tau = next(i for i, op in enumerate(ops) if op.kind is workloads.Kind.TAU_H and op.pair == ops[gh].pair)
    raised = list(outputs)
    # Above tau-h's achievable upper, though still below gh's own upper.
    raised[gh] = dataclasses.replace(outputs[gh], lower=outputs[tau].upper * 1.001,
                                     upper=max(outputs[gh].upper, outputs[tau].upper * 1.002))
    problems = workload.check(ops, raised).problems
    assert any("exceeds" in p for p in problems)


def test_validation_rejects_an_accepted_corrupted_file(tmp_path):
    workload, ops, outputs = one_round("validate-n150", tmp_path)
    bad = next(i for i, f in enumerate(workload.files) if f["corrupt"])
    good = next(i for i, f in enumerate(workload.files) if not f["corrupt"])
    accepted = list(outputs)
    accepted[bad] = outputs[good]
    assert any("accepted" in p for p in workload.check(ops, accepted).problems)


def test_validation_rejects_a_wrong_triple(tmp_path):
    workload, ops, outputs = one_round("validate-n150", tmp_path)
    bad = next(i for i, f in enumerate(workload.files) if f["corrupt"])
    i, j, k = workload.files[bad]["corrupt"]
    workload.files[bad]["corrupt"] = (i, (j + 1) % len(workload.files[bad]["labels"]), k)
    assert workload.check(ops, outputs).problems


def test_campaign_rejects_a_missing_row_and_an_off_closed_form(tmp_path):
    workload, ops, outputs = one_round("campaign-all", tmp_path)
    short = list(outputs)
    short[0] = outputs[0][:-1]
    assert workload.check(ops, short).problems
    seq = next(i for i, op in enumerate(ops) if op.label == "sequence refine-bb-cone")
    off = list(outputs)
    off[seq] = [dataclasses.replace(outputs[seq][0], tau_h=outputs[seq][0].tau_h + 1e-9)] + outputs[seq][1:]
    assert any("closed form" in p for p in workload.check(ops, off).problems)


def test_campaign_rejects_non_strict_jsonl(tmp_path):
    workload, ops, outputs = one_round("campaign-all", tmp_path)
    report = next(out for op, out in zip(ops, outputs) if op.label == "report campaign jsonl")
    report.write_text(report.read_text().replace('"lhs": ', '"lhs": NaN, "x": ', 1))
    assert any("non-strict" in p for p in workload.check(ops, outputs).problems)
