"""Campaigns that check the distance inequalities on seeded random spaces.

Every suite draws its spaces from the seeded generators, computes exact
distances, and emits self-contained report rows.  A row records the two sides
of one inequality; slack = rhs - lhs, and an asserting row passes when
slack >= -CHECK_TOL.  Observational rows (ratio logging) always pass and exist
so reports capture the measured constants.

Suites cap nmax at EXACT_NMAX, where the longest stream any scan walks (fd-hh
at 4 x 4 with zero sets of 4 and 2 points, 224 candidates) is far below the
default budget, so every campaign scan runs to completion.  Sequence elements grow without
such a cap: `run_sequence_experiment` refuses, before its first scan, a
sequence with an element whose scans would not fit its budget.

Each trial draws from its own generator, seeded by the campaign seed, the
suite's place in `_TRIAL_BODIES` (counted from 1) and the trial number, so a
failing row's `suite`, `trial` and `seed` rerun it as the last trial of
`tml campaign --suite <suite> --trials <trial + 1> --seed <seed>` at the same
nmax.  Trials run one after another in trial order, so a configuration always
yields the same rows in the same order and byte-identical reports.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .constructions import (
    SequenceSpec,
    build_sequence,
    enumerations_from_correspondence,
    glue_by_correspondence,
    random_metric_space,
    random_time_function,
)
from .embeddings import frechet_embed, hausdorff_in, hausdorff_sup, timed_frechet_embed
from .engine import (
    DEFAULT_BUDGET,
    bb_gh,
    correspondence_count,
    distortion,
    fd_hh,
    gh_distance,
    kappa_gh_distance,
    tau_h_distance,
)
from .errors import BudgetTooSmall, InvalidSpec
from .spaces import (
    DEFAULT_TOL,
    SpaceClass,
    TimedMetricSpace,
    _check_count,
    _maxmin,
    build_metric_space,
    build_timed_space,
    classify,
    structure_report,
)

EXACT_NMAX = 4
SAMPLE_COUNT = 1000
# Tolerance of every asserted check: a row passes when slack >= -CHECK_TOL.
CHECK_TOL = 1e-7


@dataclass(frozen=True)
class CampaignConfig:
    suite: str
    trials: int = 100
    nmax: int = 4
    seed: int = 0


def _fields_of(row) -> dict:
    """A report row's fields in declaration order.  Every field is a scalar,
    a string or None, so unlike `dataclasses.asdict` nothing is copied."""
    return {f.name: getattr(row, f.name) for f in fields(row)}


@dataclass(frozen=True)
class ReportRow:
    """One checked (or observed) inequality, re-runnable from its fields and
    the campaign's nmax."""

    suite: str
    trial: int
    check: str
    n1: int
    n2: int
    class1: str
    class2: str
    seed: int
    lhs: float
    rhs: float
    slack: float
    passed: bool
    details: str

    def as_dict(self) -> dict:
        return _fields_of(self)


def _class_name(space) -> str:
    if isinstance(space, TimedMetricSpace):
        return classify(space).value
    return "metric"


def _details(**kwargs) -> str:
    return json.dumps(kwargs, sort_keys=True, default=np.generic.item)


def _make_row(suite, trial, seed, check, a, b, lhs, rhs, asserted=True, **extra):
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    return ReportRow(
        suite=suite,
        trial=trial,
        check=check,
        n1=a.n,
        n2=b.n,
        class1=_class_name(a),
        class2=_class_name(b),
        seed=seed,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=bool(slack >= -CHECK_TOL) if asserted else True,
        details=_details(**extra),
    )


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _random_space(rng: np.random.Generator, nmax: int):
    model = "euclidean" if rng.integers(2) == 0 else "graph"
    size = int(rng.integers(1, nmax + 1))
    seed = _child_seed(rng)
    return random_metric_space(seed, size, model=model), model, seed


def _random_timed(rng: np.random.Generator, nmax: int, time_model: str | None = None):
    space, model, seed = _random_space(rng, nmax)
    if time_model is None:
        time_model = ("cone", "set-cone", "mcshane")[int(rng.integers(3))]
    tseed = _child_seed(rng)
    subset_size = int(rng.integers(1, space.n + 1))
    timed = random_time_function(
        tseed, space, model=time_model, subset_size=subset_size, anchors=min(3, space.n)
    )
    return timed, {"model": model, "seed": seed, "time": time_model, "tseed": tseed}


def _worked_bb_pair() -> tuple[TimedMetricSpace, TimedMetricSpace]:
    two = build_metric_space(("p", "x"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    one = build_metric_space(("q",), np.zeros((1, 1)))
    return (
        build_timed_space(two, np.array([0.0, 1.0])),
        build_timed_space(one, np.zeros(1)),
    )


# ---------------------------------------------------------------------------
# Per-suite trial bodies.  `run_suite` hands each body `row`, the row maker
# stamped with the suite, trial and campaign seed, and the trial's generator;
# a body returns the rows for one trial.


def _chain_row(row, check, a, b, values, **extra):
    """Row for a chain v0 <= v1 <= ... reporting the tightest adjacent link."""
    gaps = [(values[k + 1] - values[k], k) for k in range(len(values) - 1)]
    _, k = min(gaps)
    return row(check, a, b, values[k], values[k + 1], **extra)


def _sandwich_trial(row, rng, nmax, trial) -> list[ReportRow]:
    x1, m1, s1 = _random_space(rng, nmax)
    x2, m2, s2 = _random_space(rng, nmax)
    gh = gh_distance(x1, x2)
    kappa = kappa_gh_distance(x1, x2)
    return [_chain_row(
        row,
        "gh<=kappa<=2gh",
        x1,
        x2,
        [gh.upper, kappa.upper, 2.0 * gh.upper],
        gh=gh.upper,
        kappa=kappa.upper,
        models=[m1, m2],
        seeds=[s1, s2],
    )]


def _order_trial(row, rng, nmax, trial) -> list[ReportRow]:
    t1, info1 = _random_timed(rng, nmax)
    t2, info2 = _random_timed(rng, nmax)
    gh = gh_distance(t1.base, t2.base)
    kappa = kappa_gh_distance(t1.base, t2.base)
    tau = tau_h_distance(t1, t2)
    return [_chain_row(
        row,
        "gh<=kappa<=tau-h",
        t1,
        t2,
        [gh.upper, kappa.upper, tau.upper],
        gh=gh.upper,
        kappa=kappa.upper,
        tau_h=tau.upper,
        gen=[info1, info2],
    )]


def _glued_rows(row, suite, driver, t1, t2, gen) -> list[ReportRow]:
    """The row checking tau-h <= 2 * upper for a glued-space driver (`bb_gh`
    or `fd_hh`), with the driver's interval under `<suite>_lower/_upper`."""
    tau = tau_h_distance(t1, t2)
    approx = driver(t1, t2)
    return [row(
        f"tau-h<=2*{approx.kind.value}-upper",
        t1,
        t2,
        tau.upper,
        2.0 * approx.upper,
        tau_h=tau.upper,
        **{f"{suite}_lower": approx.lower, f"{suite}_upper": approx.upper},
        gen=gen,
    )]


def _bb_trial(row, rng, nmax, trial) -> list[ReportRow]:
    if trial == 0:
        return _glued_rows(row, "bb", bb_gh, *_worked_bb_pair(), "worked-pair")
    t1, info1 = _random_timed(rng, nmax, time_model="cone")
    t2, info2 = _random_timed(rng, nmax, time_model="cone")
    return _glued_rows(row, "bb", bb_gh, t1, t2, [info1, info2])


def _fd_trial(row, rng, nmax, trial) -> list[ReportRow]:
    t1, info1 = _random_timed(rng, nmax, time_model="set-cone")
    t2, info2 = _random_timed(rng, nmax, time_model="set-cone")
    return _glued_rows(row, "fd", fd_hh, t1, t2, [info1, info2])


def _limits_trial(row, rng, nmax, trial) -> list[ReportRow]:
    rows = []

    # Bang side: X exactly big bang, Y with a nonempty exact zero set.
    x_bb, info_x = _random_timed(rng, nmax, time_model="cone")
    y1, info_y1 = _random_timed(rng, nmax, time_model="set-cone")
    eps = tau_h_distance(x_bb, y1).upper
    report = structure_report(y1, delta=0.0)
    zeros = np.array(report.zero_set, dtype=int)
    spread = float(np.abs(y1.tau[None, :] - y1.d[zeros, :]).max())
    for check, lhs in (("zero-diam<=4eps", report.zero_diam), ("tau-vs-dist<=4eps", spread)):
        rows.append(row(check, x_bb, y1, lhs, 4.0 * eps, eps=eps, gen=[info_x, info_y1]))
    ratio = spread / eps if eps > 0 else 0.0
    rows.append(
        row(
            "bb-ratio-observed", x_bb, y1,
            spread, 4.0 * eps, asserted=False,
            eps=eps, ratio=ratio,
        )
    )

    # Developed side: X exactly future developed, Y arbitrary.
    x_fd, info_x2 = _random_timed(rng, nmax, time_model="set-cone")
    y2, info_y2 = _random_timed(rng, nmax, time_model="mcshane")
    eps2 = tau_h_distance(x_fd, y2).upper
    admissible = y2.tau <= eps2 + CHECK_TOL
    if admissible.any():
        gaps = np.abs(y2.tau[None, :] - y2.d[admissible, :])
        worst = float(gaps.min(axis=0).max())
    else:
        worst = math.inf
    rows.append(
        row(
            "fd-witness<=3eps", x_fd, y2,
            worst, 3.0 * eps2,
            eps=eps2, gen=[info_x2, info_y2],
        )
    )
    return rows


def _sample_enumeration_costs(rng, d1, d2, tau1, tau2, count):
    """Hausdorff costs of `count` random covering enumeration pairs.

    Each sample pairs a shuffled full listing of one side with uniform picks
    from the other, so both listings cover and the induced pair set is a
    correspondence; the minimum over samples can therefore never undercut the
    engine's optimum.
    """
    n1, n2 = d1.shape[0], d2.shape[0]
    m = n1 + n2
    e1 = np.empty((count, m), dtype=int)
    e2 = np.empty((count, m), dtype=int)
    e1[:, :n1] = rng.permuted(np.tile(np.arange(n1), (count, 1)), axis=1)
    e1[:, n1:] = rng.integers(0, n1, size=(count, n2))
    e2[:, :n1] = rng.integers(0, n2, size=(count, n1))
    e2[:, n1:] = rng.permuted(np.tile(np.arange(n2), (count, 1)), axis=1)
    # gaps[a * n2 + b] is the table |d1[a, x] - d2[b, y]| of the pair (a, b);
    # a sample's rho is the max of its pairs' tables, folded column by column.
    gaps = np.abs(d1[:, None, :, None] - d2[None, :, None, :]).reshape(n1 * n2, n1, n2)
    ids = e1 * n2 + e2
    rho = gaps[ids[:, 0]]
    for k in range(1, m):
        np.maximum(rho, gaps[ids[:, k]], out=rho)
    if tau1 is not None:
        rho = np.maximum(rho, np.abs(tau1[:, None] - tau2[None, :])[None, :, :])
    return _maxmin(rho)


def _embedding_row(row, check, a, b, result, embed, **extra):
    """Row checking that embedding both spaces along the result's certificate
    reproduces its optimum."""
    e1, e2 = enumerations_from_correspondence(result.certificate)
    cert = hausdorff_sup(embed(a, e1), embed(b, e2))
    return row(check, a, b, abs(cert - result.upper), 1e-12, cert=cert, **extra)


def _certificates_trial(row, rng, nmax, trial) -> list[ReportRow]:
    x1, m1, s1 = _random_space(rng, nmax)
    x2, m2, s2 = _random_space(rng, nmax)
    t1, info1 = _random_timed(rng, nmax)
    t2, info2 = _random_timed(rng, nmax)
    kappa = kappa_gh_distance(x1, x2)
    rows = [_embedding_row(
        row, "kappa-cert-equal", x1, x2, kappa, frechet_embed,
        kappa=kappa.upper, models=[m1, m2], seeds=[s1, s2],
    )]
    tau = tau_h_distance(t1, t2)
    rows.append(_embedding_row(
        row, "tau-cert-equal", t1, t2, tau, timed_frechet_embed,
        tau_h=tau.upper, gen=[info1, info2],
    ))

    gh = gh_distance(x1, x2)
    dis = distortion(gh.certificate, x1, x2)
    delta = max(dis / 2.0, 10.0 * DEFAULT_TOL)
    glued = glue_by_correspondence(x1, x2, gh.certificate, delta)
    inside = hausdorff_in(glued.space, glued.inject1, glued.inject2)
    rows.append(
        row(
            "glued-hausdorff<=delta", x1, x2,
            inside, delta + 1e-12,
            gh=gh.upper, delta=delta,
        )
    )

    # The generator draws kappa-gh's samples first, then tau-h's: swapping
    # them changes both rows.
    for check, a, b, result, taus in (
        ("kappa-samples-no-better", x1, x2, kappa, (None, None)),
        ("tau-samples-no-better", t1, t2, tau, (t1.tau, t2.tau)),
    ):
        samples = _sample_enumeration_costs(rng, a.d, b.d, *taus, SAMPLE_COUNT)
        rows.append(
            row(check, a, b, result.upper, float(samples.min()) + 1e-12, samples=SAMPLE_COUNT)
        )
    return rows


def _triangle_trial(row, rng, nmax, trial) -> list[ReportRow]:
    ta, info_a = _random_timed(rng, nmax)
    tb, info_b = _random_timed(rng, nmax)
    tc, info_c = _random_timed(rng, nmax)
    v_ab = tau_h_distance(ta, tb).upper
    v_bc = tau_h_distance(tb, tc).upper
    v_ac = tau_h_distance(ta, tc).upper
    denom = v_ab + v_bc
    ratio = v_ac / denom if denom > 0 else (0.0 if v_ac == 0 else math.inf)
    return [row(
        "triangle-ratio-observed", ta, tc,
        v_ac, denom, asserted=False,
        ab=v_ab, bc=v_bc, ac=v_ac, ratio=ratio,
        gen=[info_a, info_b, info_c],
    )]


# The one list of suites, in report order.  A suite's place in it seeds its
# trials, so moving a suite changes its rows.
_TRIAL_BODIES = {
    "sandwich": _sandwich_trial,
    "order": _order_trial,
    "bb": _bb_trial,
    "fd": _fd_trial,
    "limits": _limits_trial,
    "certificates": _certificates_trial,
    "triangle-explore": _triangle_trial,
}

SUITES = (*_TRIAL_BODIES, "all")


def _check_config(cfg: CampaignConfig) -> None:
    if cfg.suite not in SUITES:
        raise InvalidSpec(f"unknown suite {cfg.suite!r}; choose from {', '.join(SUITES)}")
    for name, least in (("trials", 1), ("nmax", 1), ("seed", 0)):
        _check_count(getattr(cfg, name), name, least, InvalidSpec)
    if cfg.nmax > EXACT_NMAX:
        raise BudgetTooSmall(
            f"suites need exact distances, which caps nmax at {EXACT_NMAX} "
            f"(got {cfg.nmax})"
        )


def run_suite(cfg: CampaignConfig) -> list[ReportRow]:
    """Run one suite (or all of them); rows are ordered by suite then trial."""
    _check_config(cfg)
    rows: list[ReportRow] = []
    for place, (name, body) in enumerate(_TRIAL_BODIES.items(), start=1):
        if cfg.suite not in (name, "all"):
            continue
        for trial in range(cfg.trials):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, place, trial]))
            row = functools.partial(_make_row, name, trial, cfg.seed)
            rows.extend(body(row, rng, cfg.nmax, trial))
    return rows


# ---------------------------------------------------------------------------
# Sequence experiments.


@dataclass(frozen=True)
class SequenceRow:
    """Distances of one sequence element to the designated limit."""

    family: str
    j: int
    n: int
    space_class: str
    fd_defect: float
    bb_defect: float
    gh_lower: float
    gh_upper: float
    tau_h: float
    bb_gh_lower: float | None
    bb_gh_upper: float | None
    bound: float
    slack: float
    passed: bool
    details: str

    def as_dict(self) -> dict:
        return _fields_of(self)


def run_sequence_experiment(spec: SequenceSpec, budget: int = DEFAULT_BUDGET) -> list[SequenceRow]:
    """Distances from each element to the limit, with per-row decay checks.

    Checks applied: gh <= tau-h; tau-h <= 2 * bb-gh upper when both spaces
    are exactly big bang; the decay envelope tau-h(T_j) <= C * rate^j, where
    C is calibrated from the first element for the noise family and from the
    base's latest time for the time-collapse family; a nonincreasing tau-h
    envelope for the refinement family.

    gh and tau-h scan each minimal correspondence between an element and the
    limit once, bb-gh no more candidates: an element whose count exceeds the
    budget is refused before the first scan, so every scan is complete; a
    budget that is not an integer >= 1 is refused first (ValueError).
    """
    _check_count(budget, "budget", 1)
    elements, limit = build_sequence(spec)
    for element in elements:
        total = correspondence_count(element.n, limit.n)
        if total > budget:
            raise BudgetTooSmall(
                f"gh: a complete scan needs {total} correspondences, more than the "
                f"budget of {budget}; raise the budget, or use a smaller base or a "
                "shorter sequence"
            )
    limit_is_bb = classify(limit) is SpaceClass.BIG_BANG
    calibration = spec.base.tau_max if spec.family == "collapse-time" else None

    rows: list[SequenceRow] = []
    previous_tau = math.inf
    for j, element in enumerate(elements):
        report = structure_report(element, delta=0.0)
        space_class = classify(element)
        gh = gh_distance(element.base, limit.base, budget=budget)
        tau = tau_h_distance(element, limit, budget=budget).upper
        bb = None
        checks = {"gh<=tau-h": tau - gh.upper}
        if limit_is_bb and space_class is SpaceClass.BIG_BANG:
            bb = bb_gh(element, limit, budget=budget)
            checks["tau-h<=2*bb-upper"] = 2.0 * bb.upper - tau
        if spec.family == "perturb-geometric" and j == 0:
            calibration = tau
        if calibration is not None:
            bound = calibration * spec.rate**j
            checks["decay-envelope"] = bound - tau
        else:
            bound = tau if j == 0 else previous_tau
            checks["nonincreasing"] = bound - tau
        slack = min(checks.values())
        rows.append(
            SequenceRow(
                family=spec.family,
                j=j,
                n=element.n,
                space_class=space_class.value,
                fd_defect=float(report.fd_defect),
                bb_defect=float(report.bb_defect),
                gh_lower=float(gh.lower),
                gh_upper=float(gh.upper),
                tau_h=float(tau),
                bb_gh_lower=None if bb is None else float(bb.lower),
                bb_gh_upper=None if bb is None else float(bb.upper),
                bound=float(bound),
                slack=float(slack),
                passed=bool(slack >= -CHECK_TOL),
                details=_details(
                    checks={k: float(v) for k, v in checks.items()},
                    rate=spec.rate,
                    seed=spec.seed,
                ),
            )
        )
        previous_tau = tau
    return rows


__all__ = [
    "CampaignConfig",
    "ReportRow",
    "SequenceRow",
    "SUITES",
    "run_sequence_experiment",
    "run_suite",
]
