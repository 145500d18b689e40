"""End-to-end acceptance suite.

Thirteen numbered checks, each printing a single ACCEPTANCE NN PASS/FAIL
line.  Tolerances are part of the contract and are not meant to be tuned.
"""

import functools
import time

import numpy as np
import pytest

import tml
from tml.engine import DistanceKind
from tml.errors import LipschitzViolation, TriangleViolation, ValidationError

from conftest import brute_gh, brute_kappa, brute_tau_h, tau_value_hausdorff

TOL = 1e-7
CERT_TOL = 1e-12


def emit(capsys, num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _seeded(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _space(rng, n, models=("euclidean", "graph")):
    model = models[int(rng.integers(len(models)))]
    return tml.random_metric_space(int(rng.integers(0, 2**32)), n, model=model)


def _timed(rng, nmax, models=("cone", "set-cone", "mcshane")):
    space = _space(rng, int(rng.integers(1, nmax + 1)))
    model = models[int(rng.integers(len(models)))]
    return tml.random_time_function(
        int(rng.integers(0, 2**32)), space, model=model,
        subset_size=int(rng.integers(1, space.n + 1)), anchors=min(3, space.n),
    )


def _bb(rng, nmax):
    space = _space(rng, int(rng.integers(1, nmax + 1)))
    return tml.make_future_developed(space, [int(rng.integers(space.n))])


def _fd(rng, nmax):
    space = _space(rng, int(rng.integers(1, nmax + 1)))
    size = int(rng.integers(1, space.n + 1))
    subset = rng.choice(space.n, size=size, replace=False)
    return tml.make_future_developed(space, [int(i) for i in subset])


@functools.cache
def _timed_pairs_200():
    pairs = []
    for trial in range(200):
        rng = _seeded(41, trial)
        pairs.append((_timed(rng, 4), _timed(rng, 4)))
    return pairs


def test_validation_rejects_corrupted_inputs(capsys):
    start = time.perf_counter()
    rejected = 0
    for trial in range(500):
        rng = _seeded(1, trial)
        space = _space(rng, int(rng.integers(3, 8)))
        d = space.d.copy()
        n = space.n
        i, k = rng.choice(n, size=2, replace=False)
        others = [j for j in range(n) if j != i and j != k]
        top = max(d[i, j] + d[j, k] for j in others)
        d[i, k] = d[k, i] = top + float(rng.uniform(0.5, 2.0))
        try:
            tml.build_metric_space(space.labels, d)
        except ValidationError as err:
            named = [
                v for v in err.violations
                if isinstance(v, TriangleViolation) and {v.i, v.k} == {i, k}
            ]
            genuine = all(
                d[v.i, v.k] > d[v.i, v.j] + d[v.j, v.k] for v in named
            )
            if named and genuine:
                rejected += 1

    for trial in range(500):
        rng = _seeded(2, trial)
        space = _space(rng, int(rng.integers(3, 8)))
        tau = tml.random_time_function(
            int(rng.integers(0, 2**32)), space, model="cone"
        ).tau.copy()
        i, j = rng.choice(space.n, size=2, replace=False)
        tau[i] = tau[j] + space.d[i, j] + float(rng.uniform(0.5, 2.0))
        try:
            tml.build_timed_space(space, tau)
        except ValidationError as err:
            named = [v for v in err.violations if isinstance(v, LipschitzViolation)]
            genuine = all(
                abs(tau[v.i] - tau[v.j]) > space.d[v.i, v.j] for v in named
            )
            involved = any(i in (v.i, v.j) for v in named)
            if named and genuine and involved:
                rejected += 1

    generated_ok = True
    for seed in range(20):
        for model in ("euclidean", "graph"):
            space = tml.random_metric_space(seed, 5, model=model)
            generated_ok &= tml.metric_violations(space.d) == []
        base = tml.random_metric_space(seed, 5)
        for model in ("cone", "set-cone", "mcshane"):
            timed = tml.random_time_function(seed, base, model=model)
            generated_ok &= tml.time_violations(base, timed.tau) == []

    elapsed = time.perf_counter() - start
    ok = rejected == 1000 and generated_ok and elapsed < 10.0
    emit(capsys, 1, ok,
         f"{rejected}/1000 corrupted inputs rejected with the violation named, "
         f"generator outputs all valid={generated_ok}, {elapsed:.2f}s")


def test_embedding_is_isometric(capsys):
    worst = 0.0
    for trial in range(200):
        rng = _seeded(3, trial)
        timed = _timed(rng, 6)
        n = timed.n
        extra = int(rng.integers(0, n + 1))
        seq = np.concatenate([rng.permutation(n), rng.integers(0, n, size=extra)])
        rng.shuffle(seq)
        enum = tml.Enumeration(tuple(int(s) for s in seq))
        cloud = tml.timed_frechet_embed(timed, enum)
        image = tml.sup_distances(cloud, cloud)
        worst = max(worst, float(np.abs(image - timed.d).max()))
    ok = worst <= CERT_TOL
    emit(capsys, 2, ok, f"image sup-metric matches d, worst gap {worst:.3g}")


def test_sandwich_inequality(capsys):
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        rng = _seeded(4, trial)
        x1 = _space(rng, int(rng.integers(1, 5)))
        x2 = _space(rng, int(rng.integers(1, 5)))
        gh = tml.require_exact(tml.gh_distance(x1, x2))
        kappa = tml.require_exact(tml.kappa_gh_distance(x1, x2))
        worst = max(worst, gh.upper - kappa.upper, kappa.upper - 2.0 * gh.upper)
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed < 60.0
    emit(capsys, 3, ok,
         f"gh <= kappa-gh <= 2*gh on 200 exact pairs, worst slack {worst:.3g}, "
         f"{elapsed:.2f}s")


def test_distance_order(capsys):
    worst = 0.0
    for t1, t2 in _timed_pairs_200():
        gh = tml.require_exact(tml.gh_distance(t1.base, t2.base))
        kappa = tml.require_exact(tml.kappa_gh_distance(t1.base, t2.base))
        tau = tml.require_exact(tml.tau_h_distance(t1, t2))
        worst = max(worst, gh.upper - kappa.upper, kappa.upper - tau.upper)
    ok = worst <= TOL
    emit(capsys, 4, ok,
         f"gh <= kappa-gh <= tau-h on 200 exact timed pairs, worst slack {worst:.3g}")


def test_time_range_lower_bound(capsys):
    worst = 0.0
    for t1, t2 in _timed_pairs_200():
        tau = tml.require_exact(tml.tau_h_distance(t1, t2))
        range_bound = tau_value_hausdorff(t1, t2)
        cheap = tml.simple_lower_bounds(DistanceKind.TAU_H, t1, t2)
        worst = max(worst, range_bound - tau.upper, cheap - tau.upper)
    ok = worst <= TOL
    emit(capsys, 5, ok,
         f"time-value range bound <= tau-h on 200 pairs, worst slack {worst:.3g}")


def test_big_bang_two_eps(capsys):
    worst = 0.0
    for trial in range(100):
        rng = _seeded(6, trial)
        t1, t2 = _bb(rng, 4), _bb(rng, 4)
        tau = tml.require_exact(tml.tau_h_distance(t1, t2))
        approx = tml.bb_gh(t1, t2)
        worst = max(worst, tau.upper - 2.0 * approx.upper)

    two = tml.build_timed_space(
        tml.build_metric_space(("p", "x"), np.array([[0.0, 1.0], [1.0, 0.0]])),
        np.array([0.0, 1.0]),
    )
    one = tml.build_timed_space(
        tml.build_metric_space(("q",), np.zeros((1, 1))), np.zeros(1)
    )
    worked_tau = tml.tau_h_distance(two, one)
    worked_bb = tml.bb_gh(two, one)
    worked_ok = (
        worked_tau.upper == 1.0
        and (worked_bb.lower, worked_bb.upper) == (0.5, 1.0)
    )
    ok = worst <= TOL and worked_ok
    emit(capsys, 6, ok,
         f"tau-h <= 2*bb-gh upper on 100 big-bang pairs, worst slack {worst:.3g}, "
         f"worked pair tau-h={worked_tau.upper} bb-gh=[{worked_bb.lower}, {worked_bb.upper}]")


def test_future_developed_two_eps(capsys):
    worst = 0.0
    for trial in range(100):
        rng = _seeded(7, trial)
        t1, t2 = _fd(rng, 4), _fd(rng, 4)
        tau = tml.require_exact(tml.tau_h_distance(t1, t2))
        approx = tml.fd_hh(t1, t2)
        worst = max(worst, tau.upper - 2.0 * approx.upper)
    ok = worst <= TOL
    emit(capsys, 7, ok,
         f"tau-h <= 2*fd-hh upper on 100 future-developed pairs, worst slack {worst:.3g}")


def _zeroed_timed(rng, nmax):
    """Timed space with a nonempty exact zero set, not necessarily well formed
    as a cone: half the draws truncate a cone at a random height."""
    space = _space(rng, int(rng.integers(1, nmax + 1)))
    q = int(rng.integers(space.n))
    if rng.integers(2) == 0:
        size = int(rng.integers(1, space.n + 1))
        subset = rng.choice(space.n, size=size, replace=False)
        return tml.make_future_developed(space, [int(i) for i in subset])
    cut = float(rng.uniform(0.0, 0.6)) * max(space.diameter, 1.0)
    tau = np.maximum(space.d[q] - cut, 0.0)
    return tml.build_timed_space(space, tau)


def test_big_bang_limit_bounds(capsys):
    worst = 0.0
    for trial in range(100):
        rng = _seeded(8, trial)
        x_bb = _bb(rng, 4)
        y = _zeroed_timed(rng, 4)
        eps = tml.require_exact(tml.tau_h_distance(x_bb, y)).upper
        report = tml.structure_report(y)
        zeros = list(report.zero_set)
        assert zeros
        spread = float(np.abs(y.tau[None, :] - y.d[zeros, :]).max())
        worst = max(worst, report.zero_diam - 4.0 * eps, spread - 4.0 * eps)
    ok = worst <= TOL
    emit(capsys, 8, ok,
         f"zero diameter and cone defect <= 4*tau-h on 100 pairs, worst slack {worst:.3g}")


def test_future_developed_limit_bounds(capsys):
    worst = 0.0
    witness_found = True
    for trial in range(100):
        rng = _seeded(9, trial)
        x_fd = _fd(rng, 4)
        y = _timed(rng, 4)
        eps = tml.require_exact(tml.tau_h_distance(x_fd, y)).upper
        admissible = np.flatnonzero(y.tau <= eps + TOL)
        if admissible.size == 0:
            witness_found = False
            continue
        gaps = np.abs(y.tau[None, :] - y.d[admissible, :])
        worst = max(worst, float(gaps.min(axis=0).max()) - 3.0 * eps)
    ok = worst <= TOL and witness_found
    emit(capsys, 9, ok,
         f"every point has a near-zero witness within 3*tau-h on 100 pairs, "
         f"worst slack {worst:.3g}")


def _sample_costs(rng, d1, d2, tau1=None, tau2=None, count=1000):
    n1, n2 = d1.shape[0], d2.shape[0]
    width = n1 + n2
    e1 = np.empty((count, width), dtype=np.intp)
    e2 = np.empty((count, width), dtype=np.intp)
    e1[:, :n1] = rng.permuted(np.tile(np.arange(n1), (count, 1)), axis=1)
    e1[:, n1:] = rng.integers(0, n1, size=(count, n2))
    e2[:, :n2] = rng.permuted(np.tile(np.arange(n2), (count, 1)), axis=1)
    e2[:, n2:] = rng.integers(0, n2, size=(count, n1))
    rng.permuted(e1, axis=1, out=e1)
    rng.permuted(e2, axis=1, out=e2)
    profiles1 = d1[e1]
    profiles2 = d2[e2]
    cross = np.abs(profiles1[:, :, :, None] - profiles2[:, :, None, :]).max(axis=1)
    if tau1 is not None:
        cross = np.maximum(cross, np.abs(tau1[:, None] - tau2[None, :])[None])
    return np.maximum(
        cross.min(axis=2).max(axis=1), cross.min(axis=1).max(axis=1)
    )


def test_certificates_are_optimal(capsys):
    worst_cert = 0.0
    worst_beat = 0.0
    for trial in range(100):
        rng = _seeded(10, trial)
        if trial % 2 == 0:
            x1 = _space(rng, int(rng.integers(2, 5)))
            x2 = _space(rng, int(rng.integers(2, 5)))
            result = tml.require_exact(tml.kappa_gh_distance(x1, x2))
            e1, e2 = tml.enumerations_from_correspondence(result.certificate)
            value = tml.hausdorff_sup(
                tml.frechet_embed(x1, e1), tml.frechet_embed(x2, e2)
            )
            costs = _sample_costs(rng, x1.d, x2.d)
        else:
            t1, t2 = _timed(rng, 4), _timed(rng, 4)
            result = tml.require_exact(tml.tau_h_distance(t1, t2))
            e1, e2 = tml.enumerations_from_correspondence(result.certificate)
            value = tml.hausdorff_sup(
                tml.timed_frechet_embed(t1, e1), tml.timed_frechet_embed(t2, e2)
            )
            costs = _sample_costs(rng, t1.d, t2.d, t1.tau, t2.tau)
        worst_cert = max(worst_cert, abs(value - result.upper))
        worst_beat = max(worst_beat, result.upper - float(costs.min()))
    ok = worst_cert <= CERT_TOL and worst_beat <= CERT_TOL
    emit(capsys, 10, ok,
         f"100 certificates reproduce the optimum (gap {worst_cert:.3g}) and "
         f"100000 sampled enumeration pairs never beat it (margin {worst_beat:.3g})")


def test_minimal_scan_matches_full_enumeration(capsys):
    ok = True
    cases = 0
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for seed in range(3):
                rng = _seeded(11, n1, n2, seed)
                x1, x2 = _space(rng, n1), _space(rng, n2)
                ok &= tml.gh_distance(x1, x2).upper == brute_gh(x1, x2)
                ok &= tml.kappa_gh_distance(x1, x2).upper == brute_kappa(x1, x2)
                cases += 1
    for seed in range(9):
        rng = _seeded(11, 5, seed)
        t1, t2 = _timed(rng, 3), _timed(rng, 3)
        ok &= tml.tau_h_distance(t1, t2).upper == brute_tau_h(t1, t2)
        cases += 1
    emit(capsys, 11, ok,
         f"minimal-correspondence scan equals full enumeration exactly on {cases} cases")


def test_sequence_decay(capsys):
    space = tml.random_metric_space(52, 4)
    endpoint = int(space.d.argmax()) // space.n
    base = tml.make_future_developed(space, [endpoint])

    spec = tml.SequenceSpec("perturb-geometric", base, length=6, rate=0.5, seed=12)
    elements, limit = tml.build_sequence(spec)
    values = [tml.require_exact(tml.tau_h_distance(e, limit)).upper for e in elements]
    worst = max(
        value - (values[0] * 0.5**j) for j, value in enumerate(values)
    )

    cspec = tml.SequenceSpec("collapse-time", base, length=6, rate=0.5, seed=12)
    celements, climit = tml.build_sequence(cspec)
    cworst = max(
        tml.require_exact(tml.tau_h_distance(e, climit)).upper - base.tau_max * 0.5**j
        for j, e in enumerate(celements)
    )
    ok = worst <= TOL and cworst <= TOL and values[0] > 0
    emit(capsys, 12, ok,
         f"perturbation decay within envelope (slack {worst:.3g}), "
         f"time collapse within tau_max envelope (slack {cworst:.3g})")


def test_reports_are_deterministic(capsys, tmp_path):
    cfg = tml.CampaignConfig(suite="all", trials=3, nmax=3, seed=9)
    blobs = {}
    for tag in ("a", "b", "c"):
        rows = [r.as_dict() for r in tml.run_suite(cfg)]
        csv_path = tmp_path / f"{tag}.csv"
        jsonl_path = tmp_path / f"{tag}.jsonl"
        tml.write_report(rows, csv_path, fmt="csv")
        tml.write_report(rows, jsonl_path, fmt="jsonl")
        blobs[tag] = (csv_path.read_bytes(), jsonl_path.read_bytes())
    ok = blobs["a"] == blobs["b"] == blobs["c"]
    emit(capsys, 13, ok,
         "reports byte-identical across repeated runs")
