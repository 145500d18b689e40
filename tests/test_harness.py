import itertools
import json

import numpy as np
import pytest

import tml
from tml.errors import BudgetTooSmall, InvalidSpec


def small(suite, trials=4, **kwargs):
    return tml.CampaignConfig(suite=suite, trials=trials, nmax=3, seed=5, **kwargs)


@pytest.mark.parametrize("suite", [s for s in tml.SUITES if s != "all"])
def test_every_suite_passes(suite):
    rows = tml.run_suite(small(suite))
    assert rows
    assert all(row.passed for row in rows)
    assert all(row.suite == suite for row in rows)


def test_row_invariants():
    rows = tml.run_suite(small("order", trials=6))
    assert len(rows) == 6
    for row in rows:
        assert row.slack == row.rhs - row.lhs
        assert row.passed == (row.slack >= -1e-7)
        json.loads(row.details)
        payload = row.as_dict()
        assert payload["suite"] == "order"
        assert list(payload) == list(rows[0].as_dict())
    assert [row.trial for row in rows] == list(range(6))


def test_bb_suite_leads_with_worked_pair():
    rows = tml.run_suite(small("bb"))
    first = rows[0]
    assert first.check == "tau-h<=2*bb-gh-upper"
    assert first.lhs == 1.0
    assert first.rhs == 2.0
    assert first.slack == 1.0
    assert first.n1 == 2 and first.n2 == 1


def test_limits_suite_rows():
    rows = tml.run_suite(small("limits", trials=3))
    checks = [row.check for row in rows if row.trial == 0]
    assert checks == [
        "zero-diam<=4eps",
        "tau-vs-dist<=4eps",
        "bb-ratio-observed",
        "fd-witness<=3eps",
    ]
    observed = [row for row in rows if row.check == "bb-ratio-observed"]
    assert all(row.passed for row in observed)


def test_certificates_suite_rows():
    rows = tml.run_suite(small("certificates", trials=2))
    checks = {row.check for row in rows}
    assert checks == {
        "kappa-cert-equal",
        "tau-cert-equal",
        "glued-hausdorff<=delta",
        "kappa-samples-no-better",
        "tau-samples-no-better",
    }


@pytest.mark.parametrize("n1, n2", [(1, 4), (3, 2), (4, 4)])
def test_sampled_costs_equal_the_plain_costs(n1, n2):
    # Each sample pairs a shuffled listing of one side with uniform picks
    # from the other.  Redraw them from the same seed in the same order and
    # score each sample's relation with the plain per-correspondence costs.
    engine = tml.engine
    x1 = tml.random_metric_space(n1, n1, model="graph")
    x2 = tml.random_metric_space(n2 + 10, n2)
    t1 = tml.random_time_function(1, x1, model="mcshane")
    t2 = tml.random_time_function(2, x2, model="cone")
    count = 60
    for timed in (False, True):
        taus = (t1.tau, t2.tau) if timed else (None, None)
        got = tml.harness._sample_enumeration_costs(
            np.random.default_rng(7), x1.d, x2.d, *taus, count
        )
        rng = np.random.default_rng(7)
        listing1 = rng.permuted(np.tile(np.arange(n1), (count, 1)), axis=1)
        picks1 = rng.integers(0, n1, size=(count, n2))
        picks2 = rng.integers(0, n2, size=(count, n1))
        listing2 = rng.permuted(np.tile(np.arange(n2), (count, 1)), axis=1)
        e1 = np.concatenate((listing1, picks1), axis=1)
        e2 = np.concatenate((picks2, listing2), axis=1)
        plain = []
        for s in range(count):
            corr = tml.make_correspondence(n1, n2, zip(e1[s].tolist(), e2[s].tolist()))
            if timed:
                plain.append(engine.timed_correspondence_hausdorff(corr, t1, t2))
            else:
                plain.append(engine.correspondence_hausdorff(corr, x1, x2))
        assert got.tolist() == plain


def test_all_suite_concatenates():
    combined = tml.run_suite(small("all", trials=2))
    separate = []
    for suite in tml.SUITES[:-1]:
        separate.extend(tml.run_suite(small(suite, trials=2)))
    assert combined == separate


# Child seeds that trials 0 and 1 of each suite record in `details` at
# campaign seed 0 and nmax 4, in the order the trial draws them.  Trial t of
# the suite at place k in the registry (counted from 1) draws from
# SeedSequence([0, k, t]); bb's trial 0 is the worked pair and draws nothing.
PINNED_CHILD_SEEDS = {
    "sandwich": (
        [2569345756469950195, 4411141398483625569],
        [1172557268107116768, 4267626154262512404],
    ),
    "order": (
        [1855916738623615970, 669156726013743145, 1507738635701639905, 545754695323330169],
        [3836524830075456871, 643201892374202827, 4517446418803555822, 4006924582888802055],
    ),
    "bb": (
        [],
        [3716512324385385274, 671969226984420625, 65782199626216917, 2309447013398893999],
    ),
    "fd": (
        [1054197628430032205, 1893773163966736277, 1012651768420128213, 3179482179817881763],
        [1707951954393532384, 3906761210882069697, 2614058709279550615, 841831264763773034],
    ),
    "limits": (
        [2526046682378510680, 1897423507768214926, 2822659685707798003, 454021181015880937,
         354149594662167548, 2109767560176835661, 3490859972486207842, 1939730062533965828],
        [4369603126566708817, 1206610276041561296, 676792127786876469, 493385491976430302,
         3538066426978942627, 2610218166759850116, 838237547860514432, 3470540677067268084],
    ),
    "certificates": (
        [983650215818797056, 2517575233999649642, 2889840132752480020, 327233898831777369,
         392715031774437494, 2653794493733439093],
        [3156081829854607658, 4022992113734486455, 2053825894135516064, 828091766280193637,
         3530270607682954159, 2575176082785059034],
    ),
    "triangle-explore": (
        [3583867920954890687, 2197499804361925096, 4373534848072961526, 571370200341977611,
         4193616774312064338, 3837410915264158742],
        [244825963609059, 724602644654813729, 1641949114138833030, 782976372863548113,
         480918164965822062, 4017928215443676712],
    ),
}


def child_seeds(details):
    """The "seed", "seeds" and "tseed" values in a row's details, keys sorted."""
    found = []

    def walk(value, key=None):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(value[k], k)
        elif isinstance(value, list):
            for item in value:
                walk(item, key)
        elif key in ("seed", "seeds", "tseed"):
            found.append(value)

    walk(json.loads(details))
    return found


def test_trial_seeds_follow_the_suite_place_and_the_trial():
    assert list(PINNED_CHILD_SEEDS) == list(tml.SUITES[:-1])
    for suite, pinned in PINNED_CHILD_SEEDS.items():
        rows = tml.run_suite(tml.CampaignConfig(suite=suite, trials=2, seed=0))
        for trial, seeds in enumerate(pinned):
            recorded = []
            for row in rows:
                if row.trial == trial:
                    recorded.extend(s for s in child_seeds(row.details) if s not in recorded)
            assert recorded == seeds, (suite, trial)


@pytest.mark.parametrize("nmax", [2, 4])
def test_a_row_reruns_from_its_fields_and_the_campaign_nmax(nmax):
    # nmax bounds the point-count draws and is no column, so a row reruns
    # from its own suite, trial and seed together with the campaign's nmax.
    rows = tml.run_suite(tml.CampaignConfig(suite="all", trials=6, nmax=nmax, seed=3))
    for row in rows:
        if row.trial not in (2, 5):
            continue
        rerun = tml.run_suite(tml.CampaignConfig(
            suite=row.suite, trials=row.trial + 1, nmax=nmax, seed=row.seed
        ))
        again = [r for r in rerun if r.trial == row.trial and r.check == row.check]
        assert again == [row], (row.suite, row.trial, row.check)
    assert {row.suite for row in rows} == set(tml.SUITES[:-1])


def test_runs_are_deterministic():
    cfg = small("sandwich", trials=5)
    assert tml.run_suite(cfg) == tml.run_suite(cfg)


def test_config_validation():
    with pytest.raises(InvalidSpec):
        tml.run_suite(tml.CampaignConfig(suite="mystery", trials=1))
    with pytest.raises(InvalidSpec):
        tml.run_suite(tml.CampaignConfig(suite="order", trials=0))
    with pytest.raises(BudgetTooSmall):
        tml.run_suite(tml.CampaignConfig(suite="order", trials=1, nmax=5))
    bad = [("trials", 2.5), ("trials", 2.0), ("nmax", 2.5), ("nmax", 0), ("seed", -1), ("seed", 1.0),
           ("trials", True), ("nmax", True), ("seed", False)]
    for field, value in bad:
        cfg = tml.CampaignConfig(suite="order", **{"trials": 1, "nmax": 3, "seed": 0, field: value})
        with pytest.raises(InvalidSpec, match=f"^{field} must be an integer"):
            tml.run_suite(cfg)


def test_campaign_scans_always_run_to_completion(monkeypatch):
    # Campaigns take no budget: at EXACT_NMAX the longest stream any scan
    # walks, fd-hh at 4 x 4 with zero sets of 4 and 2 points, fits the
    # default budget, so every engine result a suite reads is complete.
    longest = max(
        tml.correspondence_count(z1, z2) * tml.engine._covers(n1 - z1, z1, n2 - z2, z2)
        for n1, n2, z1, z2 in itertools.product(range(1, 5), repeat=4) if z1 <= n1 and z2 <= n2
    )
    assert longest == 224 <= tml.DEFAULT_BUDGET
    assert tml.harness.EXACT_NMAX == 4
    results = []
    for name in ("gh_distance", "kappa_gh_distance", "tau_h_distance", "bb_gh", "fd_hh"):
        def recorded(*args, _driver=getattr(tml.harness, name), **kwargs):
            results.append(_driver(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(tml.harness, name, recorded)
    tml.run_suite(tml.CampaignConfig(suite="all", trials=2))
    assert {r.kind for r in results} == {
        tml.DistanceKind.GH, tml.DistanceKind.KAPPA_GH, tml.DistanceKind.TAU_H,
        tml.DistanceKind.BB_GH, tml.DistanceKind.FD_HH,
    }
    assert not any(r.budget_exhausted for r in results)


def bb_cone_base(seed=17, n=4):
    space = tml.random_metric_space(seed, n)
    return tml.make_future_developed(space, [int(space.d.argmax()) // n])


@pytest.mark.parametrize("family", tml.SEQUENCE_FAMILIES)
def test_sequence_experiment_passes(family):
    spec = tml.SequenceSpec(family, bb_cone_base(), length=4, rate=0.5, seed=3)
    rows = tml.run_sequence_experiment(spec)
    assert len(rows) == 4
    for j, row in enumerate(rows):
        assert row.passed
        assert row.family == family
        assert row.j == j
        assert row.gh_lower <= row.gh_upper + 1e-12
        assert row.gh_upper <= row.tau_h + 1e-7
        json.loads(row.details)


def test_sequence_experiment_checks_its_budget_first(monkeypatch):
    # A budget that is not an integer >= 1 is refused as `distance` refuses
    # it, before any element is built.
    spec = tml.SequenceSpec("refine-bb-cone", bb_cone_base(), length=2, rate=0.5, seed=3)
    monkeypatch.setattr(tml.harness, "build_sequence", None)
    for budget in (0, -1, 2.5, True, "9", 1e9, None):
        with pytest.raises(ValueError, match=f"^budget must be an integer >= 1, got {budget!r}$"):
            tml.run_sequence_experiment(spec, budget=budget)


def test_sequence_experiment_bb_columns():
    spec = tml.SequenceSpec("perturb-geometric", bb_cone_base(), length=3, rate=0.5, seed=1)
    rows = tml.run_sequence_experiment(spec)
    for row in rows:
        assert row.space_class == "big-bang"
        assert row.bb_gh_upper is not None
        assert row.tau_h <= 2.0 * row.bb_gh_upper + 1e-7

    flat = tml.SequenceSpec("collapse-time", bb_cone_base(), length=3, rate=0.5, seed=1)
    flat_rows = tml.run_sequence_experiment(flat)
    # the collapse limit has zero time everywhere, so it is not a big bang
    assert all(row.bb_gh_upper is None for row in flat_rows)


def test_sequence_experiment_decay_bound():
    spec = tml.SequenceSpec("perturb-geometric", bb_cone_base(), length=4, rate=0.5, seed=2)
    rows = tml.run_sequence_experiment(spec)
    envelope = rows[0].tau_h
    for j, row in enumerate(rows):
        assert row.tau_h <= envelope * 0.5**j + 1e-7
        assert row.bound == pytest.approx(envelope * 0.5**j)
