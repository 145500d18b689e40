import itertools
import math
import re

import numpy as np
import pytest

import tml
from tml.engine import _covers, _minimal_id_tuples
from tml.errors import InvalidBasepoint, NotBigBang, NotFutureDeveloped

from conftest import (
    DRIVERS,
    all_covering_pairsets,
    brute_fd,
    brute_gh,
    brute_kappa,
    brute_pointed,
    brute_tau_h,
    family_stream,
    oracle_distortion,
    oracle_fd_objective,
    oracle_hausdorff_cost,
    oracle_pointed_objective,
    tau_value_hausdorff,
)


def minimal_filter(pairs, n1, n2):
    """A pair set is minimal when removing any pair breaks coverage."""
    pairs = set(pairs)
    for p in pairs:
        rest = pairs - {p}
        if {a for a, _ in rest} == set(range(n1)) and {b for _, b in rest} == set(range(n2)):
            return False
    return True


def minimal_covers(n1, n2, zeros1, zeros2):
    """Every relation with no pair inside zeros1 x zeros2 that covers the
    points outside the zero sets, and stops covering them when any pair goes,
    as sorted pair tuples in order."""
    cells = [(a, b) for a in range(n1) for b in range(n2) if not (a in zeros1 and b in zeros2)]
    need1, need2 = set(range(n1)) - set(zeros1), set(range(n2)) - set(zeros2)

    def covers(pairs):
        return need1 <= {a for a, _ in pairs} and need2 <= {b for _, b in pairs}

    found = []
    for mask in range(1 << len(cells)):
        pairs = [c for k, c in enumerate(cells) if mask >> k & 1]
        if covers(pairs) and not any(covers(pairs[:k] + pairs[k + 1:]) for k in range(len(pairs))):
            found.append(tuple(pairs))
    return sorted(found)


def covered_sets(n1, n2, rng, draws):
    """Nothing covered, everything covered, and `draws` random pairs of
    covered row and column subsets."""
    yield [], []
    yield list(range(n1)), list(range(n2))
    for _ in range(draws):
        yield ([i for i in range(n1) if rng.random() < 0.5], [j for j in range(n2) if rng.random() < 0.5])


def spaces_for(seed, n1, n2, timed=False):
    x1 = tml.random_metric_space(seed * 2 + 1, n1, model="euclidean")
    x2 = tml.random_metric_space(seed * 2 + 2, n2, model="graph")
    if not timed:
        return x1, x2
    t1 = tml.random_time_function(seed * 3 + 1, x1, model=("cone", "set-cone", "mcshane")[seed % 3])
    t2 = tml.random_time_function(seed * 3 + 2, x2, model=("mcshane", "cone", "set-cone")[seed % 3])
    return t1, t2


# ---------------------------------------------------------------------------
# Enumerator.


def minimal_pair_tuples(n1, n2):
    """The enumerator's id tuples, each decoded to its sorted pair tuple."""
    for ids in _minimal_id_tuples(n1, n2):
        yield tuple(divmod(p, n2) for p in ids)


def test_minimal_enumeration_matches_brute_force_filter():
    for n1, n2 in itertools.product(range(1, 4), repeat=2):
        expected = sorted(
            tuple(sorted(p)) for p in all_covering_pairsets(n1, n2) if minimal_filter(p, n1, n2)
        )
        produced = list(minimal_pair_tuples(n1, n2))
        assert produced == expected, (n1, n2)


def test_minimal_enumeration_counts():
    counts = {(2, 2): 2, (3, 3): 15, (4, 4): 184, (5, 5): 2945, (5, 2): 30, (9, 3): 18177}
    for (n1, n2), expected in counts.items():
        assert sum(1 for _ in minimal_pair_tuples(n1, n2)) == expected


def test_minimal_enumeration_is_sorted_and_unique():
    seen = list(minimal_pair_tuples(3, 3))
    assert seen == sorted(set(seen))
    for pairs in seen:
        assert pairs == tuple(sorted(pairs))
        assert tml.engine.pairs_are_minimal(pairs)


def test_enumerator_yields_the_ids_of_its_pairs():
    # Id a * n2 + b stands for pair (a, b), and ids order as pairs do.
    for n1, n2 in itertools.product(range(1, 5), repeat=2):
        ids = list(_minimal_id_tuples(n1, n2))
        decoded = [tuple(divmod(p, n2) for p in t) for t in ids]
        assert [tuple(a * n2 + b for a, b in pairs) for pairs in decoded] == ids
        assert ids == sorted(ids) and decoded == sorted(decoded)


def test_enumerator_hook_refuses_subtrees_and_sees_the_ids_it_holds():
    # An admit that refuses some ids removes exactly the tuples holding
    # them, in stream order, each after the held ids.  Every ask sees the
    # enumerator's ids: the held ones, then ids each admitted by an earlier
    # ask on the ids before it.  A tuple past the held ids comes right after
    # its last id is admitted on the rest.  With covered points too; the
    # empty cover comes before any ask.
    rng = np.random.default_rng(0)
    for n1, n2 in itertools.product(range(1, 5), repeat=2):
        cells = list(range(n1 * n2))
        refusals = (set(), {cells[0]}, {cells[-1]}, set(cells[1::3]), set(cells[::2]))
        for refused, covered in itertools.product(refusals, covered_sets(n1, n2, rng, 2)):
            held = tuple(rng.integers(n1 * n2, size=rng.integers(3)).tolist())
            asks = []

            def admit(p, ids):
                ids = tuple(ids)
                assert ids[:len(held)] == held
                assert all((ids[:k], ids[k], True) in asks for k in range(len(held), len(ids)))
                asks.append((ids, p, p not in refused))
                return p not in refused

            walked = []
            for ids in _minimal_id_tuples(n1, n2, admit, covered, held):
                if len(ids) > len(held):
                    assert asks[-1] == (ids[:-1], ids[-1], True)
                walked.append(ids)
            stream = _minimal_id_tuples(n1, n2, covered=covered)
            expected = [held + t for t in stream if refused.isdisjoint(t)]
            assert walked == expected, (n1, n2, refused, covered, held)


def test_correspondence_count_is_the_stream_length():
    for n1, n2 in itertools.product(range(6), repeat=2):
        assert tml.correspondence_count(n1, n2) == len(list(minimal_pair_tuples(n1, n2))), (n1, n2)
    # Too long to enumerate in a test; both match a complete scan's `explored`.
    assert tml.correspondence_count(6, 6) == 63_756
    assert tml.correspondence_count(7, 7) == 1_748_803
    # With covered points: the minimal covers of the rest, in order, and
    # their count, against brute force over every relation.
    rng = np.random.default_rng(1)
    for n1, n2 in itertools.product(range(1, 5), repeat=2):
        if n1 * n2 > 12:
            continue
        for z1, z2 in covered_sets(n1, n2, rng, 6 if n1 * n2 <= 9 else 3):
            expected = minimal_covers(n1, n2, z1, z2)
            produced = [tuple(divmod(p, n2) for p in t)
                        for t in _minimal_id_tuples(n1, n2, covered=(z1, z2))]
            assert produced == expected, (n1, n2, z1, z2)
            assert _covers(n1 - len(z1), len(z1), n2 - len(z2), len(z2)) == len(expected)


def test_stream_length_counts_zero_set_correspondences():
    x1, x2 = spaces_for(3, 4, 5)
    a = tml.random_time_function(1, x1, model="set-cone", subset_size=2)
    b = tml.random_time_function(2, x2, model="set-cone", subset_size=3)
    # A complete scan explores its whole stream: each minimal correspondence
    # between the zero sets (none for gh and tau-h, the anchor for pt-gh)
    # followed by each minimal cover of the points outside them.
    assert tml.correspondence_count(4, 5) == 680
    assert tml.gh_distance(x1, x2).explored == 680
    assert tml.tau_h_distance(a, b).explored == 680
    assert tml.pointed_gh(x1, 0, x2, 1).explored == _covers(3, 1, 4, 1) == 356
    # 2 x 3 zero sets have 6 minimal correspondences; each is followed by
    # the 72 minimal covers of the other 2 + 2 points.
    assert tml.correspondence_count(2, 3) == 6 and _covers(2, 2, 2, 3) == 72
    assert tml.fd_hh(a, b).explored == 6 * 72
    # Full zero sets: the candidates are the minimal correspondences, 184 at
    # 4 x 4 (33,856 joins of two of them) and 2,945 at 5 x 5 (8,673,025
    # joins, more than the default budget).
    for n, total in ((4, 184), (5, 2945)):
        full = [tml.build_timed_space(x, np.zeros(n))
                for x in (tml.random_metric_space(3, n), tml.random_metric_space(4, n, model="graph"))]
        result = tml.fd_hh(*full)
        assert (result.explored, result.budget_exhausted) == (total, False)
        assert result.upper == tml.gh_distance(full[0].base, full[1].base).upper * 2.0


def test_minimal_correspondence_stream_budget():
    full = list(tml.minimal_correspondences(2, 2))
    assert len(full) == 2
    assert all(c.minimal for c in full)
    assert len(list(tml.minimal_correspondences(2, 2, budget=1))) == 1
    assert list(tml.minimal_correspondences(2, 2, budget=0)) == []
    assert [c.pairs for c in tml.minimal_correspondences(3, 2)] == list(minimal_pair_tuples(3, 2))
    # Refused when called, before the stream is read.
    for budget in (-1, 1.5, True, "1"):
        with pytest.raises(ValueError, match=f"^budget must be None or an integer >= 0, got {budget!r}$"):
            tml.minimal_correspondences(2, 2, budget=budget)


def test_make_correspondence_and_transpose():
    corr = tml.make_correspondence(2, 2, [(0, 0), (1, 1), (1, 0)])
    assert corr.pairs == ((0, 0), (1, 0), (1, 1))
    assert not corr.minimal
    back = tml.transpose(corr)
    assert back.pairs == ((0, 0), (0, 1), (1, 1))
    with pytest.raises(ValueError):
        tml.make_correspondence(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        tml.make_correspondence(2, 2, [(0, 0), (1, 2)])
    # An index that is not an integer is refused, not coerced.
    for pair, name, value in (((0.5, 0), "row", "0.5"), ((True, 0), "row", "True"),
                              (("0", 0), "row", "'0'"), ((1, 1.0), "column", "1.0")):
        with pytest.raises(ValueError, match=rf"^{name} {value} is not an integer in \[0, 2\)$"):
            tml.make_correspondence(2, 2, [pair, (1, 1), (0, 1)])


@pytest.mark.parametrize("call", [
    tml.minimal_correspondences,
    tml.correspondence_count,
    lambda n1, n2: tml.make_correspondence(n1, n2, [(0, 0), (1, 1)]),
], ids=["minimal_correspondences", "correspondence_count", "make_correspondence"])
@pytest.mark.parametrize("n1, n2, bad", [(True, 2, "n1"), (2.5, 2, "n1"), (2, 2.0, "n2"),
                                         (-1, 2, "n1"), (2, -1, "n2"), ("2", 2, "n1"),
                                         (None, 2, "n1"), (2, False, "n2")])
def test_point_counts_are_checked(call, n1, n2, bad):
    # Each point count is an integer >= 0: no bool, float, string or
    # negative count reaches the stream, the count or the record.
    value = repr(n1 if bad == "n1" else n2)
    with pytest.raises(ValueError, match=rf"^{bad} must be an integer >= 0, got {re.escape(value)}$"):
        call(n1, n2)


def test_empty_point_sets_are_still_counted():
    assert tml.correspondence_count(0, 3) == 0
    assert list(tml.minimal_correspondences(0, 2)) == []
    assert tml.make_correspondence(0, 0, []) == tml.Correspondence(0, 0, (), True)


def test_costs_refuse_a_correspondence_of_other_sizes(path3):
    # Every plain cost and the gluing read a correspondence only against
    # spaces of its own sizes.  Undersized, it would leave points unmatched
    # and read 0.0; oversized or transposed, it would read out of range.
    x4 = tml.random_metric_space(32, 4)
    t3 = tml.make_future_developed(path3, [0])
    t4 = tml.make_future_developed(x4, [0])
    identity3 = tml.make_correspondence(3, 3, [(i, i) for i in range(3)])
    identity4 = tml.make_correspondence(4, 4, [(i, i) for i in range(4)])
    wide = tml.make_correspondence(3, 4, [(0, 0), (1, 1), (2, 2), (2, 3)])
    calls = (
        lambda c, a, b: tml.distortion(c, a.base, b.base),
        lambda c, a, b: tml.correspondence_hausdorff(c, a.base, b.base),
        tml.timed_correspondence_hausdorff,
        lambda c, a, b: tml.engine.pointed_glued_objective(c, a.base, 0, b.base, 0),
        lambda c, a, b: tml.engine.fd_glued_objective(c, a, b, [0], [0]),
        lambda c, a, b: tml.glued_cross_distances(a.base, b.base, c, 5.0),
        lambda c, a, b: tml.glue_by_correspondence(a.base, b.base, c, 5.0),
    )
    for call in calls:
        for corr, a, b in ((identity3, t4, t4), (identity4, t3, t4), (wide, t3, t3), (wide, t4, t3)):
            sizes = rf"{corr.n1} x {corr.n2} points, not {a.n} x {b.n}"
            with pytest.raises(ValueError, match=rf"^the correspondence relates {sizes}$"):
                call(corr, a, b)
        call(wide, t3, t4)


# ---------------------------------------------------------------------------
# Worked values.


def segment(length, labels=("u", "v")):
    return tml.build_metric_space(labels, np.array([[0.0, length], [length, 0.0]]))


def test_gh_two_segments():
    result = tml.gh_distance(segment(2.0), segment(1.0, labels=("a", "b")))
    assert result.is_exact
    assert result.lower == result.upper == 0.5
    assert result.certificate.pairs in (((0, 0), (1, 1)), ((0, 1), (1, 0)))


def test_kappa_segment_vs_point():
    one = tml.build_metric_space(("z",), np.zeros((1, 1)))
    result = tml.kappa_gh_distance(segment(2.0), one)
    assert result.is_exact
    assert result.upper == 2.0
    gh = tml.gh_distance(segment(2.0), one)
    assert gh.upper == 1.0
    assert result.upper == 2.0 * gh.upper


def test_tau_h_worked_pair(worked_bb_pair):
    t1, t2 = worked_bb_pair
    result = tml.tau_h_distance(t1, t2)
    assert result.is_exact
    assert result.upper == 1.0


def test_bb_gh_worked_pair(worked_bb_pair):
    t1, t2 = worked_bb_pair
    result = tml.bb_gh(t1, t2)
    assert (result.lower, result.upper) == (0.5, 1.0)
    assert result.anchor == (0, 0)
    assert not result.is_exact


def test_pointed_gh_identical_spaces(path3):
    result = tml.pointed_gh(path3, 1, path3, 1)
    assert result.is_exact
    assert result.lower == result.upper == 0.0
    assert result.anchor == (1, 1)


def test_fd_hh_zero_set_example(path3):
    # identical bases, zero sets {a} vs {a, b} with d(a, b) = 1
    t1 = tml.make_future_developed(path3, [0])
    t2 = tml.make_future_developed(path3, [0, 1])
    result = tml.fd_hh(t1, t2)
    assert result.upper == brute_fd(t1, t2)
    assert (result.lower, result.upper) == (0.5, 1.0)
    assert result.zero_pairs is not None


def test_fd_hh_rejects_generic(path3):
    generic = tml.build_timed_space(path3, np.ones(3))
    fd = tml.build_timed_space(path3, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(NotFutureDeveloped) as info:
        tml.fd_hh(generic, fd)
    assert info.value.side == 1
    with pytest.raises(NotFutureDeveloped):
        tml.fd_hh(fd, generic)


def test_bb_gh_rejects_non_big_bang(path3):
    fd = tml.build_timed_space(path3, np.array([0.0, 1.0, 0.0]))
    bb = tml.build_timed_space(path3, path3.d[0])
    with pytest.raises(NotBigBang):
        tml.bb_gh(fd, bb)


def test_pointed_objective_requires_related_basepoints(path3):
    corr = tml.make_correspondence(3, 3, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(InvalidBasepoint):
        tml.engine.pointed_glued_objective(corr, path3, 0, path3, 1)
    # (True, 1) would pass as the related pair (1, 1).
    with pytest.raises(InvalidBasepoint, match=r"^basepoint True is not an integer in \[0, 3\)$"):
        tml.engine.pointed_glued_objective(corr, path3, True, path3, 1)
    timed = tml.make_future_developed(path3, [1])
    with pytest.raises(ValueError, match=r"^zero point True is not an integer in \[0, 3\)$"):
        tml.engine.fd_glued_objective(corr, timed, timed, [True], [1])


# ---------------------------------------------------------------------------
# Oracle equality at tiny sizes.


def test_gh_kappa_tau_match_brute_force_exactly():
    for seed in range(12):
        rng = np.random.default_rng(seed + 100)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t1, t2 = spaces_for(seed, n1, n2, timed=True)
        assert tml.gh_distance(t1.base, t2.base).upper == brute_gh(t1.base, t2.base)
        assert tml.kappa_gh_distance(t1.base, t2.base).upper == brute_kappa(t1.base, t2.base)
        assert tml.tau_h_distance(t1, t2).upper == brute_tau_h(t1, t2)


def test_pointed_upper_matches_brute_family_minimum():
    for seed in range(10):
        rng = np.random.default_rng(seed + 300)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x1, x2 = spaces_for(seed, n1, n2)
        p1, p2 = int(rng.integers(n1)), int(rng.integers(n2))
        result = tml.pointed_gh(x1, p1, x2, p2)
        expected = brute_pointed(x1, p1, x2, p2)
        assert result.upper == expected
        assert result.upper / 2.0 <= result.lower <= result.upper


def test_fd_upper_matches_brute_family_minimum(path3):
    cases = [
        (np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 2.0])),
        (np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        (np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0])),
    ]
    for tau1, tau2 in cases:
        t1 = tml.build_timed_space(path3, tau1)
        t2 = tml.build_timed_space(path3, tau2)
        assert tml.fd_hh(t1, t2).upper == brute_fd(t1, t2)
    for seed in range(6):
        rng = np.random.default_rng(seed + 400)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x1, x2 = spaces_for(seed, n1, n2)
        t1 = tml.make_future_developed(x1, rng.choice(n1, size=int(rng.integers(1, n1 + 1)), replace=False))
        t2 = tml.make_future_developed(x2, rng.choice(n2, size=int(rng.integers(1, n2 + 1)), replace=False))
        assert tml.fd_hh(t1, t2).upper == brute_fd(t1, t2)


def test_per_correspondence_costs_match_oracle():
    for seed in range(8):
        rng = np.random.default_rng(seed + 500)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t1, t2 = spaces_for(seed, n1, n2, timed=True)
        for pairs in itertools.islice(all_covering_pairsets(n1, n2), 0, None, 7):
            corr = tml.make_correspondence(n1, n2, pairs)
            assert tml.distortion(corr, t1.base, t2.base) == oracle_distortion(
                pairs, t1.d, t2.d
            )
            assert tml.correspondence_hausdorff(corr, t1.base, t2.base) == (
                oracle_hausdorff_cost(pairs, t1.d, t2.d)
            )
            assert tml.timed_correspondence_hausdorff(corr, t1, t2) == (
                oracle_hausdorff_cost(pairs, t1.d, t2.d, t1.tau, t2.tau)
            )


def test_objective_nondecreasing_in_delta(path3):
    # Scanning offsets above half the distortion cannot find anything better,
    # so the searched value is the family minimum over all valid offsets.
    x2 = tml.random_metric_space(9, 3, model="graph")
    result = tml.pointed_gh(path3, 0, x2, 0)
    for pairs in all_covering_pairsets(3, 3):
        if (0, 0) not in pairs:
            continue
        dis = oracle_distortion(pairs, path3.d, x2.d)
        base = oracle_pointed_objective(pairs, path3.d, 0, x2.d, 0)
        assert base >= result.upper - 1e-12
        for bump in (0.1, 0.5, 2.0):
            delta = dis / 2.0 + bump
            cross = tml.glued_cross_distances(path3, x2, tml.make_correspondence(3, 3, pairs), delta)
            value = float(max(cross.min(axis=1).max(), cross.min(axis=0).max())) + float(
                cross[0, 0]
            )
            assert value >= base - 1e-12


# ---------------------------------------------------------------------------
# Structural properties.


def test_distances_are_symmetric():
    for seed in range(6):
        t1, t2 = spaces_for(seed, 3, 2 + seed % 2, timed=True)
        for fn in (tml.gh_distance, tml.kappa_gh_distance):
            ab = fn(t1.base, t2.base)
            ba = fn(t2.base, t1.base)
            assert (ab.lower, ab.upper) == (ba.lower, ba.upper)
        ab = tml.tau_h_distance(t1, t2)
        ba = tml.tau_h_distance(t2, t1)
        assert (ab.lower, ab.upper) == (ba.lower, ba.upper)


def test_distance_to_self_is_zero(path3):
    timed = tml.build_timed_space(path3, path3.d[0])
    assert tml.gh_distance(path3, path3).upper == 0.0
    assert tml.kappa_gh_distance(path3, path3).upper == 0.0
    assert tml.tau_h_distance(timed, timed).upper == 0.0
    assert tml.bb_gh(timed, timed).upper == 0.0
    one = tml.build_timed_space(
        tml.build_metric_space(("o",), np.zeros((1, 1))), np.zeros(1)
    )
    assert tml.fd_hh(one, one).upper == 0.0


def test_sandwich_and_order_chain():
    for seed in range(10):
        t1, t2 = spaces_for(seed, 1 + seed % 3, 1 + (seed + 1) % 3, timed=True)
        gh = tml.gh_distance(t1.base, t2.base).upper
        kappa = tml.kappa_gh_distance(t1.base, t2.base).upper
        tau = tml.tau_h_distance(t1, t2).upper
        assert gh <= kappa + 1e-12
        assert kappa <= 2.0 * gh + 1e-12
        assert kappa <= tau + 1e-12
        assert tau_value_hausdorff(t1, t2) <= tau + 1e-12


def test_tau_h_triangle_inequality():
    for seed in range(8):
        spaces = []
        for k in range(3):
            x = tml.random_metric_space(seed * 7 + k, 3, model="euclidean")
            spaces.append(
                tml.random_time_function(seed * 11 + k, x, model=("cone", "set-cone", "mcshane")[k])
            )
        ab = tml.tau_h_distance(spaces[0], spaces[1]).upper
        bc = tml.tau_h_distance(spaces[1], spaces[2]).upper
        ac = tml.tau_h_distance(spaces[0], spaces[2]).upper
        assert ac <= ab + bc + 1e-12


def test_simple_lower_bounds(worked_bb_pair):
    t1, t2 = worked_bb_pair
    assert tml.engine.simple_lower_bounds(tml.DistanceKind.GH, t1.base, t2.base) == 0.5
    assert tml.engine.simple_lower_bounds(tml.DistanceKind.TAU_H, t1, t2) == 1.0


@pytest.mark.parametrize("kind", ["tau-h", "gh", "nonsense", None, 0])
def test_simple_lower_bounds_refuse_a_kind_that_is_not_a_distance_kind(worked_bb_pair, kind):
    # A string would skip the time-gap bound and the timed check; refuse it
    # as `distance` does.
    t1, t2 = worked_bb_pair
    message = f"^unknown distance kind {re.escape(repr(kind))}$"
    with pytest.raises(ValueError, match=message):
        tml.simple_lower_bounds(kind, t1, t2)
    with pytest.raises(ValueError, match=message):
        tml.distance(kind, t1, t2)


# ---------------------------------------------------------------------------
# Budgets, certificates, re-evaluation.


def test_budget_semantics():
    x1 = tml.random_metric_space(21, 3)
    x2 = tml.random_metric_space(22, 3)
    exact = tml.gh_distance(x1, x2)
    assert exact.explored == 15 and exact.is_exact

    clipped = tml.gh_distance(x1, x2, budget=4)
    assert clipped.budget_exhausted and not clipped.is_exact
    assert clipped.explored == 4
    assert clipped.lower <= exact.upper <= clipped.upper
    with pytest.raises(tml.BudgetTooSmall):
        tml.require_exact(clipped)

    # a budget equal to the stream length is not an exhaustion
    fits = tml.gh_distance(x1, x2, budget=15)
    assert fits.is_exact and not fits.budget_exhausted

    bb1 = tml.random_time_function(23, x1, model="cone")
    bb2 = tml.random_time_function(24, x2, model="cone")
    drivers = (
        lambda budget: tml.gh_distance(x1, x2, budget=budget),
        lambda budget: tml.kappa_gh_distance(x1, x2, budget=budget),
        lambda budget: tml.tau_h_distance(bb1, bb2, budget=budget),
        lambda budget: tml.pointed_gh(x1, 0, x2, 1, budget=budget),
        lambda budget: tml.bb_gh(bb1, bb2, budget=budget),
        lambda budget: tml.fd_hh(bb1, bb2, budget=budget),
    )
    for driver in drivers:
        with pytest.raises(ValueError):
            driver(0)


def test_budget_cut_lower_is_only_the_simple_bound():
    # A cut pt-gh/bb-gh/fd-hh scan has not seen every candidate, so half its
    # upper certifies nothing; only the simple bounds do.
    a = tml.random_time_function(102, tml.random_metric_space(102, 6), model="cone")
    b = tml.random_time_function(202, tml.random_metric_space(202, 6), model="cone")
    # The complete scans' certificates (63,756 candidates each, a few seconds);
    # their plain objective is the complete scan's upper.
    bb_full = tml.make_correspondence(6, 6, [(0, 3), (1, 0), (2, 4), (3, 1), (4, 5), (5, 2)])
    pt_full = tml.make_correspondence(
        6, 6, [(0, 0), (1, 5), (2, 1), (2, 2), (3, 3), (4, 3), (5, 4)]
    )
    cut_bb = tml.bb_gh(a, b, budget=500)
    cut_pt = tml.pointed_gh(a.base, 0, b.base, 0, budget=500)
    assert cut_bb.budget_exhausted and cut_pt.budget_exhausted
    assert cut_bb.anchor == (3, 1)
    objective = tml.engine.pointed_glued_objective
    assert cut_bb.lower <= objective(bb_full, a.base, 3, b.base, 1)
    assert cut_pt.lower <= objective(pt_full, a.base, 0, b.base, 0)

    x1 = tml.random_metric_space(3, 4)
    x2 = tml.random_metric_space(4, 4, model="graph")
    t1 = tml.random_time_function(5, x1, model="set-cone", subset_size=2)
    t2 = tml.random_time_function(6, x2, model="set-cone", subset_size=2)
    for result, s1, s2 in (
        (tml.pointed_gh(x1, 1, x2, 2, budget=9), x1, x2),
        (tml.bb_gh(a, b, budget=9), a, b),
        (tml.fd_hh(t1, t2, budget=9), t1, t2),
    ):
        assert result.budget_exhausted and not result.is_exact
        floor = tml.engine.simple_lower_bounds(result.kind, s1, s2)
        assert result.lower == min(floor, result.upper)


def test_reevaluate_reproduces_upper(path3):
    t1 = tml.build_timed_space(path3, np.array([0.0, 1.0, 0.0]))
    bb1 = tml.build_timed_space(path3, path3.d[0])
    x2 = tml.random_metric_space(31, 3)
    t2 = tml.make_future_developed(x2, [0])
    checks = [
        (tml.gh_distance(path3, x2), path3, x2),
        (tml.kappa_gh_distance(path3, x2), path3, x2),
        (tml.tau_h_distance(t1, t2), t1, t2),
        (tml.pointed_gh(path3, 1, x2, 2), path3, x2),
        (tml.bb_gh(bb1, t2), bb1, t2),
        (tml.fd_hh(t1, t2), t1, t2),
    ]
    for result, a, b in checks:
        assert tml.reevaluate(result, a, b) == result.upper
    # Spaces swapped: refused by size, not read out of range.
    x4 = tml.random_metric_space(32, 4)
    with pytest.raises(ValueError, match=r"^the certificate relates 3 x 4 points, not 4 x 3$"):
        tml.reevaluate(tml.gh_distance(path3, x4), x4, path3)


def test_local_search_certifies_upper_bounds(path3):
    x2 = tml.random_metric_space(41, 4, model="graph")
    for kind, args in (
        (tml.DistanceKind.GH, (path3, x2)),
        (tml.DistanceKind.KAPPA_GH, (path3, x2)),
    ):
        exact = {
            tml.DistanceKind.GH: tml.gh_distance,
            tml.DistanceKind.KAPPA_GH: tml.kappa_gh_distance,
        }[kind](*args)
        heur = tml.local_search_upper(kind, *args, seed=5)
        assert not heur.is_exact
        assert heur.upper >= exact.upper - 1e-15
        assert tml.reevaluate(heur, *args) == heur.upper

    t1 = tml.build_timed_space(path3, path3.d[0])
    t2 = tml.make_future_developed(x2, [1])
    heur = tml.local_search_upper(tml.DistanceKind.TAU_H, t1, t2, seed=5)
    assert heur.upper >= tml.tau_h_distance(t1, t2).upper - 1e-15

    pointed = tml.local_search_upper(tml.DistanceKind.BB_GH, t1, t2, seed=5)
    assert pointed.anchor == (0, 1)
    assert (0, 1) in pointed.certificate.pairs
    assert pointed.upper >= tml.bb_gh(t1, t2).upper - 1e-15

    fd = tml.local_search_upper(tml.DistanceKind.FD_HH, t1, t2, seed=5)
    assert fd.upper >= tml.fd_hh(t1, t2).upper - 1e-15
    assert fd.zero_pairs == tuple(p for p in fd.certificate.pairs if p[0] == 0 and p[1] == 1)
    assert tml.reevaluate(fd, t1, t2) == fd.upper


def test_local_search_checks_inputs_like_the_exact_drivers(path3):
    fd = tml.build_timed_space(path3, np.array([0.0, 1.0, 0.0]))
    bb = tml.build_timed_space(path3, path3.d[0])
    generic = tml.build_timed_space(path3, np.ones(3))
    search = tml.local_search_upper
    with pytest.raises(NotBigBang) as info:
        search(tml.DistanceKind.BB_GH, bb, fd, seed=0)
    assert info.value.side == 2
    with pytest.raises(NotFutureDeveloped) as info:
        search(tml.DistanceKind.FD_HH, generic, fd, seed=0)
    assert info.value.side == 1
    with pytest.raises(InvalidBasepoint):
        search(tml.DistanceKind.PT_GH, path3, path3, seed=0)
    for basepoints in ((0, 3), (-1, 0), (1.5, 0), (True, 0), (0,), 5, (0, 0, 7)):
        with pytest.raises(InvalidBasepoint):
            search(tml.DistanceKind.PT_GH, path3, path3, seed=0, basepoints=basepoints)
        with pytest.raises(InvalidBasepoint):
            tml.distance(tml.DistanceKind.PT_GH, path3, path3, basepoints=basepoints)
        if isinstance(basepoints, tuple) and len(basepoints) == 2:
            with pytest.raises(InvalidBasepoint):
                tml.pointed_gh(path3, basepoints[0], path3, basepoints[1])


@pytest.mark.parametrize("tol", ["x", -1.0, math.nan, math.inf, True, None, -5])
def test_a_bad_tolerance_fails_the_same_way_everywhere(tol, path3):
    # Every kind checks tol, not only the two that classify with it, and so
    # does every validator and builder that takes one.
    timed = tml.build_timed_space(path3, path3.d[0])
    message = f"^tol must be a finite real >= 0, got {tol!r}$"
    for kind in tml.DistanceKind:
        x = timed if kind in tml.TIMED_KINDS else path3
        with pytest.raises(ValueError, match=message):
            tml.distance(kind, x, x, tol=tol, basepoints=(0, 0))
        with pytest.raises(ValueError, match=message):
            tml.local_search_upper(kind, x, x, seed=0, tol=tol, basepoints=(0, 0))
    with pytest.raises(ValueError, match=message):
        tml.classify(timed, tol=tol)
    # A broken triangle (by 3.0), a time function that breaks 1-Lipschitz
    # (by 7.0), and a gluing at offset 0 that makes distinct points coincide.
    broken = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    identity = tml.make_correspondence(3, 3, [(i, i) for i in range(3)])
    for call in (
        lambda: tml.metric_violations(np.array(broken), tol),
        lambda: tml.build_metric_space("abc", broken, tol=tol),
        lambda: tml.time_violations(path3, np.array([0.0, 0.0, 8.0]), tol),
        lambda: tml.build_timed_space(path3, [0.0, 0.0, 8.0], tol=tol),
        lambda: tml.glue_by_correspondence(path3, path3, identity, 0.0, tol=tol),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    for call in (
        lambda: tml.structure_report(timed, delta=tol),
        lambda: tml.glue_by_correspondence(path3, path3, identity, tol),
        lambda: tml.engine.glued_cross_distances(path3, path3, identity, tol),
    ):
        with pytest.raises(ValueError, match=f"^delta must be a finite real >= 0, got {tol!r}$"):
            call()


@pytest.mark.parametrize("kind", [tml.DistanceKind.BB_GH, tml.DistanceKind.FD_HH],
                         ids=lambda k: k.value)
def test_local_search_classifies_at_its_tolerance(kind):
    # Cone spaces whose times are all raised by 1e-5: a big bang (and future
    # developed) space at tol 1e-3, but not at the default tolerance.
    def lifted(seed, n):
        t = tml.random_time_function(seed, tml.random_metric_space(seed, n), model="cone")
        return tml.build_timed_space(t.base, t.tau + 1e-5)

    a, b = lifted(1, 4), lifted(2, 3)
    exact = tml.distance(kind, a, b, tol=1e-3)
    with pytest.raises(NotBigBang if kind is tml.DistanceKind.BB_GH else NotFutureDeveloped):
        tml.local_search_upper(kind, a, b, seed=0)
    search = tml.local_search_upper(kind, a, b, seed=0, tol=1e-3)
    assert (search.anchor, search.zero_pairs is None) == (exact.anchor, exact.zero_pairs is None)
    assert search.upper >= exact.upper
    assert tml.reevaluate(search, a, b) == search.upper


@pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 1.5), ("iterations", -3),
                                         ("iterations", 2.0), ("seed", True),
                                         ("iterations", False)])
def test_local_search_rejects_bad_counts(name, value, path3):
    # Refused by name before any search runs, fractional values and bools
    # included.
    args = {"seed": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got {value}$"):
        tml.local_search_upper(tml.DistanceKind.GH, path3, path3, **args)


@pytest.mark.parametrize("n", [1, 5])
def test_distance_rejects_a_fractional_budget(n):
    # Refused whether or not the stream fits the budget: 1 x 1 has one
    # candidate, 5 x 5 has 2,945.  A bool is no count either.
    x = tml.random_metric_space(3, n)
    with pytest.raises(ValueError, match="^budget must be an integer >= 1, got 1.5$"):
        tml.distance(tml.DistanceKind.GH, x, x, budget=1.5)
    with pytest.raises(ValueError, match="^budget must be an integer >= 1, got True$"):
        tml.gh_distance(x, x, budget=True)


@pytest.mark.parametrize("kind", [tml.DistanceKind.BB_GH, tml.DistanceKind.FD_HH],
                         ids=lambda k: k.value)
def test_one_structure_report_per_side(kind, monkeypatch, worked_bb_pair):
    # The class check and the anchor (bb-gh) or zero sets (fd-hh) share one
    # report per side.
    calls = []
    real = tml.spaces.structure_report

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tml.spaces, "structure_report", counted)
    monkeypatch.setattr(tml.engine, "structure_report", counted)
    t1, t2 = worked_bb_pair
    assert DRIVERS[kind](t1, t2, None).explored == 1
    assert calls == [t1, t2]


def test_local_search_deterministic(path3):
    x2 = tml.random_metric_space(51, 4)
    a = tml.local_search_upper(tml.DistanceKind.GH, path3, x2, seed=9)
    b = tml.local_search_upper(tml.DistanceKind.GH, path3, x2, seed=9)
    assert a == b


def test_local_search_path_is_pinned():
    # Graph spaces tie many neighbours; a descent that breaks ties other than
    # by the smallest tuple walks another path.  Values of the one-neighbour-
    # at-a-time loop; `explored` counts no add move (79, 67 and 64 of them
    # were scored when the search still built adds: 185, 209 and 212).
    pinned = {
        0: (0.2242304548330818, ((0, 0), (1, 1), (2, 2), (3, 0)), 106),
        1: (0.29404784426104746, ((0, 0), (1, 1), (1, 2), (2, 0), (3, 1)), 142),
        2: (0.1336247541599978, ((0, 0), (1, 1), (2, 2), (3, 0)), 148),
    }
    for seed, (upper, pairs, explored) in pinned.items():
        x1 = tml.random_metric_space(seed, 4, model="graph")
        x2 = tml.random_metric_space(seed + 100, 3, model="graph")
        r = tml.local_search_upper(tml.DistanceKind.GH, x1, x2, seed=seed)
        assert (r.upper, r.certificate.pairs, r.explored) == (upper, pairs, explored)


@pytest.mark.parametrize("kind", tml.TIMED_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("route", ["driver", "distance", "local-search"])
def test_untimed_inputs_fail_the_same_way_for_every_timed_kind(kind, route, path3):
    timed = tml.build_timed_space(path3, path3.d[0])
    call = {
        "driver": lambda a, b: DRIVERS[kind](a, b, None),
        "distance": lambda a, b: tml.distance(kind, a, b),
        "local-search": lambda a, b: tml.local_search_upper(kind, a, b, seed=0),
    }[route]
    for a, b in ((path3, timed), (timed, path3), (path3, path3)):
        with pytest.raises(TypeError, match=f"^{kind.value} needs timed spaces$"):
            call(a, b)


@pytest.mark.parametrize("shape", ["1x1", "1x3", "3x1"])
def test_spaces_without_local_moves(shape):
    # One correspondence exists, so local search has no neighbours at all and
    # every search scores the sole relation.  Values of the plain loop.
    one = tml.build_timed_space(tml.build_metric_space(("p",), np.zeros((1, 1))), np.zeros(1))
    line = tml.build_metric_space(
        ("a", "b", "c"), np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    )
    three = tml.build_timed_space(line, np.array([0.0, 1.0, 3.0]))
    a, b = {"1x1": (one, one), "1x3": (one, three), "3x1": (three, one)}[shape]
    pairs = tuple((i, j) for i in range(a.n) for j in range(b.n))
    K = tml.DistanceKind
    upper = {K.GH: 1.5, K.KAPPA_GH: 3.0, K.TAU_H: 3.0, K.PT_GH: 3.0, K.BB_GH: 3.0, K.FD_HH: 3.0}
    for kind in K:
        x, y = (a, b) if kind in tml.TIMED_KINDS else (a.base, b.base)
        bp = (0, 0) if kind is K.PT_GH else None
        want = 0.0 if shape == "1x1" else upper[kind]
        exact = tml.distance(kind, x, y, basepoints=bp)
        search = tml.local_search_upper(kind, x, y, seed=3, basepoints=bp)
        assert exact.upper == search.upper == want
        assert exact.certificate.pairs == search.certificate.pairs == pairs
        assert (exact.explored, search.explored) == (1, 4)
        assert exact.is_exact == (shape == "1x1" or kind in (K.GH, K.KAPPA_GH, K.TAU_H))
        assert not exact.budget_exhausted


@pytest.mark.parametrize(
    "kind", [tml.DistanceKind.GH, tml.DistanceKind.PT_GH, tml.DistanceKind.FD_HH], ids=lambda k: k.value
)
def test_budgets_at_block_boundaries(kind):
    # Budgets on both sides of the scan's block size, of the first required
    # set's end and of the stream's end, against a plain loop over the same
    # set-major stream with the plain objective; the certificate is the first
    # optimum in the stream.  At 5 x 5 the stream holds the 2,945 minimal
    # correspondences for gh, the anchor and its 1,441 minimal covers of the
    # rest for pt-gh, and for fd-hh each of the two minimal correspondences
    # between its two-point zero sets and their 535 minimal covers of the
    # rest.
    K = tml.DistanceKind
    x1 = tml.random_metric_space(4, 5, model="graph")
    x2 = tml.random_metric_space(104, 5, model="graph")
    a = tml.random_time_function(4, x1, model="set-cone", subset_size=2)
    b = tml.random_time_function(104, x2, model="set-cone", subset_size=2)
    x, y = (a, b) if kind is K.FD_HH else (x1, x2)
    anchor = (3, 2)
    if kind is K.GH:
        z1 = z2 = []
        plain = lambda corr: tml.engine.distortion(corr, x1, x2) / 2.0
    elif kind is K.PT_GH:
        z1, z2 = [anchor[0]], [anchor[1]]
        plain = lambda corr: tml.engine.pointed_glued_objective(corr, x1, anchor[0], x2, anchor[1])
    else:
        z1, z2 = ([i for i in range(5) if t.tau[i] <= tml.DEFAULT_TOL] for t in (a, b))
        plain = lambda corr: tml.engine.fd_glued_objective(corr, a, b, z1, z2)
    family = family_stream(5, 5, z1, z2)
    stream = [tuple(sorted(extra + rest)) for extra, rest in family]
    first_set = sum(extra == family[0][0] for extra, _ in family)
    assert (len(stream), first_set) == {K.GH: (2945, 2945), K.PT_GH: (1441, 1441),
                                        K.FD_HH: (1070, 535)}[kind]
    values = [plain(tml.make_correspondence(5, 5, p)) for p in stream]
    floor = tml.simple_lower_bounds(kind, x, y)

    B = tml.engine.BLOCK
    ends = {first_set - 1, first_set, first_set + 1, len(stream) - 1, len(stream), len(stream) + 1}
    for budget in sorted({B - 1, B, B + 1, 2 * B + 1} | ends):
        best, best_pairs = math.inf, None
        for pairs, value in zip(stream[:budget], values[:budget]):
            if value < best:
                best, best_pairs = value, pairs
        complete = budget >= len(stream)
        if not complete:
            lower = min(floor, best)
        elif kind is K.GH:
            lower = best
        else:
            lower = min(max(floor, best / 2.0), best)

        got = tml.distance(kind, x, y, budget=budget, basepoints=anchor)
        assert got.explored == min(budget, len(stream))
        assert got.budget_exhausted == (not complete)
        assert got.is_exact == (complete and lower == best)
        assert (got.upper, got.lower) == (best, lower)
        assert got.certificate.pairs == best_pairs
