"""Property tests of the six distance kinds on small seeded spaces.

For every kind: the generic entry ``distance`` equals the kind's driver,
swapping the arguments and relabelling the points leave ``upper`` unchanged
bit for bit, a space is at distance zero from itself, and the certificate
re-evaluates to ``upper``.  The engine's batched cost of a block of relations
equals the plain per-correspondence function of each relation, and the
Hausdorff value of a stack of tables equals each table's own.  A complete
scan returns what a plain loop over the stream returns: a stream of one
block in one batched call from a table cached by shape and zero sets, a
longer one by a walk that reaches fewer leaves than the stream holds and
starts no cover walk for a required set already beaten.  The stream, built
from the zero sets alone, is the family's; it asks its hook for every id,
a required set's own first, and skips a set at its first refused id.  The
glued objectives equal the distortion bit for bit, which is how the engine
scores them.  The prefix bounds the scan prunes on, with a required pair set
held before the path, never decrease as pairs are added, equal the batched
cost of each prefix and so the candidate's once the path is a whole minimal
cover of the rest, and come back when a pair is asked for again at any
depth; the rho bounds built a row of children at a time equal the one-pair
fold, in the walk's order with siblings asked for out of order.  The
one-loop enumerator yields the recursive one's stream (kept in conftest as
the reference) and asks and refuses in its order on the same ids, less the
last-row ids that cannot end in a leaf; ids it is told to hold lead every
tuple and every ask.  Local search returns what the set-based descent returns,
neighbour tables and tie breaks included, with the add moves it no longer
builds counted apart.  The table validators return what the plain pair and
triple loops return, on tables with ties, asymmetric, negative and
non-finite entries.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tml
from tml.errors import (
    Asymmetry,
    IndistinctPoints,
    LipschitzViolation,
    NegativeEntry,
    NegativeTime,
    NonzeroDiagonal,
    TriangleViolation,
)

from conftest import DRIVERS, family_stream, in_family, recursive_id_tuples

K = tml.DistanceKind

# Time models whose spaces each kind accepts; fd-hh stays at n <= 3 because
# its candidate count grows with the zero sets.
TIME_MODELS = {
    K.BB_GH: ("cone",),
    K.FD_HH: ("cone", "set-cone"),
}
NMAX = {K.FD_HH: 3}


@st.composite
def timed_spaces(draw, kind):
    n = draw(st.integers(1, NMAX.get(kind, 4)))
    seed = draw(st.integers(0, 2**16))
    space = tml.random_metric_space(seed, n, model=draw(st.sampled_from(("euclidean", "graph"))))
    model = draw(st.sampled_from(TIME_MODELS.get(kind, ("cone", "set-cone", "mcshane"))))
    return tml.random_time_function(seed, space, model=model, subset_size=draw(st.integers(1, n)))


def relabel(space, order):
    """The same timed space with its points listed in the given order."""
    base = tml.build_metric_space(
        [space.labels[i] for i in order], space.d[order][:, order]
    )
    return tml.build_timed_space(base, space.tau[order])


def call(kind, a, b, bp):
    """`distance` on the spaces the driver of `kind` takes; only pt-gh reads
    the basepoint pair `bp`."""
    if kind in tml.TIMED_KINDS:
        return tml.distance(kind, a, b, basepoints=bp)
    return tml.distance(kind, a.base, b.base, basepoints=bp)


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_distance_properties(kind, data):
    a = data.draw(timed_spaces(kind))
    b = data.draw(timed_spaces(kind))
    p, q = data.draw(st.integers(0, a.n - 1)), data.draw(st.integers(0, b.n - 1))

    result = call(kind, a, b, (p, q))
    assert result == DRIVERS[kind](a, b, (p, q))
    assert tml.reevaluate(result, a, b) == result.upper

    assert call(kind, b, a, (q, p)).upper == result.upper

    order_a = data.draw(st.permutations(range(a.n)))
    order_b = data.draw(st.permutations(range(b.n)))
    moved = call(
        kind, relabel(a, order_a), relabel(b, order_b), (order_a.index(p), order_b.index(q))
    )
    assert moved.upper == result.upper

    assert call(kind, a, a, (p, p)).upper == 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    stack=st.tuples(st.integers(0, 40), st.integers(1, 7), st.integers(1, 7)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    ),
)
# Three 2 x 3 tables: all ties, a row minimum deciding, a column minimum deciding.
@example(stack=np.array([[[1.0] * 3] * 2, [[1.0, 2.5, 2.5], [0.0, 0.0, 0.0]],
                         [[0.0, 0.0, 2.5], [0.0, 0.5, 1.0]]]))
def test_stack_maxmin_equals_each_table_alone(stack):
    # A stack is reduced with its tables innermost; min and max are exact,
    # so each value is its table's own, on copies and strided views alike.
    maxmin = tml.spaces._maxmin
    for view in (stack, stack[:, ::-1], stack.transpose(0, 2, 1), stack[::-1, :, ::-1]):
        values = maxmin(view)
        alone = np.array([maxmin(t) for t in view], dtype=np.float64)
        assert values.shape == (len(view),)
        assert values.tobytes() == alone.tobytes()
    for t in stack:
        assert type(maxmin(t)) is float


def covering(rng, pairs, rows, cols):
    """`pairs` plus, for each uncovered row and column, one pair to a random
    point of the other side, so the relation projects onto rows x cols."""
    pairs = set(pairs)
    pairs |= {(x, int(rng.choice(cols))) for x in set(rows) - {a for a, b in pairs if b in cols}}
    pairs |= {(int(rng.choice(rows)), y) for y in set(cols) - {b for a, b in pairs if a in rows}}
    return pairs


def ids_of(pairs, n2):
    """The engine's form of a sorted pair tuple: the tuple of its pair ids."""
    return tuple(a * n2 + b for a, b in pairs)


def required_sets(obj):
    """The required sets of an objective's stream, in stream order: the
    minimal correspondences between its zero sets as sorted id tuples, or
    the empty tuple alone when it has none."""
    z1, z2 = obj.zeros
    if not z1:
        return [()]
    return [tuple(z1[i] * obj.n2 + z2[j] for i, j in c.pairs)
            for c in tml.minimal_correspondences(len(z1), len(z2))]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    masks=st.lists(st.integers(0, 2**25 - 1), min_size=1, max_size=10),
    minimal=st.integers(0, 4),
)
# The full 4 x 5 grid: every pair can be dropped; set-cone zero sets of two.
@example(n1=4, n2=5, seed=3, masks=[2**20 - 1], minimal=3)
# One point on a side.  At 1 x 1 every row is one id, and the distortion
# family's value is its pair gather's initial 0.0 alone; at 1 x 5 and 5 x 1
# a row holds every pair.
@example(n1=1, n2=1, seed=2, masks=[0, 1], minimal=4)
@example(n1=1, n2=5, seed=7, masks=[0, 2**5 - 1, 5], minimal=4)
@example(n1=5, n2=1, seed=8, masks=[0, 2**5 - 1, 10], minimal=4)
def test_block_costs_equal_the_plain_functions(n1, n2, seed, masks, minimal):
    # A block of relations of mixed lengths: random grid subsets made to
    # cover (rarely minimal) and the first minimal correspondences.
    x1 = tml.random_metric_space(seed, n1, model="graph" if seed % 2 else "euclidean")
    x2 = tml.random_metric_space(seed + 1, n2)
    a = tml.random_time_function(seed, x1, model="set-cone", subset_size=2)
    b = tml.random_time_function(seed + 1, x2, model="cone")
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    relations = [{c for k, c in enumerate(cells) if mask >> k & 1} for mask in masks]
    relations += [set(c.pairs) for c in tml.minimal_correspondences(n1, n2, budget=minimal)]
    anchor = (int(rng.integers(n1)), int(rng.integers(n2)))
    # bb-gh needs two big-bang spaces: the cone over a zero point of `a`.
    bb = tml.make_future_developed(x1, [int(np.flatnonzero(a.tau == 0.0)[0])])
    engine = tml.engine
    pointed = lambda c, o: engine.pointed_glued_objective(c, x1, o.anchor[0], x2, o.anchor[1])
    cases = {
        K.GH: (x1, x2, lambda c, o: engine.distortion(c, x1, x2) / 2.0),
        K.KAPPA_GH: (x1, x2, lambda c, o: engine.correspondence_hausdorff(c, x1, x2)),
        K.TAU_H: (a, b, lambda c, o: engine.timed_correspondence_hausdorff(c, a, b)),
        K.PT_GH: (x1, x2, pointed),
        K.BB_GH: (bb, b, pointed),
        K.FD_HH: (a, b, lambda c, o: engine.fd_glued_objective(c, a, b, *o.zeros)),
    }
    for kind, (x, y, cost) in cases.items():
        obj = engine._objective(kind, x, y, basepoints=anchor)
        block = []
        for pairs in relations:
            pairs = covering(rng, pairs, range(n1), range(n2))
            if obj.anchor is not None:
                pairs.add(obj.anchor)
            pairs = covering(rng, pairs, *obj.zeros)
            block.append(tuple(sorted(pairs)))
        values = obj.costs(engine._padded([ids_of(pairs, n2) for pairs in block]))
        assert values.shape == (len(block),)
        for pairs, value in zip(block, values):
            assert value == cost(tml.make_correspondence(n1, n2, pairs), obj)
        # The move cost of every local-search neighbour, drops included, is
        # the plain cost of the relation with the slot's id swapped for new.
        in_z1, in_z2 = np.zeros(n1, dtype=bool), np.zeros(n2, dtype=bool)
        in_z1[obj.zeros[0]] = in_z2[obj.zeros[1]] = True
        for pairs in block:
            cur = np.array(ids_of(pairs, n2), dtype=np.intp)
            slot, new = engine._neighbours(cur, n1, n2, in_z1, in_z2)
            moved = obj.move_costs(cur, slot, new)
            assert moved.shape == slot.shape
            for s, p, value in zip(slot.tolist(), new.tolist(), moved):
                ids = set(cur.tolist()) - {int(cur[s])} | {p}
                corr = tml.make_correspondence(n1, n2, [divmod(i, n2) for i in ids])
                assert value == cost(corr, obj), (kind, pairs, s, p)


def plain_cost(kind, a, b, anchor, zeros):
    """The plain per-correspondence function of `kind` on two timed spaces."""
    engine = tml.engine
    x1, x2 = a.base, b.base
    return {
        K.GH: lambda c: engine.distortion(c, x1, x2) / 2.0,
        K.KAPPA_GH: lambda c: engine.correspondence_hausdorff(c, x1, x2),
        K.TAU_H: lambda c: engine.timed_correspondence_hausdorff(c, a, b),
        K.PT_GH: lambda c: engine.pointed_glued_objective(c, x1, anchor[0], x2, anchor[1]),
        K.BB_GH: lambda c: engine.pointed_glued_objective(c, x1, anchor[0], x2, anchor[1]),
        K.FD_HH: lambda c: engine.fd_glued_objective(c, a, b, *zeros),
    }[kind]


# Oracle runs by kind, spaces and anchor.  At 5 x 5 with three-point zero
# sets the fd-hh oracle scores 44,175 joins and takes seconds; two tests
# ask for the same one.
_plain_scans = {}


def plain_scan(kind, a, b, anchor):
    """`_plain_scan`, run once for each kind, pair of spaces and anchor."""
    key = (kind, anchor if kind in (K.PT_GH, K.BB_GH) else None,
           *(t.d.tobytes() + t.tau.tobytes() for t in (a, b)))
    if key not in _plain_scans:
        _plain_scans[key] = _plain_scan(kind, a, b, anchor)
    return _plain_scans[key]


def _plain_scan(kind, a, b, anchor):
    """The kind's candidate stream (`family_stream`) scored one candidate at
    a time: the least cost, the first candidate attaining it as a sorted
    pair tuple and the stream's length, as a complete scan must return them,
    and the zero sets.  The least cost is checked against the least over
    every minimal correspondence joined with every minimal correspondence
    between the zero sets (with the anchor pair for pt-gh and bb-gh)."""
    zeros = [[i for i in range(t.n) if t.tau[i] <= tml.DEFAULT_TOL] for t in (a, b)]
    cost = plain_cost(kind, a, b, anchor, zeros)
    covered = ([], [])
    if kind is K.FD_HH:
        covered = zeros
    elif kind in (K.PT_GH, K.BB_GH):
        covered = ([anchor[0]], [anchor[1]])
    stream = family_stream(a.n, b.n, *covered)
    best, best_pairs = np.inf, None
    for extra, rest in stream:
        pairs = tuple(sorted(extra + rest))
        value = cost(tml.make_correspondence(a.n, b.n, pairs))
        if value < best:
            best, best_pairs = value, pairs
    joined = min(
        cost(tml.make_correspondence(a.n, b.n, set(corr.pairs) | set(extra)))
        for extra in {extra for extra, _ in stream}
        for corr in tml.minimal_correspondences(a.n, b.n)
    )
    assert joined == best
    return best, best_pairs, len(stream), zeros


# Shapes whose stream spans two or more blocks of the cut scan.
MULTI_BLOCK = ((4, 5), (5, 4), (5, 5))


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
# Tied least costs on graph metrics: 2 to 216 tied candidates for each of
# pt-gh, bb-gh and fd-hh, so keeping a later tie moves their certificates.
@example(shape=(4, 5), seed=11, graphs=True, zeros=(2, 1))
@example(shape=(5, 4), seed=86, graphs=True, zeros=(2, 2))
# fd-hh candidates out of lexicographic order: the first of its 12 tied
# optima in the stream is not the smallest tuple.
@example(shape=(4, 4), seed=4, graphs=True, zeros=(2, 2))
# Streams of one block, down to the single candidate of 1 x 1.
@example(shape=(1, 1), seed=5, graphs=True, zeros=(1, 1))
@example(shape=(1, 4), seed=7, graphs=True, zeros=(1, 2))
@example(shape=(3, 3), seed=11, graphs=True, zeros=(2, 1))
@example(shape=(4, 4), seed=86, graphs=True, zeros=(2, 2))
@example(shape=(4, 4), seed=3, graphs=False, zeros=(1, 2))
# Three-point zero sets: fifteen walks for fd-hh, 12 of whose 150
# candidates tie at the least cost.
@example(shape=(4, 4), seed=26, graphs=True, zeros=(3, 3))
# Fifteen required sets and 1,965 candidates for fd-hh, walked: 12 of the
# sets are skipped at their own ids, with every candidate holding them.
@example(shape=(5, 5), seed=5, graphs=True, zeros=(3, 3))
@given(
    shape=st.sampled_from(MULTI_BLOCK),
    seed=st.integers(0, 2**16),
    graphs=st.booleans(),
    zeros=st.tuples(st.integers(1, 2), st.integers(1, 2)),
)
def test_complete_scan_equals_the_plain_loop(kind, shape, seed, graphs, zeros):
    # Graph metrics have integer distances, so least costs tie often.
    n1, n2 = shape
    x1 = tml.random_metric_space(seed, n1, model="graph" if graphs else "euclidean")
    x2 = tml.random_metric_space(seed + 1, n2, model="graph")
    model = "set-cone" if kind is K.FD_HH else "cone"
    a = tml.random_time_function(seed, x1, model=model, subset_size=zeros[0])
    b = tml.random_time_function(seed + 1, x2, model=model, subset_size=zeros[1])
    if kind is K.BB_GH:
        anchor = (int(np.flatnonzero(a.tau == 0.0)[0]), int(np.flatnonzero(b.tau == 0.0)[0]))
    else:
        anchor = (seed % n1, seed // n1 % n2)
    best, best_pairs, explored, zero_sets = plain_scan(kind, a, b, anchor)

    got = call(kind, a, b, anchor)
    assert got.upper == best
    assert got.certificate.pairs == best_pairs
    assert got.explored == explored and not got.budget_exhausted
    if kind in (K.GH, K.KAPPA_GH, K.TAU_H):
        assert got.lower == best and got.is_exact
    else:
        floor = tml.simple_lower_bounds(kind, a, b)
        assert got.lower == min(max(floor, best / 2.0), best)
        assert got.is_exact == (got.lower == best)
    assert got.anchor == (anchor if kind in (K.PT_GH, K.BB_GH) else None)
    if kind is K.FD_HH:
        z1, z2 = map(set, zero_sets)
        assert got.zero_pairs == tuple((p, q) for p, q in best_pairs if p in z1 and q in z2)
    else:
        assert got.zero_pairs is None


def test_complete_scan_scores_one_block_at_once_and_walks_longer_streams(monkeypatch):
    # 184 minimal correspondences at 4 x 4 for gh; for fd-hh, each of the
    # two minimal correspondences between its two-point zero sets followed
    # by each of the 42 minimal covers of the other four points.  Each
    # stream fits one block, so its scan scores the whole stream in one
    # costs call and walks no leaf.  The 680 minimal correspondences at
    # 4 x 5 do not: that scan walks, refuses most of them before they reach
    # a leaf and never calls costs.
    engine = tml.engine
    engine._stream_table.cache_clear()
    x1 = tml.random_metric_space(7, 4)
    x2 = tml.random_metric_space(8, 4, model="graph")
    a = tml.random_time_function(7, x1, model="set-cone", subset_size=2)
    b = tml.random_time_function(8, x2, model="set-cone", subset_size=2)
    c = tml.random_time_function(9, tml.random_metric_space(9, 5, model="graph"))
    walk = engine._minimal_id_tuples
    cases = ((K.GH, a, b, (1, 184)), (K.FD_HH, a, b, (2, 2 * 42)), (K.GH, a, c, (1, 680)))
    for kind, x, y, sizes in cases:
        obj = engine._objective(kind, x, y)
        z1, z2 = obj.zeros
        sets = len(required_sets(obj))
        total = sets * engine._covers(x.n - len(z1), len(z1), y.n - len(z2), len(z2))
        assert (sets, total) == sizes
        calls, leaves = [], []

        def counted(n1, n2, admit=None, covered=((), ()), held=()):
            # Only the walk passes a prune hook; a stream table's build does not.
            for ids in walk(n1, n2, admit, covered, held):
                if admit is not None:
                    leaves.append(ids)
                yield ids

        def costs(block):
            calls.append(len(block))
            return obj.costs(block)

        monkeypatch.setattr(engine, "_minimal_id_tuples", counted)
        value, ids = engine._scan(dataclasses.replace(obj, costs=costs), total, tml.DEFAULT_BUDGET)
        monkeypatch.undo()
        if total <= engine.BLOCK:
            assert (calls, leaves) == ([total], [])
        else:
            assert calls == [] and 0 < len(leaves) < total
        best, best_pairs, explored, _ = plain_scan(kind, x, y, None)
        assert (value, tuple(sorted(ids))) == (best, ids_of(best_pairs, y.n))
        assert explored == total


def test_a_complete_walk_skips_the_required_sets_already_beaten(monkeypatch):
    # fd-hh at 5 x 5 with three-point zero sets on both sides: 15 required
    # sets, each followed by its 131 minimal covers of the rest, so 1,965
    # candidates, walked.  The hook is asked for a set's own ids first, and
    # a set whose ids already bound at or above the best candidate held is
    # skipped: only 3 of the 15 sets start a cover walk.  The value,
    # certificate and count are the plain loop's.
    engine = tml.engine
    x1 = tml.random_metric_space(5, 5, model="graph")
    x2 = tml.random_metric_space(6, 5, model="graph")
    a, b = tml.make_future_developed(x1, [1, 2, 4]), tml.make_future_developed(x2, [0, 2, 4])
    walk, walks = engine._minimal_id_tuples, []

    def counted(n1, n2, admit=None, covered=((), ()), held=()):
        # Only a cover walk passes a prune hook.
        if admit is not None:
            walks.append(tuple(held))
        yield from walk(n1, n2, admit, covered, held)

    monkeypatch.setattr(engine, "_minimal_id_tuples", counted)
    got = tml.fd_hh(a, b)
    monkeypatch.undo()
    sets = required_sets(engine._objective(K.FD_HH, a, b))
    assert len(sets) == 15 and len(walks) == 3
    assert walks == [s for s in sets if s in walks]
    best, best_pairs, explored, _ = plain_scan(K.FD_HH, a, b, None)
    assert (got.upper, got.certificate.pairs, got.explored) == (best, best_pairs, explored)
    assert explored == 1965 and not got.budget_exhausted


def test_stream_tables_are_cached_by_shape_and_zero_sets(monkeypatch):
    # One 4 x 4 shape, five streams in one process: pt-gh at two anchors,
    # bb-gh at a third, fd-hh with two pairs of zero sets.  A table cached
    # by shape alone would score one of them on another's stream.  Then cut
    # scans of one 8 x 8 pair: every cut of at most BLOCK reads one cached
    # head and, once it is cached, generates no candidate; a cut at
    # BLOCK + 1 scores the head and one generated row.
    engine = tml.engine
    engine._stream_table.cache_clear()
    x1 = tml.random_metric_space(21, 4, model="graph")
    x2 = tml.random_metric_space(22, 4, model="graph")
    bb1, bb2 = tml.make_future_developed(x1, [1]), tml.make_future_developed(x2, [2])
    fd = [(tml.make_future_developed(x1, z1), tml.make_future_developed(x2, z2))
          for z1, z2 in (([0, 1], [2, 3]), ([1, 3], [0]))]
    cases = [(K.PT_GH, bb1, bb2, (0, 3)), (K.PT_GH, bb1, bb2, (2, 1)), (K.BB_GH, bb1, bb2, (1, 2)),
             (K.FD_HH, *fd[0], None), (K.FD_HH, *fd[1], None)]
    for kind, a, b, anchor in cases:
        got = call(kind, a, b, anchor)
        best, best_pairs, explored, _ = plain_scan(kind, a, b, anchor)
        assert explored <= engine.BLOCK
        assert (got.upper, got.certificate.pairs, got.explored) == (best, best_pairs, explored)
    assert engine._stream_table.cache_info().currsize == len(cases)

    B = engine.BLOCK
    x1 = tml.random_metric_space(23, 8, model="graph")
    x2 = tml.random_metric_space(24, 8, model="graph")
    obj = engine._objective(K.GH, x1, x2)
    total = engine.correspondence_count(8, 8)
    stream = [c.pairs for c in tml.minimal_correspondences(8, 8, B + 1)]
    values = [engine.distortion(tml.make_correspondence(8, 8, p), x1, x2) / 2.0 for p in stream]
    walk, made, calls = engine._minimal_id_tuples, [], []

    def counted(*args, **kwargs):
        made.append(args)
        return walk(*args, **kwargs)

    def costs(ids):
        calls.append(len(ids))
        return obj.costs(ids)

    def scan(budget):
        calls.clear()
        value, ids = engine._scan(dataclasses.replace(obj, costs=costs), total, budget)
        i = int(np.argmin(values[:budget]))
        assert (value, tuple(sorted(ids))) == (values[i], ids_of(stream[i], 8))
        return list(calls)

    monkeypatch.setattr(engine, "_minimal_id_tuples", counted)
    assert [scan(b) for b in (1, 150, B)] == [[1], [150], [B]]
    assert engine._stream_table.cache_info().currsize == len(cases) + 1
    made.clear()
    assert [scan(b) for b in (1, 150, B)] == [[1], [150], [B]]
    assert made == []
    assert scan(B + 1) == [B, 1]
    monkeypatch.undo()
    table = engine._stream_table(4, 4, ((), ()))
    with pytest.raises(ValueError):
        table[0, 0] = 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    mask=st.integers(0, 2**25 - 1),
)
def test_glued_objectives_equal_the_distortion(n1, n2, seed, mask):
    # The identity the engine scores the glued kinds by.
    x1 = tml.random_metric_space(seed, n1, model="graph" if seed % 2 else "euclidean")
    x2 = tml.random_metric_space(seed + 1, n2)
    a = tml.random_time_function(seed, x1, model="set-cone", subset_size=2)
    b = tml.random_time_function(seed + 1, x2, model="set-cone", subset_size=2)
    zeros = [[i for i in range(t.n) if t.tau[i] == 0.0] for t in (a, b)]
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    pairs = covering(rng, {c for k, c in enumerate(cells) if mask >> k & 1}, range(n1), range(n2))
    anchor = (int(rng.integers(n1)), int(rng.integers(n2)))
    pointed = tml.make_correspondence(n1, n2, pairs | {anchor})
    fd = tml.make_correspondence(n1, n2, covering(rng, pairs, *zeros))
    engine = tml.engine
    assert engine.pointed_glued_objective(pointed, x1, anchor[0], x2, anchor[1]) == (
        engine.distortion(pointed, x1, x2)
    )
    assert engine.fd_glued_objective(fd, a, b, *zeros) == engine.distortion(fd, x1, x2)


def minimized(rng, pairs, covered):
    """A minimal cover of the points outside `covered` (rows, columns) inside
    a relation that covers them: visit its pairs in random order and drop
    each whose both endpoints are covered or shared."""
    pairs = sorted(pairs)
    deg1, deg2 = {}, {}
    for p, q in pairs:
        deg1[p] = deg1.get(p, 0) + 1
        deg2[q] = deg2.get(q, 0) + 1
    for k in rng.permutation(len(pairs)):
        p, q = pairs[k]
        if (p in covered[0] or deg1[p] > 1) and (q in covered[1] or deg2[q] > 1):
            deg1[p] -= 1
            deg2[q] -= 1
            pairs[k] = None
    return tuple(pair for pair in pairs if pair is not None)


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(2, 5),
    n2=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    graphs=st.booleans(),
    masks=st.lists(st.integers(0, 2**25 - 1), min_size=1, max_size=4),
    zeros=st.tuples(st.integers(1, 2), st.integers(1, 2)),
)
# Two-point zero sets on both sides: two zero-set correspondences for fd-hh.
@example(n1=4, n2=5, seed=3, graphs=True, masks=[0, 2**25 - 1, 12345], zeros=(2, 2))
def test_prefix_bounds_never_decrease_and_never_pass_a_cost(
    kind, n1, n2, seed, graphs, masks, zeros
):
    # The contract the complete scan prunes on, pair by pair in stream order.
    x1 = tml.random_metric_space(seed, n1, model="graph" if graphs else "euclidean")
    x2 = tml.random_metric_space(seed + 1, n2, model="graph")
    model = "set-cone" if kind is K.FD_HH else "cone"
    a = tml.random_time_function(seed, x1, model=model, subset_size=zeros[0])
    b = tml.random_time_function(seed + 1, x2, model=model, subset_size=zeros[1])
    x, y = (a, b) if kind in tml.TIMED_KINDS else (x1, x2)
    engine = tml.engine
    obj = engine._objective(kind, x, y, basepoints=(seed % n1, seed // n1 % n2))
    rng = np.random.default_rng(seed)
    order = np.random.default_rng(seed + 1)  # its own draws leave rng's pairs alone
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    z1, z2 = obj.zeros
    for mask in masks:
        # A minimal cover of the points outside the zero sets, with no pair
        # inside them.
        grid = {(i, j) for k, (i, j) in enumerate(cells) if mask >> k & 1 and not (i in z1 and j in z2)}
        grid |= {(i, int(rng.integers(n2))) for i in range(n1) if i not in z1}
        grid |= {(int(rng.integers(n1)), j) for j in range(n2) if j not in z2}
        pairs = minimized(rng, grid, (z1, z2))
        ids = ids_of(pairs, n2)
        # A complete scan holds each required set before the walk's path,
        # and scores a leaf by the bound of its last pair.  The bound of
        # every prefix is its own batched cost.
        for extra in required_sets(obj):
            cand = extra + ids
            held = {divmod(i, n2) for i in cand}
            assert in_family(held, n1, n2, z1, z2)
            assert not any(in_family(held - {p}, n1, n2, z1, z2) for p in held)
            extend = obj.prefix()
            bounds = [extend(p, cand[:k]) for k, p in enumerate(cand)]
            assert bounds == sorted(bounds)
            prefixes = engine._padded([cand[:k + 1] for k in range(len(cand))])
            assert bounds == obj.costs(prefixes).tolist()
            # Asked again at any depth, in any order, a pair gets its bound:
            # each ask rewrites only the depth below it, with what it held.
            for k in order.permutation(len(cand)).tolist():
                assert extend(cand[k], cand[:k]) == bounds[k]


@pytest.mark.parametrize("kind", [K.KAPPA_GH, K.TAU_H], ids=lambda k: k.value)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    graphs=st.booleans(),
    refuse=st.sampled_from((0.0, 0.2, 0.5)),
)
def test_rho_prefix_bounds_equal_the_one_pair_fold(kind, n1, n2, seed, graphs, refuse):
    # The rho prefix bounds a node's children in batches; in the walk's own
    # order, with children refused at random and random siblings asked for
    # out of order before a child is asked again, every bound is the
    # one-pair fold's: the prefix's rho table joined with the new pair's gap
    # table, then its Hausdorff value.  A leaf's is the plain cost of its
    # correspondence.
    x1 = tml.random_metric_space(seed, n1, model="graph" if graphs else "euclidean")
    x2 = tml.random_metric_space(seed + 1, n2, model="graph")
    a = tml.random_time_function(seed, x1, model="mcshane")
    b = tml.random_time_function(seed + 1, x2, model="cone")
    x, y = (a, b) if kind is K.TAU_H else (x1, x2)
    engine = tml.engine
    obj = engine._objective(kind, x, y)
    C = np.abs(x1.d[:, None, :, None] - x2.d[None, :, None, :]).reshape(n1 * n2, n1, n2)
    rho = np.abs(a.tau[:, None] - b.tau[None, :]) if kind is K.TAU_H else np.zeros((n1, n2))
    extend = obj.prefix()
    rng = np.random.default_rng(seed)
    asked = []

    def fold(p, ids):
        bound = extend(p, ids)
        asked.append((p, bound))
        assert bound == engine._maxmin(np.maximum.reduce([rho, *C[list(ids) + [p]]])), asked
        return bound

    def admit(p, ids):
        ids = tuple(ids)
        bound = fold(p, ids)
        if rng.random() < refuse:
            fold(int(rng.integers(n1 * n2)), ids)
            if rng.random() < refuse:
                return False
            assert fold(p, ids) == bound
        return True

    def plain(ids):
        corr = engine.Correspondence(n1, n2, tuple(divmod(p, n2) for p in ids), minimal=True)
        if kind is K.TAU_H:
            return engine.timed_correspondence_hausdorff(corr, a, b)
        return engine.correspondence_hausdorff(corr, x1, x2)

    for ids in engine._minimal_id_tuples(n1, n2, admit):
        # A leaf comes right after its last id is admitted.
        assert asked[-1] == (ids[-1], plain(ids))
    assert asked


@st.composite
def enumerator_configs(draw):
    """A shape with n1 * n2 <= 30, covered rows and columns, ids refused
    wherever they are asked for, and (id, next id) pairs refused when the
    next id is asked for right after the first was admitted."""
    # Every such shape has a side of at most 5 points.
    short = draw(st.integers(1, 5))
    n1, n2 = short, draw(st.integers(1, 30 // short))
    if draw(st.booleans()):
        n1, n2 = n2, n1
    covered = (sorted(draw(st.sets(st.integers(0, n1 - 1)))),
               sorted(draw(st.sets(st.integers(0, n2 - 1)))))
    ids = st.integers(0, n1 * n2 - 1)
    refused = draw(st.frozensets(ids, max_size=4))
    after = draw(st.frozensets(st.tuples(ids, ids), max_size=12))
    return n1, n2, covered, refused, after


def enumerator_events(enumerate_, n1, n2, covered, refused, after, held=()):
    """Run an enumerator with a hook that refuses by `refused` and `after`,
    and list what happens: ("ask", ids held, id, admitted) and ("yield",
    ids).  The recursive reference tracks the ids it holds through its own
    admit and retract; the one-loop enumerator, holding `held` first, hands
    its ids to admit."""
    events = []

    def ask(p, ids):
        ids = tuple(ids)
        admitted = p not in refused and not (ids and (ids[-1], p) in after)
        events.append(("ask", ids, p, admitted))
        return admitted

    if enumerate_ is recursive_id_tuples:
        ids = []

        def admit(p):
            if not ask(p, ids):
                return False
            ids.append(p)
            return True

        stream = recursive_id_tuples(n1, n2, admit, ids.pop, covered)
    else:
        stream = enumerate_(n1, n2, ask, covered, held)
    for t in stream:
        # A tuple past the held ids comes right after its last id is admitted.
        if len(t) > len(held):
            assert events[-1] == ("ask", t[:-1], t[-1], True)
        events.append(("yield", t))
    return events


@st.composite
def stream_configs(draw):
    """A shape of at most 4 x 4, zero sets of one to three points on both
    sides or on neither, and refused ids, some of them between the zero
    sets."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    zeros = ([], [])
    if draw(st.booleans()):
        zeros = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
                      for n in (n1, n2))
    inside = [p * n2 + q for p in zeros[0] for q in zeros[1]]
    refused = draw(st.frozensets(st.integers(0, n1 * n2 - 1), max_size=3))
    if inside:
        refused |= draw(st.frozensets(st.sampled_from(inside), max_size=2))
    return n1, n2, zeros, refused


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(config=stream_configs())
# Fifteen required sets; two refused ids between the zero sets and one
# outside them.
@example(config=(4, 4, ([0, 1, 3], [1, 2, 3]), frozenset({6, 13, 9})))
def test_the_stream_asks_for_every_id_and_skips_refused_sets(config):
    # Unhooked, the stream is the family's (conftest), each candidate its
    # required set's ids, then its cover's.  Hooked, it asks for each set's
    # ids in order, each with the ids before it held, and skips the set at
    # its first refused id; otherwise it walks the set's covers with the
    # set held.  Every id of every candidate is asked for and admitted
    # before the candidate comes, so a hook that refuses only ids between
    # the zero sets drops exactly the candidates of the sets holding one.
    n1, n2, zeros, refused = config
    engine = tml.engine
    family = [(ids_of(extra, n2), ids_of(rest, n2))
              for extra, rest in family_stream(n1, n2, *zeros)]
    assert list(engine._stream(n1, n2, zeros)) == [s + r for s, r in family]
    events, expected = [], []

    def ask(p, ids):
        events.append(("ask", tuple(ids), p, p not in refused))
        return p not in refused

    for t in engine._stream(n1, n2, zeros, ask):
        assert {("ask", t[:k], p, True) for k, p in enumerate(t)} <= set(events)
        events.append(("yield", t))
    for s in dict.fromkeys(s for s, _ in family):
        for k, p in enumerate(s):
            expected.append(("ask", s[:k], p, p not in refused))
            if p in refused:
                break
        else:
            expected += enumerator_events(engine._minimal_id_tuples, n1, n2, zeros, refused,
                                          frozenset(), s)
    assert events == expected
    inside = {p for p in refused if p // n2 in zeros[0] and p % n2 in zeros[1]}
    kept = engine._stream(n1, n2, zeros, lambda p, ids: p not in inside)
    assert list(kept) == [s + r for s, r in family if not inside & set(s)]


def dead_ends_dropped(events, n1, n2, stream):
    """The events without the asks of last-row ids that no tuple of the
    stream extends."""
    first_last = (n1 - 1) * n2
    last_rows = {}  # the last-row ids of the stream's tuples, by the ids above
    for t in stream:
        k = sum(p < first_last for p in t)
        last_rows.setdefault(t[:k], []).append(t[k:])
    kept = []
    for event in events:
        if event[0] == "ask":
            _, held, p, _ = event
            k = sum(q < first_last for q in held)
            taken = held[k:] + (p,)
            if p >= first_last and not any(
                    t[:len(taken)] == taken for t in last_rows.get(held[:k], ())):
                continue
        kept.append(event)
    return kept


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(config=enumerator_configs())
@example(config=(2, 2, ([], []), frozenset(), frozenset()))
@example(config=(3, 3, ([1], [0]), frozenset({4}), frozenset({(0, 4)})))
def test_one_loop_enumerator_equals_the_recursive_one(config):
    # The one-loop enumerator yields the recursive one's stream, with and
    # without refusals, and makes its asks in the same order on the same
    # ids, except that it never asks for a last-row id no leaf extends: the
    # recursive one asks for those and backs out.  Every last-row id it
    # admits is at once yielded or followed by the ask of the next.
    n1, n2, covered, refused, after = config
    stream = list(recursive_id_tuples(n1, n2, covered=covered))
    assert list(tml.engine._minimal_id_tuples(n1, n2, covered=covered)) == stream
    old = enumerator_events(recursive_id_tuples, *config)
    new = enumerator_events(tml.engine._minimal_id_tuples, *config)
    assert new == dead_ends_dropped(old, n1, n2, stream)
    for event, following in zip(new, new[1:] + [None]):
        if event[0] == "ask" and event[3] and event[2] >= (n1 - 1) * n2:
            taken = event[1] + (event[2],)
            assert following in (("yield", taken), ("ask", taken, *following[2:])), (config, event)


def test_the_recursive_enumerator_asks_for_dead_ends():
    # On 2 x 2 the recursive enumerator asks for pair (1, 0) after row 0
    # took column 0 alone, though column 1 is still uncovered; the one-loop
    # enumerator asks only for (1, 1) there.
    def asks(enumerate_):
        return [e[1:3] for e in enumerator_events(enumerate_, 2, 2, ([], []), frozenset(), frozenset())
                if e[0] == "ask"]

    assert asks(recursive_id_tuples) == [((), 0), ((0,), 1), ((0,), 2), ((0,), 3),
                                         ((), 1), ((1,), 2)]
    assert asks(tml.engine._minimal_id_tuples) == [((), 0), ((0,), 1), ((0,), 3), ((), 1), ((1,), 2)]


def test_held_ids_lead_every_tuple_and_every_ask():
    # Holding ids h, the enumerator yields h + t for each tuple t of its
    # stream without them, in order, on every shape of at most 30 pairs
    # with covered points; with a refusing hook it makes the same asks,
    # each on ids that start with h.
    rng = np.random.default_rng(3)
    shapes = [(n1, n2) for n1 in range(1, 31) for n2 in range(1, 30 // n1 + 1)]
    for n1, n2 in shapes:
        covered = ([i for i in range(n1) if rng.random() < 0.5],
                   [j for j in range(n2) if rng.random() < 0.5])
        held = tuple(rng.integers(n1 * n2 + 5, size=rng.integers(1, 4)).tolist())
        stream = list(tml.engine._minimal_id_tuples(n1, n2, covered=covered))
        assert list(tml.engine._minimal_id_tuples(n1, n2, covered=covered, held=held)) == [
            held + t for t in stream], (n1, n2, covered, held)
        refused = frozenset(rng.integers(n1 * n2, size=n1 * n2 // 4).tolist())
        config = (n1, n2, covered, refused, frozenset())
        plain = enumerator_events(tml.engine._minimal_id_tuples, *config)
        events = enumerator_events(tml.engine._minimal_id_tuples, *config, held=held)
        assert all(e[1][:len(held)] == held for e in events)
        assert [(e[0], e[1][len(held):], *e[2:]) for e in events] == plain


# ---------------------------------------------------------------------------
# Local search against the set-based descent it replaced.


def covers(pairs, n1, n2, zeros):
    """Full projections onto both point sets and onto both zero sets."""
    if {a for a, _ in pairs} != set(range(n1)) or {b for _, b in pairs} != set(range(n2)):
        return False
    z1, z2 = set(zeros[0]), set(zeros[1])
    inside = [(a, b) for a, b in pairs if a in z1 and b in z2]
    return {a for a, _ in inside} == z1 and {b for _, b in inside} == z2


def least(block, values):
    """The least value of a nonempty block and the smallest tuple attaining
    it: local search's tie rule."""
    low = values.min()
    return low, min(block[i] for i in np.flatnonzero(values == low))


def set_local_search(kind, a, b, seed, iterations, basepoints):
    """The descent with every neighbour built as a set, checked for coverage
    one at a time and sorted into a tuple; each step scores the tuples with
    the objective's batched cost.  It still builds and scores the add moves,
    which the engine leaves out because they never lower a cost, and counts
    them apart: `explored` excludes them."""
    engine = tml.engine
    obj = engine._objective(kind, a, b, basepoints=basepoints)
    n1, n2, zeros = obj.n1, obj.n2, obj.zeros
    pinned = {obj.anchor} if obj.anchor is not None else set()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), n1, n2]))

    def start(pairs):
        pairs |= pinned
        z1, z2 = zeros
        inside = [(p, q) for p, q in pairs if p in z1 and q in z2]
        pairs |= {(p, z2[0]) for p in set(z1) - {p for p, _ in inside}}
        pairs |= {(z1[0], q) for q in set(z2) - {q for _, q in inside}}
        return pairs

    universe = [(i, j) for i in range(n1) for j in range(n2)]

    def neighbors(pairs):
        """(is an add, neighbour) for every move."""
        movable = sorted(pairs - pinned)
        for q in universe:
            if q not in pairs:
                yield True, pairs | {q}
        for p in movable:
            if covers(pairs - {p}, n1, n2, zeros):
                yield False, pairs - {p}
        for p in movable:
            for q in universe:
                if q not in pairs and (q[0] == p[0] or q[1] == p[1]):
                    cand = (pairs - {p}) | {q}
                    if covers(cand, n1, n2, zeros):
                        yield False, cand

    best_value, best_pairs, explored = np.inf, None, 0
    starts = [start({(i, i % n2) for i in range(n1)} | {(j % n1, j) for j in range(n2)})]
    for _ in range(3):
        rows = {(i, int(rng.integers(n2))) for i in range(n1)}
        starts.append(start(rows | {(int(rng.integers(n1)), j) for j in range(n2)}))
    for current in starts:
        key = tuple(sorted(current))
        value = obj.costs(engine._padded([ids_of(key, n2)]))[0]
        explored += 1
        for _ in range(iterations):
            moves = list(neighbors(current))
            if not moves:
                break
            block = [tuple(sorted(cand)) for _, cand in moves]
            explored += len(block) - sum(add for add, _ in moves)
            low, pairs = least(block, obj.costs(engine._padded([ids_of(p, n2) for p in block])))
            if low >= value:
                break
            key, value = pairs, low
            current = set(key)
        if value < best_value or (value == best_value and key < best_pairs):
            best_value, best_pairs = value, key
    return engine._result(obj, best_value, ids_of(best_pairs, n2), explored, complete=False)


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    graphs=st.booleans(),
    zeros=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    iterations=st.sampled_from((0, 1, 2, 200)),
    data=st.data(),
)
# One row or one column, and three-point zero sets on both sides.
@example(n1=1, n2=5, seed=4, graphs=True, zeros=(1, 2), iterations=200, data=None)
@example(n1=6, n2=1, seed=9, graphs=False, zeros=(3, 1), iterations=200, data=None)
@example(n1=5, n2=6, seed=21, graphs=True, zeros=(3, 3), iterations=200, data=None)
def test_local_search_equals_the_set_descent(kind, n1, n2, seed, graphs, zeros, iterations, data):
    # Graph metrics have integer distances, so tied neighbours are common.
    x1 = tml.random_metric_space(seed, n1, model="graph" if graphs else "euclidean")
    x2 = tml.random_metric_space(seed + 1, n2, model="graph")
    model = {K.BB_GH: "cone", K.FD_HH: "set-cone"}.get(kind, "mcshane")
    a = tml.random_time_function(seed, x1, model=model, subset_size=zeros[0])
    b = tml.random_time_function(seed + 1, x2, model=model, subset_size=zeros[1])
    x, y = (a, b) if kind in tml.TIMED_KINDS else (x1, x2)
    if data is None:
        anchor = (seed % n1, seed % n2)
    else:
        anchor = (data.draw(st.integers(0, n1 - 1)), data.draw(st.integers(0, n2 - 1)))
    basepoints = anchor if kind is K.PT_GH else None
    got = tml.local_search_upper(kind, x, y, seed=seed, iterations=iterations, basepoints=basepoints)
    want = set_local_search(kind, x, y, seed, iterations, basepoints)
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# The validators against the plain loops they replaced.


def loop_metric_violations(d, tol):
    """Every metric violation of a table, found one pair and one triple at a
    time: the diagonal, the pairs i < j, then the triples in (i, k, j) order."""
    n = d.shape[0]
    found = []
    for i in range(n):
        if d[i, i] != 0.0:
            found.append(NonzeroDiagonal(i, float(d[i, i])))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] != d[j, i]:
                found.append(Asymmetry(i, j, float(d[i, j] - d[j, i])))
            if d[i, j] < 0.0 or d[j, i] < 0.0:
                found.append(NegativeEntry(i, j, float(min(d[i, j], d[j, i]))))
            elif d[i, j] <= tol:
                found.append(IndistinctPoints(i, j, float(d[i, j])))
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j == i or j == k:
                    continue
                gap = d[i, k] - (d[i, j] + d[j, k])
                if gap > tol:
                    found.append(TriangleViolation(i, j, k, float(gap)))
    return found


def loop_time_violations(space, t, tol):
    """Negative times, then the pairs i < j that break the Lipschitz bound."""
    found = []
    for i in range(space.n):
        if t[i] < 0.0:
            found.append(NegativeTime(i, float(t[i])))
    for i in range(space.n):
        for j in range(i + 1, space.n):
            gap = abs(t[i] - t[j]) - space.d[i, j]
            if gap > tol:
                found.append(LipschitzViolation(i, j, float(gap)))
    return found


# How a drawn edit sets an entry, from the table d, the entry (i, k), a third
# point j and tol.  Quarter-integer tables add exactly, so "bound" puts d[i][k]
# on the triangle bound and "bound+tol" leaves a gap of exactly tol when tol
# is a quarter too.
EDITS = {
    "tol": lambda d, i, j, k, tol: tol,
    "bound": lambda d, i, j, k, tol: d[i, j] + d[j, k],
    "bound+tol": lambda d, i, j, k, tol: d[i, j] + d[j, k] + tol,
    "raised": lambda d, i, j, k, tol: d[i, k] + 1.0,
    "negative": lambda d, i, j, k, tol: -0.25,
    "zero": lambda d, i, j, k, tol: 0.0,
    "minus-zero": lambda d, i, j, k, tol: -0.0,
    "nan": lambda d, i, j, k, tol: np.nan,
    "inf": lambda d, i, j, k, tol: np.inf,
    "-inf": lambda d, i, j, k, tol: -np.inf,
}

# How a drawn edit sets tau[i], from tau, d, a second point j and tol.
TIME_EDITS = {
    "bound": lambda tau, d, i, j, tol: tau[j] + d[i, j],
    "bound+tol": lambda tau, d, i, j, tol: tau[j] + d[i, j] + tol,
    "negative": lambda tau, d, i, j, tol: -0.25,
    "minus-zero": lambda tau, d, i, j, tol: -0.0,
    "nan": lambda tau, d, i, j, tol: np.nan,
    "inf": lambda tau, d, i, j, tol: np.inf,
    "-inf": lambda tau, d, i, j, tol: -np.inf,
}


@st.composite
def broken_tables(draw):
    """A table of L1 distances between points of a quarter-integer grid
    (many triangles are exact ties), edited at a few entries, one side of a
    pair only when `both` is false; the tolerance; and the distance to point
    0 as time function, edited at a few points."""
    n = draw(st.integers(0, 12))
    tol = draw(st.sampled_from((tml.DEFAULT_TOL, 0.0, 0.25)))
    pts = np.array(draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=n, max_size=n)))
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) / 4.0 if n else np.zeros((0, 0))
    tau = d[0].copy() if n else np.zeros(0)
    if n:
        points = st.integers(0, n - 1)
        for i, j, k, edit, both in draw(st.lists(
            st.tuples(points, points, points, st.sampled_from(sorted(EDITS)), st.booleans()), max_size=6
        )):
            d[i, k] = EDITS[edit](d, i, j, k, tol)
            if both:
                d[k, i] = d[i, k]
        for i, j, edit in draw(st.lists(st.tuples(points, points, st.sampled_from(sorted(TIME_EDITS))), max_size=3)):
            tau[i] = TIME_EDITS[edit](tau, d, i, j, tol)
    return d, tol, tau


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in both the loops and numpy
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=broken_tables())
# The fewest points with a triangle; a negative entry against NaN, where the
# loop's min() keeps the side it reads first.
@example(drawn=(np.array([[0.0, 1.0, 2.5], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]]), 0.25, np.zeros(3)))
@example(drawn=(np.array([[0.0, -0.25], [np.nan, 0.0]]), tml.DEFAULT_TOL, np.zeros(2)))
@example(drawn=(np.array([[0.0, np.nan], [-0.25, 0.0]]), tml.DEFAULT_TOL, np.zeros(2)))
def test_validators_equal_the_plain_loops(drawn):
    # repr, because a NaN amount does not equal itself.
    d, tol, tau = drawn
    assert repr(tml.metric_violations(d, tol)) == repr(loop_metric_violations(d, tol))
    space = tml.FiniteMetricSpace(labels=tuple(map(str, range(len(d)))), d=d)
    assert repr(tml.time_violations(space, tau, tol)) == repr(loop_time_violations(space, tau, tol))


def test_triangle_check_across_a_row_block_boundary():
    # One raised edge from the last row of a block into the next block, and
    # one from the first row of that block to the last point.
    n = 40
    step = tml.spaces.TRIANGLE_CELLS // (n * n)
    assert 1 < step < n - 1
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / 4.0
    for i, k in ((step - 1, step), (step, n - 1)):
        d[i, k] = d[k, i] = d[i, k] + 1.0
    found = tml.metric_violations(d)
    assert repr(found) == repr(loop_metric_violations(d, tml.DEFAULT_TOL))
    assert {(v.i, v.k) for v in found} == {(step - 1, step), (step, n - 1)}
    assert all(isinstance(v, TriangleViolation) for v in found)
