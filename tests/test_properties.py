"""Property tests of the six distance kinds on small seeded spaces.

For every kind: the generic entry ``distance`` equals the kind's driver,
swapping the arguments and relabelling the points leave ``upper`` unchanged
bit for bit, a space is at distance zero from itself, and the certificate
re-evaluates to ``upper``.  The engine's batched cost of a block of relations
equals the plain per-correspondence function of each relation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tml

from conftest import DRIVERS

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


def covering(rng, pairs, rows, cols):
    """`pairs` plus, for each uncovered row and column, one pair to a random
    point of the other side, so the relation projects onto rows x cols."""
    pairs = set(pairs)
    pairs |= {(x, int(rng.choice(cols))) for x in set(rows) - {a for a, b in pairs if b in cols}}
    pairs |= {(int(rng.choice(rows)), y) for y in set(cols) - {b for a, b in pairs if a in rows}}
    return pairs


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    masks=st.lists(st.integers(0, 2**25 - 1), min_size=1, max_size=10),
    minimal=st.integers(0, 4),
)
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
            if obj.zeros is not None:
                pairs = covering(rng, pairs, *obj.zeros)
            block.append(tuple(sorted(pairs)))
        values = obj.costs(block)
        assert values.shape == (len(block),)
        for pairs, value in zip(block, values):
            assert value == cost(tml.make_correspondence(n1, n2, pairs), obj)
