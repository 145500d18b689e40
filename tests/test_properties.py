"""Property tests of the six distance kinds on small seeded spaces.

For every kind: the generic entry ``distance`` equals the kind's driver,
swapping the arguments and relabelling the points leave ``upper`` unchanged
bit for bit, a space is at distance zero from itself, and the certificate
re-evaluates to ``upper``.
"""

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
