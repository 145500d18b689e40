import numpy as np
import pytest

import tml
from tml.errors import (
    CoordinateMismatch,
    EmptyCloud,
    EmptySubset,
    IncompleteEnumeration,
    IndexOutOfRange,
    TooFewCoordinates,
)


def test_enumeration_must_cover(path3):
    with pytest.raises(IncompleteEnumeration):
        tml.frechet_embed(path3, tml.Enumeration(seq=(0, 1)))
    with pytest.raises(IncompleteEnumeration):
        tml.frechet_embed(path3, tml.Enumeration(seq=()))
    with pytest.raises(IndexOutOfRange):
        tml.frechet_embed(path3, tml.Enumeration(seq=(0, 1, 3)))
    # True would stand for point 1.
    with pytest.raises(IndexOutOfRange, match=r"^enumeration index True is not an integer in \[0, 3\)$"):
        tml.frechet_embed(path3, tml.Enumeration(seq=(True, 0, 2)))


def test_profile_coordinates(path3):
    enum = tml.Enumeration(seq=(2, 0, 1))
    cloud = tml.frechet_embed(path3, enum)
    assert cloud.size == 3
    assert cloud.m == 3
    # coordinate k of point x is d(enum[k], x)
    expected = np.array([[2.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 2.0, 1.0]])
    assert np.array_equal(cloud.coords, expected)


def test_repetitions_are_allowed(path3):
    enum = tml.Enumeration(seq=(0, 0, 1, 2, 2))
    cloud = tml.frechet_embed(path3, enum)
    assert cloud.m == 5


def test_embedding_is_isometric(path3):
    cloud = tml.frechet_embed(path3, tml.Enumeration(seq=(0, 1, 2)))
    assert np.array_equal(tml.sup_distances(cloud, cloud), path3.d)


def test_random_embeddings_are_isometric():
    for trial in range(25):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 7))
        space = tml.random_metric_space(trial, n, model="graph" if trial % 2 else "euclidean")
        timed = tml.random_time_function(trial, space, model="mcshane")
        extras = tuple(int(rng.integers(n)) for _ in range(int(rng.integers(0, 4))))
        order = tuple(rng.permutation(n)) + extras
        cloud = tml.timed_frechet_embed(timed, tml.Enumeration(seq=order))
        gap = np.abs(tml.sup_distances(cloud, cloud) - space.d).max()
        assert gap <= 1e-12


def test_timed_embedding_prepends_time(path3):
    timed = tml.build_timed_space(path3, np.array([0.0, 1.0, 2.0]))
    enum = tml.Enumeration(seq=(0, 1, 2))
    cloud = tml.timed_frechet_embed(timed, enum)
    assert cloud.m == 4
    assert np.array_equal(cloud.coords[:, 0], timed.tau)
    stripped = tml.delete_first_coordinate(cloud)
    plain = tml.frechet_embed(path3, enum)
    assert np.array_equal(stripped.coords, plain.coords)


def test_delete_first_coordinate_needs_two():
    cloud = tml.LinftyCloud(coords=np.zeros((2, 1)))
    with pytest.raises(TooFewCoordinates):
        tml.delete_first_coordinate(cloud)


def test_sup_distance_shape_checks(path3):
    c3 = tml.frechet_embed(path3, tml.Enumeration(seq=(0, 1, 2)))
    c4 = tml.frechet_embed(path3, tml.Enumeration(seq=(0, 1, 2, 0)))
    with pytest.raises(CoordinateMismatch):
        tml.sup_distances(c3, c4)


def test_empty_clouds_are_refused():
    empty = tml.LinftyCloud(coords=np.zeros((0, 2)))
    point = tml.LinftyCloud(coords=np.zeros((1, 2)))
    for a, b in ((empty, point), (point, empty), (empty, empty)):
        with pytest.raises(EmptyCloud):
            tml.sup_distances(a, b)
        with pytest.raises(EmptyCloud):
            tml.hausdorff_sup(a, b)


def test_hausdorff_sup_by_hand():
    a = tml.LinftyCloud(coords=np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = tml.LinftyCloud(coords=np.array([[0.0, 3.0]]))
    # both points of a are at sup-distance 3 from the single point of b
    assert tml.hausdorff_sup(a, b) == 3.0


def test_hausdorff_in_subsets(path3):
    assert tml.hausdorff_in(path3, [0], [2]) == 2.0
    assert tml.hausdorff_in(path3, [0, 1], [2]) == 2.0
    assert tml.hausdorff_in(path3, [0, 1, 2], [0, 1, 2]) == 0.0
    assert tml.hausdorff_in(path3, [0], [0, 2]) == 2.0
    with pytest.raises(EmptySubset):
        tml.hausdorff_in(path3, [], [0])
    # True would stand for point 1.
    with pytest.raises(IndexOutOfRange, match=r"^index True is not an integer in \[0, 3\)$"):
        tml.hausdorff_in(path3, [True], [0])
