import math

import numpy as np
import pytest

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


def test_build_valid_space(path3):
    assert path3.n == 3
    assert path3.labels == ("a", "b", "c")
    assert path3.diameter == 2.0
    assert path3.index_of("c") == 2
    with pytest.raises(KeyError):
        path3.index_of("z")


def test_distance_table_is_readonly(path3):
    with pytest.raises(ValueError):
        path3.d[0, 1] = 5.0


def test_shape_and_label_errors():
    with pytest.raises(ValueError):
        tml.build_metric_space(("a",), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        tml.build_metric_space(("a", "b"), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        tml.build_metric_space(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        tml.build_metric_space((), np.zeros((0, 0)))
    with pytest.raises(ValueError):
        tml.build_metric_space(("a", "b"), np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_asymmetry_detected():
    d = np.array([[0.0, 1.0], [1.5, 0.0]])
    with pytest.raises(tml.ValidationError) as info:
        tml.build_metric_space(("a", "b"), d)
    kinds = [type(v) for v in info.value.violations]
    assert Asymmetry in kinds
    bad = next(v for v in info.value.violations if isinstance(v, Asymmetry))
    assert (bad.i, bad.j) == (0, 1)


def test_diagonal_negative_and_indistinct_detected():
    d = np.array(
        [
            [0.5, -1.0, 1.0],
            [-1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]
    )
    found = tml.metric_violations(d)
    kinds = {type(v) for v in found}
    assert NonzeroDiagonal in kinds
    assert NegativeEntry in kinds
    assert IndistinctPoints in kinds


def test_triangle_violation_names_the_triple(path3):
    d = path3.d.copy()
    d[0, 2] = d[2, 0] = 5.0
    with pytest.raises(tml.ValidationError) as info:
        tml.build_metric_space(("a", "b", "c"), d)
    bad = [v for v in info.value.violations if isinstance(v, TriangleViolation)]
    assert bad
    assert all((v.i, v.k) == (0, 2) for v in bad)
    assert any(v.j == 1 for v in bad)
    assert all(v.amount > 0 for v in bad)


def test_triangle_slack_within_tolerance_is_accepted(path3):
    d = path3.d.copy()
    d[0, 2] = d[2, 0] = 2.0 + 5e-10
    space = tml.build_metric_space(("a", "b", "c"), d)
    assert space.diameter == d[0, 2]


def test_all_violations_reported_together():
    d = np.array([[0.1, -1.0], [2.0, 0.0]])
    with pytest.raises(tml.ValidationError) as info:
        tml.build_metric_space(("a", "b"), d)
    kinds = {type(v) for v in info.value.violations}
    assert {NonzeroDiagonal, Asymmetry, NegativeEntry} <= kinds
    assert "constraint(s) violated" in str(info.value)


def test_time_violations(path3):
    assert tml.time_violations(path3, np.array([0.0, 1.0, 2.0])) == []
    found = tml.time_violations(path3, np.array([-0.5, 0.0, 3.5]))
    kinds = {type(v) for v in found}
    assert NegativeTime in kinds
    assert LipschitzViolation in kinds
    with pytest.raises(tml.ValidationError):
        tml.build_timed_space(path3, np.array([0.0, 0.0, 5.0]))
    with pytest.raises(ValueError):
        tml.build_timed_space(path3, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        tml.build_timed_space(path3, np.array([0.0, 1.0, math.nan]))


def test_a_timed_space_gets_no_time_function(path3):
    # A timed space is not a metric space to time again: built on one, the
    # result's base would lack the metric attributes every distance reads.
    timed = tml.build_timed_space(path3, path3.d[0])
    message = "^space must be a FiniteMetricSpace, got TimedMetricSpace$"
    for call in (
        lambda: tml.build_timed_space(timed, path3.d[0]),
        lambda: tml.random_time_function(3, timed),
        lambda: tml.random_time_function(3, timed, model="set-cone"),
        lambda: tml.random_time_function(3, timed, model="mcshane"),
        lambda: tml.make_future_developed(timed, [0]),
    ):
        with pytest.raises(TypeError, match=message):
            call()
    for call in (
        lambda: tml.build_timed_space(path3.d, path3.d[0]),
        lambda: tml.random_time_function(3, path3.d, model="mcshane"),
    ):
        with pytest.raises(TypeError, match="^space must be a FiniteMetricSpace, got ndarray$"):
            call()


def test_an_untimed_space_has_no_time_structure(path3):
    enum = tml.Enumeration((0, 1, 2))
    message = "^timed must be a TimedMetricSpace, got FiniteMetricSpace$"
    for call in (
        lambda: tml.classify(path3),
        lambda: tml.structure_report(path3),
        lambda: tml.structure_report(path3, delta=0.5),
        lambda: tml.timed_frechet_embed(path3, enum),
    ):
        with pytest.raises(TypeError, match=message):
            call()


def test_classify_cone_is_big_bang(path3):
    timed = tml.build_timed_space(path3, path3.d[0])
    assert tml.classify(timed) is tml.SpaceClass.BIG_BANG
    report = tml.structure_report(timed)
    assert report.zero_set == (0,)
    assert report.bb_defect == 0.0
    assert report.fd_defect == 0.0


def test_classify_set_cone_is_future_developed(path3):
    timed = tml.build_timed_space(path3, np.array([0.0, 1.0, 0.0]))
    assert tml.classify(timed) is tml.SpaceClass.FUTURE_DEVELOPED
    report = tml.structure_report(timed)
    assert report.zero_set == (0, 2)
    assert report.zero_diam == 2.0
    assert report.fd_defect == 0.0
    assert report.bb_defect == 2.0


def test_constant_positive_time_is_generic(path3):
    timed = tml.build_timed_space(path3, np.ones(3))
    assert tml.classify(timed) is tml.SpaceClass.GENERIC
    report = tml.structure_report(timed, delta=0.0)
    assert report.zero_set == ()
    assert report.fd_defect == math.inf
    assert report.bb_defect == math.inf
    assert report.min_tau == 1.0


def test_zero_set_threshold(path3):
    timed = tml.build_timed_space(path3, np.array([0.0, 0.25, 1.0]))
    assert tml.structure_report(timed, delta=0.0).zero_set == (0,)
    assert tml.structure_report(timed, delta=0.3).zero_set == (0, 1)


def test_one_point_space_is_big_bang():
    one = tml.build_metric_space(("p",), np.zeros((1, 1)))
    timed = tml.build_timed_space(one, np.zeros(1))
    assert tml.classify(timed) is tml.SpaceClass.BIG_BANG


def test_big_bang_reported_over_future_developed(path3):
    # A cone satisfies both definitions; the stronger class wins.
    timed = tml.build_timed_space(path3, path3.d[1])
    assert tml.classify(timed) is tml.SpaceClass.BIG_BANG


def test_structure_report_permutation_equivariance(path3):
    tau = np.array([0.0, 1.0, 0.0])
    timed = tml.build_timed_space(path3, tau)
    perm = [2, 0, 1]
    permuted = tml.build_metric_space(
        tuple(path3.labels[i] for i in perm), path3.d[np.ix_(perm, perm)]
    )
    timed_p = tml.build_timed_space(permuted, tau[perm])
    r0 = tml.structure_report(timed)
    r1 = tml.structure_report(timed_p)
    assert sorted(perm.index(i) for i in r0.zero_set) == sorted(r1.zero_set)
    assert r0.zero_diam == r1.zero_diam
    assert r0.fd_defect == r1.fd_defect
    assert r0.bb_defect == r1.bb_defect


def test_near_big_bang_classified_at_loose_tolerance(path3):
    tau = path3.d[0] + np.array([0.0, 1e-12, -1e-12])
    timed = tml.build_timed_space(path3, np.maximum(tau, 0.0))
    assert tml.classify(timed, tol=1e-9) is tml.SpaceClass.BIG_BANG
    assert tml.classify(timed, tol=1e-15) is tml.SpaceClass.GENERIC
