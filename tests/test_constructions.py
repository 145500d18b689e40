import math

import numpy as np
import pytest

import tml
from tml.errors import DeltaTooSmall, EmptySet, InvalidSpec

from conftest import brute_fd


def test_glue_at_half_distortion_validates(path3):
    x2 = tml.random_metric_space(5, 3, model="graph")
    gh = tml.gh_distance(path3, x2)
    dis = tml.distortion(gh.certificate, path3, x2)
    glued = tml.glue_by_correspondence(path3, x2, gh.certificate, dis / 2.0)
    assert glued.space.n == 6
    assert glued.space.labels[:3] == ("1:a", "1:b", "1:c")
    # factors embed isometrically
    sub1 = glued.space.d[np.ix_(glued.inject1, glued.inject1)]
    sub2 = glued.space.d[np.ix_(glued.inject2, glued.inject2)]
    assert np.array_equal(sub1, path3.d)
    assert np.array_equal(sub2, x2.d)
    # related pairs sit at exactly delta
    for a, b in gh.certificate.pairs:
        assert glued.space.d[glued.inject1[a], glued.inject2[b]] == dis / 2.0
    assert tml.hausdorff_in(glued.space, glued.inject1, glued.inject2) <= dis / 2.0


def test_glue_segment_against_point():
    two = tml.build_metric_space(("u", "v"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    one = tml.build_metric_space(("w",), np.zeros((1, 1)))
    corr = tml.make_correspondence(2, 1, [(0, 0), (1, 0)])
    glued = tml.glue_by_correspondence(two, one, corr, 0.5)
    assert tml.hausdorff_in(glued.space, glued.inject1, glued.inject2) == 0.5
    assert glued.space.d[glued.inject1[0], glued.inject2[0]] == 0.5


def test_glue_rejects_small_delta(path3):
    x2 = tml.random_metric_space(6, 3, model="euclidean")
    gh = tml.gh_distance(path3, x2)
    dis = tml.distortion(gh.certificate, path3, x2)
    assert dis > 0
    with pytest.raises(DeltaTooSmall) as info:
        tml.glue_by_correspondence(path3, x2, gh.certificate, 0.25 * dis)
    assert info.value.violations


def test_degenerate_self_glue(path3):
    ident = tml.make_correspondence(3, 3, [(i, i) for i in range(3)])
    with pytest.raises(DeltaTooSmall):
        tml.glue_by_correspondence(path3, path3, ident, 0.0)
    delta = 10.0 * tml.DEFAULT_TOL
    glued = tml.glue_by_correspondence(path3, path3, ident, delta)
    assert tml.hausdorff_in(glued.space, glued.inject1, glued.inject2) <= delta


def test_enumerations_from_identity(path3):
    ident = tml.make_correspondence(3, 3, [(i, i) for i in range(3)])
    e1, e2 = tml.enumerations_from_correspondence(ident)
    assert e1.seq == e2.seq == (0, 1, 2)
    c1 = tml.frechet_embed(path3, e1)
    c2 = tml.frechet_embed(path3, e2)
    assert tml.hausdorff_sup(c1, c2) == 0.0


def test_certificate_achieves_engine_value(worked_bb_pair):
    t1, t2 = worked_bb_pair
    result = tml.tau_h_distance(t1, t2)
    e1, e2 = tml.enumerations_from_correspondence(result.certificate)
    value = tml.hausdorff_sup(tml.timed_frechet_embed(t1, e1), tml.timed_frechet_embed(t2, e2))
    assert value == result.upper == 1.0


def test_random_certificates_achieve_engine_value():
    for seed in range(20):
        rng = np.random.default_rng(seed + 900)
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x1 = tml.random_metric_space(seed, n1)
        x2 = tml.random_metric_space(seed + 1000, n2, model="graph")
        result = tml.kappa_gh_distance(x1, x2)
        e1, e2 = tml.enumerations_from_correspondence(result.certificate)
        value = tml.hausdorff_sup(tml.frechet_embed(x1, e1), tml.frechet_embed(x2, e2))
        assert abs(value - result.upper) <= 1e-12


def test_random_metric_space_determinism():
    a = tml.random_metric_space(123, 6, model="graph")
    b = tml.random_metric_space(123, 6, model="graph")
    assert a.labels == b.labels
    assert np.array_equal(a.d, b.d)
    c = tml.random_metric_space(124, 6, model="graph")
    assert not np.array_equal(a.d, c.d)


def test_graph_model_triangles_hold_exactly():
    for seed in range(10):
        space = tml.random_metric_space(seed, 7, model="graph")
        d = space.d
        n = space.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, k] <= d[i, j] + d[j, k]


def test_one_point_space():
    space = tml.random_metric_space(0, 1)
    assert space.n == 1
    assert space.diameter == 0.0
    with pytest.raises(ValueError):
        tml.random_metric_space(0, 0)
    with pytest.raises(ValueError):
        tml.random_metric_space(0, 3, model="grid")
    # Counts are integers, as a sequence spec's are: no bool, no float.
    for args, name, value in (((0, True), "n", "True"), ((0, 2.5), "n", "2.5"),
                              ((1.5, 3), "seed", "1.5"), ((-1, 3), "seed", "-1"),
                              ((0, 3, "euclidean", 2.0), "dim", "2.0")):
        least = 0 if name == "seed" else 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got {value}$"):
            tml.random_metric_space(*args)


def test_time_function_models(path3):
    cone = tml.random_time_function(1, path3, model="cone")
    assert tml.classify(cone) is tml.SpaceClass.BIG_BANG

    everything = tml.random_time_function(2, path3, model="set-cone", subset_size=3)
    assert np.array_equal(everything.tau, np.zeros(3))

    for seed in range(30):
        space = tml.random_metric_space(seed, 5)
        timed = tml.random_time_function(seed, space, model="mcshane")
        assert tml.time_violations(space, timed.tau) == []

    same = tml.random_time_function(9, path3, model="mcshane")
    again = tml.random_time_function(9, path3, model="mcshane")
    assert np.array_equal(same.tau, again.tau)
    with pytest.raises(ValueError):
        tml.random_time_function(1, path3, model="linear")
    for name, value in (("subset_size", 1.5), ("subset_size", True), ("anchors", 0), ("seed", -2)):
        least = 0 if name == "seed" else 1
        args = {"seed": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got {value}$"):
            tml.random_time_function(space=path3, model="set-cone", **args)


def test_make_future_developed(path3):
    timed = tml.make_future_developed(path3, [0, 2])
    assert np.array_equal(timed.tau, np.array([0.0, 1.0, 0.0]))
    assert tml.classify(timed) is tml.SpaceClass.FUTURE_DEVELOPED
    single = tml.make_future_developed(path3, [1])
    assert tml.classify(single) is tml.SpaceClass.BIG_BANG
    full = tml.make_future_developed(path3, [0, 1, 2])
    assert np.array_equal(full.tau, np.zeros(3))
    with pytest.raises(EmptySet):
        tml.make_future_developed(path3, [])
    with pytest.raises(ValueError):
        tml.make_future_developed(path3, [5])
    # 0.7 would time the space from point 0, True from point 1.
    for index in (0.7, True, "1"):
        with pytest.raises(ValueError, match=rf"^index {index!r} is not an integer in \[0, 3\)$"):
            tml.make_future_developed(path3, [2, index])


def bb_base(seed=17, n=4):
    space = tml.random_metric_space(seed, n)
    flat = int(space.d.argmax())
    return tml.make_future_developed(space, [flat // n])


def test_sequence_spec_validation():
    base = bb_base()
    with pytest.raises(InvalidSpec):
        tml.build_sequence(tml.SequenceSpec("warp", base, 3, 0.5, 0))
    with pytest.raises(InvalidSpec):
        tml.build_sequence(tml.SequenceSpec("collapse-time", base, 0, 0.5, 0))
    with pytest.raises(InvalidSpec):
        tml.build_sequence(tml.SequenceSpec("collapse-time", base, 3, 1.0, 0))
    with pytest.raises(InvalidSpec):
        tml.build_sequence(tml.SequenceSpec("refine-bb-cone", tml.make_future_developed(bb_base().base, [0, 1]), 3, 0.5, 0))
    for family in tml.SEQUENCE_FAMILIES:
        with pytest.raises(InvalidSpec, match="^length must be an integer"):
            tml.build_sequence(tml.SequenceSpec(family, base, 2.5, 0.5, 0))
        with pytest.raises(InvalidSpec, match="^seed must be an integer"):
            tml.build_sequence(tml.SequenceSpec(family, base, 3, 0.5, -1))
        with pytest.raises(InvalidSpec, match="^length must be an integer"):
            tml.build_sequence(tml.SequenceSpec(family, base, True, 0.5, 0))
        with pytest.raises(InvalidSpec, match="^seed must be an integer"):
            tml.build_sequence(tml.SequenceSpec(family, base, 3, 0.5, False))
        for rate in ("0.5", None, True):
            with pytest.raises(InvalidSpec, match="^rate must be a real number"):
                tml.build_sequence(tml.SequenceSpec(family, base, 2, rate, 0))
        # The base must be timed: a metric space has no times to collapse.
        with pytest.raises(InvalidSpec, match="^base must be a TimedMetricSpace, got FiniteMetricSpace$"):
            tml.build_sequence(tml.SequenceSpec(family, base.base, 2, 0.5, 0))


def loop_triangle_margin(d):
    margin = np.inf
    for i in range(d.shape[0]):
        for k in range(d.shape[0]):
            if i == k:
                continue
            for j in range(d.shape[0]):
                if j == i or j == k:
                    continue
                margin = min(margin, (d[i, j] + d[j, k] - d[i, k]) / d[i, k])
    return float(margin)


@pytest.mark.parametrize("model", ["euclidean", "graph"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12])
def test_triangle_margin_matches_the_loop(model, n):
    for seed in range(4):
        d = tml.random_metric_space(seed, n, model=model).d
        assert tml.constructions._triangle_margin(d) == loop_triangle_margin(d), (seed,)


def test_perturb_family_preserves_class_and_decays():
    base = bb_base()
    spec = tml.SequenceSpec("perturb-geometric", base, 5, 0.5, seed=2)
    elements, limit = tml.build_sequence(spec)
    assert limit is base
    assert len(elements) == 5
    values = []
    for element in elements:
        assert tml.classify(element) is tml.SpaceClass.BIG_BANG
        values.append(tml.tau_h_distance(element, base).upper)
    # the cone point sits on a diameter pair, so decay is pinned exactly
    for j, value in enumerate(values):
        assert value <= values[0] * 0.5**j + 1e-12
    assert values[0] > 0


@pytest.mark.parametrize("n", [1, 2])
def test_perturb_family_on_bases_too_small_for_a_triangle(n):
    # Below 3 points there is no triangle to bound the amplitude, and at 1
    # point the diameter pair is the diagonal.
    for seed in range(4):
        base = bb_base(seed=seed, n=n)
        elements, limit = tml.build_sequence(tml.SequenceSpec("perturb-geometric", base, 4, 0.5, seed))
        assert limit is base
        values = []
        for element in elements:
            assert tml.metric_violations(element.d) == []
            assert tml.time_violations(element.base, element.tau) == []
            assert tml.classify(element) is tml.SpaceClass.BIG_BANG
            values.append(tml.tau_h_distance(element, base).upper)
        for j, value in enumerate(values):
            assert value <= values[0] * 0.5**j + 1e-12, (seed, j)


def test_perturb_family_on_generic_base():
    space = tml.random_metric_space(8, 4)
    base = tml.random_time_function(8, space, model="mcshane")
    spec = tml.SequenceSpec("perturb-geometric", base, 3, 0.5, seed=3)
    elements, limit = tml.build_sequence(spec)
    for element in elements:
        assert tml.time_violations(element.base, element.tau) == []
    # time is untouched when the base has no exact zero structure
    assert all(np.array_equal(e.tau, base.tau) for e in elements)


def test_refine_family_pinned_values():
    base = bb_base(seed=23, n=3)
    spec = tml.SequenceSpec("refine-bb-cone", base, 4, 0.5, seed=0)
    elements, limit = tml.build_sequence(spec)
    assert limit is base
    span = 0.5 * max(base.base.diameter, 1.0)
    previous = math.inf
    for j, element in enumerate(elements, start=1):
        assert element.n == base.n + j
        assert tml.classify(element) is tml.SpaceClass.BIG_BANG
        value = tml.tau_h_distance(element, base).upper
        assert abs(value - span * 0.5**j) <= 1e-12
        assert value <= previous
        previous = value


def test_collapse_family():
    base = bb_base(seed=29)
    spec = tml.SequenceSpec("collapse-time", base, 4, 0.5, seed=0)
    elements, limit = tml.build_sequence(spec)
    assert np.array_equal(limit.tau, np.zeros(base.n))
    assert np.array_equal(limit.d, base.d)
    for j, element in enumerate(elements):
        assert element.tau_max == base.tau_max * 0.5**j
        assert np.array_equal(element.d, base.d)
        value = tml.tau_h_distance(element, limit).upper
        assert value <= base.tau_max * 0.5**j + 1e-12


def test_sequences_are_deterministic():
    base = bb_base(seed=31)
    spec = tml.SequenceSpec("perturb-geometric", base, 3, 0.5, seed=12)
    first, _ = tml.build_sequence(spec)
    second, _ = tml.build_sequence(spec)
    for a, b in zip(first, second):
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.tau, b.tau)
