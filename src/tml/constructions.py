"""Space builders: gluing, seeded random generators, and convergent sequences.

Randomness comes exclusively from numpy's PCG64 generator seeded with the
caller's integers, so every output is a pure function of (seed, parameters)
and reproducible across platforms.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .embeddings import Enumeration
from .engine import Correspondence, glued_cross_distances
from .errors import DeltaTooSmall, EmptySet, InvalidSpec, ValidationError
from .spaces import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    SpaceClass,
    TimedMetricSpace,
    _check_count,
    _check_index,
    _check_type,
    build_metric_space,
    build_timed_space,
    classify,
    structure_report,
)


@dataclass(frozen=True)
class GluedSpace:
    """A common space containing isometric copies of two glued factors."""

    space: FiniteMetricSpace
    inject1: tuple[int, ...]
    inject2: tuple[int, ...]


def glue_by_correspondence(
    x1: FiniteMetricSpace,
    x2: FiniteMetricSpace,
    corr: Correspondence,
    delta: float,
    tol: float = DEFAULT_TOL,
) -> GluedSpace:
    """Join two spaces across a correspondence at offset delta.

    The cross distance is min over related (a, b) of d1(x, a) + delta + d2(b, y),
    which is a metric exactly when delta covers half the distortion (and stays
    above the distinctness tolerance).  The result is fully revalidated; too
    small a delta raises DeltaTooSmall carrying the violated constraints.
    """
    n1, n2 = x1.n, x2.n
    cross = glued_cross_distances(x1, x2, corr, delta)
    table = np.zeros((n1 + n2, n1 + n2))
    table[:n1, :n1] = x1.d
    table[n1:, n1:] = x2.d
    table[:n1, n1:] = cross
    table[n1:, :n1] = cross.T
    labels = tuple(f"1:{s}" for s in x1.labels) + tuple(f"2:{s}" for s in x2.labels)
    try:
        glued = build_metric_space(labels, table, tol)
    except ValidationError as err:
        raise DeltaTooSmall(delta, err.violations) from None
    return GluedSpace(
        space=glued,
        inject1=tuple(range(n1)),
        inject2=tuple(range(n1, n1 + n2)),
    )


def enumerations_from_correspondence(corr: Correspondence) -> tuple[Enumeration, Enumeration]:
    """Paired covering enumerations listing the correspondence in sorted order.

    Embedding both spaces along these enumerations reproduces the engine's
    per-correspondence Hausdorff cost exactly, coordinate for coordinate.
    """
    return (
        Enumeration(seq=tuple(a for a, _ in corr.pairs)),
        Enumeration(seq=tuple(b for _, b in corr.pairs)),
    )


# ---------------------------------------------------------------------------
# Random generators.


def _shortest_path_closure(weights: np.ndarray) -> np.ndarray:
    """Sweep d[i,k] = min(d[i,k], d[i,j] + d[j,k]) until nothing changes.

    Iterating to a fixpoint (rather than one Floyd-Warshall pass) makes every
    triangle inequality hold exactly in floating point.
    """
    d = weights.copy()
    n = d.shape[0]
    while True:
        changed = False
        for j in range(n):
            via = d[:, j][:, None] + d[j, :][None, :]
            better = via < d
            if better.any():
                d[better] = via[better]
                changed = True
        if not changed:
            return d


def random_metric_space(
    seed: int, n: int, model: str = "euclidean", dim: int = 2
) -> FiniteMetricSpace:
    """A seeded random n-point metric space.

    euclidean: uniform points in the unit cube of the given dimension.
    graph: random symmetric positive edge weights repaired into a path metric
    by shortest-path closure.
    """
    for name, value, least in (("seed", seed, 0), ("n", n, 1), ("dim", dim, 1)):
        _check_count(value, name, least)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), n, 0xA11CE]))
    labels = [f"p{i}" for i in range(n)]
    if model == "euclidean":
        pts = rng.random((n, dim))
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
    elif model == "graph":
        w = rng.uniform(0.2, 1.0, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        d = _shortest_path_closure(w)
    else:
        raise ValueError(f"unknown model {model!r}")
    return build_metric_space(labels, d)


def make_future_developed(space: FiniteMetricSpace, subset) -> TimedMetricSpace:
    """Time the space by distance to a nonempty subset; exactly future developed."""
    subset = list(subset)
    if not subset:
        raise EmptySet("subset must be nonempty")
    for i in subset:
        _check_index(i, space.n)
    idx = sorted({int(i) for i in subset})
    tau = space.d[np.array(idx, dtype=int), :].min(axis=0)
    return build_timed_space(space, tau)


def random_time_function(
    seed: int,
    space: FiniteMetricSpace,
    model: str = "cone",
    subset_size: int = 2,
    anchors: int = 3,
) -> TimedMetricSpace:
    """A seeded random time function on the given space.

    cone: distance from one random point (exactly big bang).
    set-cone: distance from a random subset (exactly future developed).
    mcshane: max(0, min over random anchors of value + distance), which is
    1-Lipschitz by construction and generically of no special class.
    `subset_size` and `anchors` must be integers >= 1 whatever the model;
    each is capped at the number of points.  A space that is not a
    FiniteMetricSpace, a timed one included, raises TypeError.
    """
    _check_type(space, FiniteMetricSpace)
    for name, value, least in (("seed", seed, 0), ("subset_size", subset_size, 1), ("anchors", anchors, 1)):
        _check_count(value, name, least)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), space.n, 0x71ED]))
    if model == "cone":
        p = int(rng.integers(space.n))
        return make_future_developed(space, [p])
    if model == "set-cone":
        size = min(int(subset_size), space.n)
        subset = rng.choice(space.n, size=size, replace=False)
        return make_future_developed(space, subset.tolist())
    if model == "mcshane":
        count = min(int(anchors), space.n)
        idx = rng.choice(space.n, size=count, replace=False)
        diam = space.diameter or 1.0
        values = rng.uniform(-0.5 * diam, 0.75 * diam, size=count)
        tau = np.maximum(0.0, (values[:, None] + space.d[idx, :]).min(axis=0))
        return build_timed_space(space, tau)
    raise ValueError(f"unknown time model {model!r}")


# ---------------------------------------------------------------------------
# Convergent sequences.

@dataclass(frozen=True)
class SequenceSpec:
    """Parameters of a deterministic sequence of timed spaces with a known limit."""

    family: str
    base: TimedMetricSpace
    length: int
    rate: float
    seed: int


def _check_spec(spec: SequenceSpec) -> None:
    if not isinstance(spec.base, TimedMetricSpace):
        raise InvalidSpec(f"base must be a TimedMetricSpace, got {type(spec.base).__name__}")
    if spec.family not in SEQUENCE_FAMILIES:
        raise InvalidSpec(f"unknown family {spec.family!r}")
    for name, least in (("length", 1), ("seed", 0)):
        _check_count(getattr(spec, name), name, least, InvalidSpec)
    if isinstance(spec.rate, bool) or not isinstance(spec.rate, numbers.Real):
        raise InvalidSpec(f"rate must be a real number, got {spec.rate!r}")
    if not (0.0 < spec.rate < 1.0):
        raise InvalidSpec("rate must lie strictly between 0 and 1")


def _triangle_margin(d: np.ndarray) -> float:
    """Smallest relative triangle slack: how much any edge may grow before some
    shortest path undercuts it.  Entry [i, j, k] of the table is
    (d[i,j] + d[j,k] - d[i,k]) / d[i,k] over distinct i, j, k."""
    distinct = ~np.eye(d.shape[0], dtype=bool)
    triples = distinct[:, None, :] & distinct[:, :, None] & distinct[None, :, :]
    slack = np.divide(
        d[:, :, None] + d[None, :, :] - d[:, None, :], d[:, None, :],
        out=np.full(triples.shape, np.inf), where=triples,
    )
    return float(slack.min())


def _perturb_family(spec: SequenceSpec):
    base = spec.base
    d0 = base.d
    n = base.n
    report = structure_report(base, delta=0.0)
    exact_zero = tuple(report.zero_set) if report.fd_defect == 0.0 else ()
    amplitude = max(0.0, min(0.25, 0.9 * _triangle_margin(d0)))

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, n, 0x9E27]))
    noise = rng.uniform(0.2, 0.95, size=(n, n))
    noise = np.triu(noise, 1)
    noise = noise + noise.T
    # Pin the strongest perturbation on a diameter pair so the elementwise
    # change has a known maximum, and on the zero-set-to-latest-point edges
    # so the rebuilt cone time moves by exactly that maximum.  A one-point
    # base pins its diagonal, which fill_diagonal clears.
    flat = int(d0.argmax())
    pstar, qstar = divmod(flat, n)
    noise[pstar, qstar] = noise[qstar, pstar] = 1.0
    if exact_zero and base.tau_max > 0.0:
        xhat = int(base.tau.argmax())
        for q in exact_zero:
            if q != xhat:
                noise[q, xhat] = noise[xhat, q] = 1.0
    np.fill_diagonal(noise, 0.0)

    elements = []
    for j in range(spec.length):
        scale = amplitude * spec.rate**j
        dj = _shortest_path_closure(d0 * (1.0 + scale * noise))
        space_j = build_metric_space(base.labels, dj)
        if exact_zero:
            elements.append(make_future_developed(space_j, exact_zero))
        else:
            # Largest function below the base time that is 1-Lipschitz for the
            # perturbed metric; a no-op here since distances only grew.
            elements.append(build_timed_space(space_j, (base.tau[:, None] + dj).min(axis=0)))
    return elements, base


def _refine_family(spec: SequenceSpec):
    base = spec.base
    if classify(base) is not SpaceClass.BIG_BANG:
        raise InvalidSpec("refine-bb-cone needs an exactly big bang base")
    n = base.n
    host = int(base.tau.argmax())
    bang = structure_report(base, delta=0.0).zero_set[0]
    span = 0.5 * max(base.base.diameter, 1.0)
    used = set(base.labels)
    elements = []
    for j in range(1, spec.length + 1):
        step = spec.rate**j * span / j
        total = n + j
        d = np.zeros((total, total))
        d[:n, :n] = base.d
        for k in range(1, j + 1):
            d[:n, n + k - 1] = base.d[:, host] + k * step
            d[n + k - 1, :n] = d[:n, n + k - 1]
            for m in range(1, k):
                d[n + m - 1, n + k - 1] = d[n + k - 1, n + m - 1] = (k - m) * step
        labels = list(base.labels)
        for k in range(1, j + 1):
            name = f"ray{k}"
            while name in used:
                name += "_"
            labels.append(name)
        elements.append(make_future_developed(build_metric_space(labels, d), [bang]))
    return elements, base


def _collapse_family(spec: SequenceSpec):
    base = spec.base
    elements = [
        build_timed_space(base.base, spec.rate**j * base.tau) for j in range(spec.length)
    ]
    limit = build_timed_space(base.base, np.zeros(base.n))
    return elements, limit


# The one list of sequence families, in CLI order.
_FAMILIES = {
    "perturb-geometric": _perturb_family,
    "refine-bb-cone": _refine_family,
    "collapse-time": _collapse_family,
}

SEQUENCE_FAMILIES = tuple(_FAMILIES)


def build_sequence(spec: SequenceSpec) -> tuple[list[TimedMetricSpace], TimedMetricSpace]:
    """Build (elements, limit) for a sequence family, through its builder in
    `_FAMILIES`.

    perturb-geometric: multiplicative noise on the distances with geometrically
    shrinking amplitude, repaired by shortest-path closure; time is rebuilt as
    the cone over the base's exact zero set (or clipped to stay 1-Lipschitz).
    The noise amplitude is capped by the base's triangle margin so the closure
    never reroutes, which keeps every element exactly in the base's class.
    Limit = base.

    refine-bb-cone: row j (j = 1..length) appends a ray of j points beyond the
    latest point of a big bang cone, with total ray length rate^j * span, timed
    from the same bang point.  Elements stay exactly big bang and their
    timed-Hausdorff distance to the base is exactly rate^j * span.  Limit = base.

    collapse-time: distances fixed, time scaled by rate^j.  Limit = the base
    with time identically zero.
    """
    _check_spec(spec)
    return _FAMILIES[spec.family](spec)


__all__ = [
    "GluedSpace",
    "SequenceSpec",
    "SEQUENCE_FAMILIES",
    "build_sequence",
    "enumerations_from_correspondence",
    "glue_by_correspondence",
    "make_future_developed",
    "random_metric_space",
    "random_time_function",
]
