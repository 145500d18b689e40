"""Certified distance solvers over correspondences between two finite spaces.

A correspondence is a relation between the point sets with full projections
onto both sides.  Every distance kind here is a minimum of a per-correspondence
cost:

* gh: half the distortion, max over related pairs of |d1 - d2|.
* kappa-gh: the Hausdorff distance in sup-metric space between the two
  distance-profile embeddings read off the correspondence.  The per-point cost
  rho(x, y) = max over related (a, b) of |d1(a, x) - d2(b, y)| is exactly the
  sup distance between the image of x and the image of y.
* tau-h: same, with the time coordinate |tau1(x) - tau2(y)| joined into rho.
* pt-gh / bb-gh / fd-hh: Hausdorff-plus-anchor objectives evaluated in the
  space obtained by gluing the two spaces along the correspondence at offset
  half its distortion.

Shrinking a correspondence never increases distortion or the Hausdorff-style
costs, so the exact minima are attained on minimal correspondences (those
where every related pair has an endpoint of degree one).
``minimal_correspondences`` streams them exactly once each, in lexicographic
order of their sorted pair tuples.

Each glued objective equals the distortion dis(R) of its correspondence R,
bit for bit (halving and doubling are exact).  With delta = dis(R) / 2, every
cross entry d1(x, a) + delta + d2(b, y) is at least delta, and the entry of a
related pair is 0 + delta + 0.  R covers both point sets and both zero sets
and holds the anchor, so the Hausdorff, anchor and zero-set terms each equal
delta.  The engine scores pt-gh, bb-gh and fd-hh by the distortion of the
correspondences that hold the anchor or cover the zero sets.  A complete
scan certifies the 2-approximation [upper / 2, upper], tightened from below
by simple bounds; a scan cut short by its budget, only the simple bounds.

Each kind is one objective record (``_objective``): its inputs checked, the
table of its cost family, its batched cost and prefix bound, and the pair sets
every candidate must contain.  ``distance`` is the one entry behind the six
drivers: one scan and one result assembler serve every kind and
``local_search_upper``.  The plain per-correspondence functions stay as the
independent check of certificates.

Candidates are scored in blocks, one numpy call chain per block, and local
search scores each step's whole neighbour list at once.  A block is a table
of pair ids, one row per candidate; rows shorter than the longest repeat
their first pair.  Every cost is a max over the row's pairs (distortion or
the profile-gap table rho), and a repeated pair changes no max, so padding
needs no sentinel and no mask.  Distortion is a running max over row
positions, so no block x k x k table is built.  Within a block the least
value goes to the lexicographically smallest tuple that attains it, as in a
one-at-a-time scan.

There is one scan, ``_scan``.  The stream length is counted without
enumerating (``stream_length``); the scan is complete exactly when it fits
the budget, and ``explored`` is the smaller of the two.  Completeness alone
picks the walk.  A cut scan scores the stream's first ``budget`` candidates
in blocks of ``BLOCK``.  A complete scan is pruned: each block holds one
minimal correspondence's merged candidates, and the enumerator refuses a
prefix whose bound, at most the cost of every candidate below it, cannot
beat the best candidate held.  The bound never decreases as pairs are
added: the distortion of the prefix joined with the pairs every required set
contains, times the kind's scale, or the Hausdorff value of the prefix's rho
table.  Unmerged candidates come in stream order, so an equal bound prunes
them; merged candidates do not, so an equal bound prunes only a subtree
whose every candidate sorts after the best tuple.  Pruning changes no value,
certificate or ``explored`` count.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .errors import (
    BudgetTooSmall,
    InvalidBasepoint,
    NotBigBang,
    NotFutureDeveloped,
)
from .spaces import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    SpaceClass,
    TimedMetricSpace,
    _maxmin,
    classify,
    structure_report,
)

DEFAULT_BUDGET = 5_000_000
# Candidates a cut scan scores per numpy call.  A few hundred amortise the
# per-call cost; larger blocks only add memory.
BLOCK = 512


class DistanceKind(Enum):
    GH = "gh"
    KAPPA_GH = "kappa-gh"
    TAU_H = "tau-h"
    PT_GH = "pt-gh"
    BB_GH = "bb-gh"
    FD_HH = "fd-hh"


TIMED_KINDS = (DistanceKind.TAU_H, DistanceKind.BB_GH, DistanceKind.FD_HH)


@dataclass(frozen=True)
class Correspondence:
    """A relation with full projections, stored as a sorted tuple of index pairs."""

    n1: int
    n2: int
    pairs: tuple[tuple[int, int], ...]
    minimal: bool


def pairs_are_minimal(pairs) -> bool:
    """True when every pair has an endpoint of degree one."""
    deg1: dict[int, int] = {}
    deg2: dict[int, int] = {}
    for a, b in pairs:
        deg1[a] = deg1.get(a, 0) + 1
        deg2[b] = deg2.get(b, 0) + 1
    return all(deg1[a] == 1 or deg2[b] == 1 for a, b in pairs)


def make_correspondence(n1: int, n2: int, pairs) -> Correspondence:
    """Validate full projections, sort the pairs, and tag minimality."""
    pairs = tuple(sorted({(int(a), int(b)) for a, b in pairs}))
    for a, b in pairs:
        if not (0 <= a < n1 and 0 <= b < n2):
            raise ValueError(f"pair ({a}, {b}) outside {n1} x {n2}")
    if {a for a, _ in pairs} != set(range(n1)) or {b for _, b in pairs} != set(range(n2)):
        raise ValueError("pairs do not project onto both point sets")
    return Correspondence(n1=n1, n2=n2, pairs=pairs, minimal=pairs_are_minimal(pairs))


def transpose(corr: Correspondence) -> Correspondence:
    flipped = tuple(sorted((b, a) for a, b in corr.pairs))
    return Correspondence(n1=corr.n2, n2=corr.n1, pairs=flipped, minimal=corr.minimal)


def _minimal_pair_tuples(n1: int, n2: int, admit=None, retract=None):
    """Yield the sorted pair tuple of every minimal correspondence exactly once.

    Rows are processed in order; each row picks a nonempty column set in one
    loop over its columns, recursing into each column it takes and ending the
    row after the loop, so a set's extensions come before the set itself and
    complete relations appear in lexicographic order of their sorted pair
    tuples.  A row with two or more columns must own them exclusively (they
    are frozen for everyone else), which is precisely the star shape
    minimality demands.  The last row must take every column no earlier row
    covers, so its loop returns at the first one it would leave uncovered.

    A scan prunes through `admit(r, c)`: called before pair (r, c) joins the
    prefix, it may refuse the whole subtree below; `retract()` follows every
    admitted pair when the recursion backs out of it.
    """
    col_deg = [0] * n2
    frozen = [False] * n2
    prefix: list[tuple[int, int]] = []

    def row(r: int, start: int, chosen: list[int]):
        last = r == n1 - 1
        for c in range(start, n2):
            takeable = col_deg[c] == 0 and col_deg[chosen[0]] == 0 if chosen else not frozen[c]
            if takeable and (admit is None or admit(r, c)):
                chosen.append(c)
                prefix.append((r, c))
                yield from row(r, c + 1, chosen)
                prefix.pop()
                chosen.pop()
                if retract is not None:
                    retract()
            # The last row must cover every still-uncovered column.
            if last and col_deg[c] == 0:
                return
        if not chosen:
            return
        if last:
            yield tuple(prefix)
            return
        multi = len(chosen) >= 2
        for j in chosen:
            col_deg[j] += 1
            frozen[j] = multi
        yield from row(r + 1, 0, [])
        for j in chosen:
            col_deg[j] -= 1
            frozen[j] = False

    if n1 >= 1 and n2 >= 1:
        yield from row(0, 0, [])


@lru_cache(maxsize=None)
def _star_forests(n1: int, n2: int) -> int:
    """Spanning star forests of K(n1, n2), split on the star that holds left
    point 0: a single edge, a star centred on it with k >= 2 leaves, or one of
    k >= 2 leaves of a star centred on the right."""
    if n1 == 0 or n2 == 0:
        return int(n1 == n2)
    count = n2 * _star_forests(n1 - 1, n2 - 1)
    for k in range(2, n2 + 1):
        count += math.comb(n2, k) * _star_forests(n1 - 1, n2 - k)
    for k in range(2, n1 + 1):
        count += n2 * math.comb(n1 - 1, k - 1) * _star_forests(n1 - k, n2 - 1)
    return count


def correspondence_count(n1: int, n2: int) -> int:
    """Number of minimal correspondences between n1 and n2 points, counted
    without enumerating them: the length of a complete scan's stream."""
    return _star_forests(n1, n2) if n1 >= 1 and n2 >= 1 else 0


def minimal_correspondences(n1: int, n2: int, budget: int | None = None):
    """Stream every minimal correspondence, truncating after `budget` emissions."""
    stream = _minimal_pair_tuples(n1, n2)
    if budget is not None:
        stream = islice(stream, budget)
    for pairs in stream:
        yield Correspondence(n1=n1, n2=n2, pairs=pairs, minimal=True)


# ---------------------------------------------------------------------------
# Per-correspondence costs (plain implementations, valid for any relation with
# full projections, minimal or not).


def distortion(corr: Correspondence, x1: FiniteMetricSpace, x2: FiniteMetricSpace) -> float:
    out = 0.0
    for a, b in corr.pairs:
        for a2, b2 in corr.pairs:
            gap = abs(float(x1.d[a, a2]) - float(x2.d[b, b2]))
            if gap > out:
                out = gap
    return out


def _rho_matrix(corr, x1, x2) -> np.ndarray:
    rows = np.array([a for a, _ in corr.pairs], dtype=int)
    cols = np.array([b for _, b in corr.pairs], dtype=int)
    return np.abs(x1.d[rows][:, :, None] - x2.d[cols][:, None, :]).max(axis=0)


def correspondence_hausdorff(
    corr: Correspondence, x1: FiniteMetricSpace, x2: FiniteMetricSpace
) -> float:
    """Hausdorff cost of the profile embeddings read off the correspondence."""
    return _maxmin(_rho_matrix(corr, x1, x2))


def timed_correspondence_hausdorff(
    corr: Correspondence, t1: TimedMetricSpace, t2: TimedMetricSpace
) -> float:
    """Same cost with the time coordinate joined in."""
    rho = _rho_matrix(corr, t1.base, t2.base)
    rho = np.maximum(rho, np.abs(t1.tau[:, None] - t2.tau[None, :]))
    return _maxmin(rho)


def glued_cross_distances(
    x1: FiniteMetricSpace, x2: FiniteMetricSpace, corr: Correspondence, delta: float
) -> np.ndarray:
    """Cross-distance table of the gluing: min over related (a, b) of
    d1(x, a) + delta + d2(b, y).  A metric whenever delta >= distortion / 2."""
    rows = np.array([a for a, _ in corr.pairs], dtype=int)
    cols = np.array([b for _, b in corr.pairs], dtype=int)
    sums = x1.d[rows][:, :, None] + x2.d[cols][:, None, :]
    return sums.min(axis=0) + delta


def pointed_glued_objective(
    corr: Correspondence,
    x1: FiniteMetricSpace,
    p1: int,
    x2: FiniteMetricSpace,
    p2: int,
) -> float:
    """Hausdorff-plus-basepoint cost in the gluing at half the distortion.

    Requires the basepoint pair to be related, so the gluing keeps the
    basepoints close.
    """
    if (p1, p2) not in set(corr.pairs):
        raise InvalidBasepoint(f"basepoint pair ({p1}, {p2}) is not in the correspondence")
    cross = glued_cross_distances(x1, x2, corr, distortion(corr, x1, x2) / 2.0)
    return _maxmin(cross) + float(cross[p1, p2])


def fd_glued_objective(
    corr: Correspondence,
    t1: TimedMetricSpace,
    t2: TimedMetricSpace,
    zeros1,
    zeros2,
) -> float:
    """Sum of the full Hausdorff cost and the zero-set Hausdorff cost in the
    gluing at half the distortion.  The restriction of the correspondence to
    the zero sets must itself have full projections onto them."""
    z1 = list(zeros1)
    z2 = list(zeros2)
    restricted = [(a, b) for a, b in corr.pairs if a in set(z1) and b in set(z2)]
    if {a for a, _ in restricted} != set(z1) or {b for _, b in restricted} != set(z2):
        raise ValueError("correspondence does not cover both zero sets")
    cross = glued_cross_distances(t1.base, t2.base, corr, distortion(corr, t1.base, t2.base) / 2.0)
    return _maxmin(cross) + _maxmin(cross[np.ix_(z1, z2)])


# ---------------------------------------------------------------------------
# Result type and the objective record shared by the scan and local search.


@dataclass(frozen=True)
class DistanceResult:
    """A certified interval [lower, upper] for one distance kind.

    is_exact means the scan ran to completion and lower == upper.  The
    certificate re-evaluates to upper under the matching per-correspondence
    cost.  `anchor` carries the basepoint pair for pointed kinds; `zero_pairs`
    is the certificate's restriction to the two zero sets for fd-hh.
    """

    kind: DistanceKind
    lower: float
    upper: float
    is_exact: bool
    certificate: Correspondence | None
    explored: int
    budget_exhausted: bool
    anchor: tuple[int, int] | None = None
    zero_pairs: tuple[tuple[int, int], ...] | None = None


def _pair_ids(block, n2: int) -> np.ndarray:
    """Pair ids (a * n2 + b for pair (a, b)) of a block of sorted pair tuples,
    one row per tuple, each row padded to the longest by repeating its first
    pair."""
    width = max(map(len, block), default=1)
    padded = [p + p[:1] * (width - len(p)) for p in block]
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(padded)), dtype=np.intp,
                       count=2 * width * len(block)).reshape(len(block), width, 2)
    return flat[:, :, 0] * n2 + flat[:, :, 1]


def _base_of(space) -> FiniteMetricSpace:
    return space.base if isinstance(space, TimedMetricSpace) else space


def simple_lower_bounds(kind: DistanceKind, a, b) -> float:
    """Cheap certified lower bounds: half the diameter gap for every kind,
    joined for tau-h with the Hausdorff distance between the two sets of time
    values on the line."""
    x1, x2 = _base_of(a), _base_of(b)
    bound = abs(x1.diameter - x2.diameter) / 2.0
    if kind is DistanceKind.TAU_H:
        if not (isinstance(a, TimedMetricSpace) and isinstance(b, TimedMetricSpace)):
            raise TypeError("tau-h needs timed spaces")
        bound = max(bound, _maxmin(np.abs(a.tau[:, None] - b.tau[None, :])))
    return float(bound)


@dataclass(frozen=True)
class _Objective:
    """One distance kind between two checked inputs, in one of two cost
    families: the distortion (gh at scale 1/2, the glued kinds at scale 1)
    or the Hausdorff value of the profile-gap table rho (kappa-gh, and tau-h
    with the time gap joined in).

    `costs` maps a block (a list) of sorted pair tuples to the array of their
    per-correspondence costs.  `prefix()` starts an empty prefix of pairs and
    returns `(extend, undo)`: `extend(p)` adds pair id p and returns a bound
    at most the cost of every candidate that holds the prefix, never less
    than the bound before; `undo()` drops the last pair added.
    `required` holds the pair sets merged into each minimal correspondence,
    one candidate per set: none for gh/kappa-gh/tau-h, the basepoint pair for
    pt-gh/bb-gh, every minimal zero-set correspondence for fd-hh.  `floor` is
    the kind's simple lower bound.
    """

    kind: DistanceKind
    n1: int
    n2: int
    costs: Callable[[list], np.ndarray]
    prefix: Callable[[], tuple[Callable[[int], float], Callable[[], None]]]
    required: tuple[tuple[tuple[int, int], ...], ...]
    floor: float
    anchor: tuple[int, int] | None = None
    zeros: tuple[list[int], list[int]] | None = None

    @property
    def exact(self) -> bool:
        """The least cost is the distance itself, not a 2-approximation of it."""
        return not self.required


def _objective(kind, a, b, tol: float = DEFAULT_TOL, basepoints=None) -> _Objective:
    """Check the inputs of `kind` and build its objective between a and b,
    with only the table of its cost family."""
    if kind in TIMED_KINDS and not (
        isinstance(a, TimedMetricSpace) and isinstance(b, TimedMetricSpace)
    ):
        raise TypeError(f"{kind.value} needs timed spaces")
    x1, x2 = _base_of(a), _base_of(b)
    anchor = zeros = None
    required = ()
    if kind is DistanceKind.PT_GH:
        if basepoints is None:
            raise InvalidBasepoint("pt-gh needs a basepoint pair")
        for p, x in zip(basepoints, (x1, x2)):
            if not (0 <= p < x.n):
                raise InvalidBasepoint(f"basepoint {p} outside [0, {x.n})")
        anchor = (int(basepoints[0]), int(basepoints[1]))
    elif kind is DistanceKind.BB_GH:
        for side, t in ((1, a), (2, b)):
            if classify(t, tol) is not SpaceClass.BIG_BANG:
                raise NotBigBang(side)
        anchor = tuple(structure_report(t, delta=tol).zero_set[0] for t in (a, b))
    elif kind is DistanceKind.FD_HH:
        for side, t in ((1, a), (2, b)):
            if classify(t, tol) is SpaceClass.GENERIC:
                raise NotFutureDeveloped(side)
        z1, z2 = zeros = _zero_sets(a, b, tol)
        required = tuple(
            tuple((z1[i], z2[j]) for i, j in zp) for zp in _minimal_pair_tuples(len(z1), len(z2))
        )
    elif kind not in (DistanceKind.GH, DistanceKind.KAPPA_GH, DistanceKind.TAU_H):
        raise ValueError(f"unknown distance kind {kind!r}")
    if anchor is not None:
        required = ((anchor,),)
    n2 = x2.n
    rows, cols = np.repeat(np.arange(x1.n), n2), np.tile(np.arange(n2), x1.n)

    if kind in (DistanceKind.KAPPA_GH, DistanceKind.TAU_H):
        # C[id, x, y] = |d1(a, x) - d2(b, y)| for pair id a * n2 + b; the rho
        # table of the empty relation is zero, or the time gap for tau-h.
        C = np.abs(x1.d[rows][:, :, None] - x2.d[cols][:, None, :])
        rho = (np.abs(a.tau[:, None] - b.tau[None, :]) if kind is DistanceKind.TAU_H
               else np.zeros((x1.n, n2)))

        def costs(block):
            ids = _pair_ids(block, n2)
            table = np.maximum(rho, C[ids[:, 0]])
            for j in range(1, ids.shape[1]):
                np.maximum(table, C[ids[:, j]], out=table)
            return _maxmin(table)

        def prefix():
            tables = [rho]

            def extend(p):
                tables.append(np.maximum(tables[-1], C[p]))
                return _maxmin(tables[-1])

            return extend, tables.pop
    else:
        # DIS[id, id'] is the distortion contribution of two pairs times the
        # kind's scale: gh is half the distortion, and each glued cost equals
        # it (see above).  Rounding is monotone, so the max of scaled entries
        # is the scaled max, bit for bit.  A glued prefix holds the pairs
        # every required set contains from the start.
        scale = 0.5 if kind is DistanceKind.GH else 1.0
        DIS = np.abs(x1.d[np.ix_(rows, rows)] - x2.d[np.ix_(cols, cols)]) * scale
        common = sorted(set(required[0]).intersection(*required[1:])) if required else []

        def costs(block):
            ids = _pair_ids(block, n2)
            out = DIS[ids[:, :1], ids].max(axis=1)
            for j in range(1, ids.shape[1]):
                np.maximum(out, DIS[ids[:, j : j + 1], ids].max(axis=1), out=out)
            return out

        def prefix():
            dis = DIS.tolist()
            ids = [p * n2 + q for p, q in common]
            # running[k] is the distortion of the first k ids; extend writes it
            # before reading it.  A path holds each pair id at most once, so
            # len(dis) slots past the common pairs suffice.
            start = max((dis[p][q] for p in ids for q in ids), default=0.0)
            running = [start] * (len(ids) + len(dis) + 1)

            def extend(p):
                k = len(ids)
                d = running[k + 1] = max(running[k], max(map(dis[p].__getitem__, ids), default=0.0))
                ids.append(p)
                return d

            return extend, ids.pop

    return _Objective(
        kind=kind,
        n1=x1.n,
        n2=n2,
        costs=costs,
        prefix=prefix,
        required=required,
        floor=simple_lower_bounds(kind, a, b),
        anchor=anchor,
        zeros=zeros,
    )


def _zero_sets(a, b, tol: float) -> tuple[list[int], list[int]]:
    """The zero sets of two timed spaces, as fd-hh reads them."""
    return tuple(list(structure_report(t, delta=tol).zero_set) for t in (a, b))


def stream_length(kind: DistanceKind, a, b, tol: float = DEFAULT_TOL) -> int:
    """Candidates a complete scan of `kind` between a and b scores, counted
    without building or enumerating anything: the minimal correspondences,
    each once per minimal zero-set correspondence for fd-hh."""
    total = correspondence_count(_base_of(a).n, _base_of(b).n)
    if kind is DistanceKind.FD_HH:
        total *= max(1, correspondence_count(*map(len, _zero_sets(a, b, tol))))
    return total


def _merged(obj: _Objective, pairs) -> list:
    """The candidates one minimal correspondence stands for, in stream order."""
    if not obj.required:
        return [pairs]
    have = set(pairs)
    return [pairs if have.issuperset(extra) else tuple(sorted(have.union(extra)))
            for extra in obj.required]


def _least(block: list, values: np.ndarray):
    """The least value of a nonempty block and the lexicographically smallest
    tuple attaining it.  Merged candidates are not in lexicographic order, so
    the first index would not do."""
    low = values.min()
    return low, min(block[i] for i in np.flatnonzero(values == low))


def _scan(obj: _Objective, total: int, budget: int):
    """The least cost among the first `budget` candidates of a stream of
    `total`, and the lexicographically smallest candidate attaining it.

    A stream that fits the budget is pruned: a prefix is refused when its
    bound cannot beat the best candidate held.  The exact kinds' candidates
    are unmerged and met in stream order, so an equal bound prunes them.
    Merged candidates are not in stream order: an equal bound prunes only
    when `may_precede` shows that every candidate below sorts after the best
    tuple, and ties go to the smallest tuple as in `_least`.  A cut stream is
    scored in blocks of BLOCK.
    """
    best, best_pairs = math.inf, None
    n2 = obj.n2
    if total <= budget:
        extend, undo = obj.prefix()
        exact = obj.exact
        path: list[int] = []
        extras = [[a * n2 + b for a, b in extra] for extra in obj.required]

        def may_precede(p):
            """Whether a candidate below the path plus pair id p can sort
            before the best tuple.  Pair ids order as pairs do, and every pair
            added below is above p, so a candidate merged with `extra` starts
            with `lead`: the path, p and the ids of `extra` below p."""
            held = path + [p]
            best_ids = [a * n2 + b for a, b in best_pairs]
            for extra in extras:
                lead = sorted(set(held).union(e for e in extra if e < p))
                if lead <= best_ids[: len(lead)]:
                    return True
            return False

        def admit(r, c):
            p = r * n2 + c
            bound = extend(p)
            if bound > best or (bound == best and (exact or not may_precede(p))):
                undo()
                return False
            path.append(p)
            return True

        def retract():
            undo()
            path.pop()

        blocks = (_merged(obj, pairs) for pairs in _minimal_pair_tuples(obj.n1, n2, admit, retract))
    else:
        minimal = _minimal_pair_tuples(obj.n1, n2)
        stream = islice(chain.from_iterable(_merged(obj, pairs) for pairs in minimal), budget)
        blocks = iter(lambda: list(islice(stream, BLOCK)), [])
    for block in blocks:
        value, cand = _least(block, obj.costs(block))
        if value < best or (value == best and cand < best_pairs):
            best, best_pairs = value, cand
    return best, best_pairs


def _result(obj: _Objective, value, pairs, explored, complete, exhausted=False) -> DistanceResult:
    """Assemble the certified interval for the best candidate found.  Only a
    complete scan certifies its least cost (exact kinds) or half of it (the
    2-approximations); otherwise the simple bounds alone certify lower."""
    upper = math.inf if pairs is None else float(value)
    if complete:
        lower = upper if obj.exact else min(max(obj.floor, upper / 2.0), upper)
    else:
        lower = min(obj.floor, upper)
    cert = zero_pairs = None
    if pairs is not None:
        cert = Correspondence(n1=obj.n1, n2=obj.n2, pairs=pairs, minimal=pairs_are_minimal(pairs))
        if obj.zeros is not None:
            z1, z2 = set(obj.zeros[0]), set(obj.zeros[1])
            zero_pairs = tuple((p, q) for p, q in pairs if p in z1 and q in z2)
    return DistanceResult(
        kind=obj.kind,
        lower=lower,
        upper=upper,
        is_exact=complete and lower == upper,
        certificate=cert,
        explored=explored,
        budget_exhausted=exhausted,
        anchor=obj.anchor,
        zero_pairs=zero_pairs,
    )


def distance(
    kind: DistanceKind,
    a,
    b,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    basepoints: tuple[int, int] | None = None,
) -> DistanceResult:
    """Distance of any kind between a and b: minimize the kind's cost over its
    candidate stream with a deterministic lexicographic tie-break, counting
    evaluations against the budget.  `tol` is the classification tolerance of
    bb-gh and fd-hh; `basepoints` is the pt-gh basepoint pair."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    obj = _objective(kind, a, b, tol, basepoints)
    total = correspondence_count(obj.n1, obj.n2) * max(1, len(obj.required))
    value, pairs = _scan(obj, total, budget)
    complete = total <= budget
    return _result(obj, value, pairs, min(total, budget), complete, not complete)


# ---------------------------------------------------------------------------
# Drivers.


def gh_distance(
    x1: FiniteMetricSpace, x2: FiniteMetricSpace, budget: int = DEFAULT_BUDGET
) -> DistanceResult:
    """Gromov-Hausdorff distance: half the minimal distortion."""
    return distance(DistanceKind.GH, x1, x2, budget)


def kappa_gh_distance(
    x1: FiniteMetricSpace, x2: FiniteMetricSpace, budget: int = DEFAULT_BUDGET
) -> DistanceResult:
    """Best Hausdorff distance between paired distance-profile embeddings."""
    return distance(DistanceKind.KAPPA_GH, x1, x2, budget)


def tau_h_distance(
    t1: TimedMetricSpace, t2: TimedMetricSpace, budget: int = DEFAULT_BUDGET
) -> DistanceResult:
    """Timed-Hausdorff distance: the profile-embedding cost with time joined in."""
    return distance(DistanceKind.TAU_H, t1, t2, budget)


def pointed_gh(
    x1: FiniteMetricSpace,
    p1: int,
    x2: FiniteMetricSpace,
    p2: int,
    budget: int = DEFAULT_BUDGET,
) -> DistanceResult:
    """Pointed Gromov-Hausdorff objective (Hausdorff plus basepoint distance),
    certified within a factor of two.

    The engine's value is the least distortion over the correspondences that
    contain the basepoint pair, which is the glued objective of each.  The
    gluing at half that distortion is a genuine common embedding, so upper is
    achievable; a correspondence read back off any embedding of value v has
    distortion at most 2v.  Hence the true value lies in [upper / 2, upper].
    """
    return distance(DistanceKind.PT_GH, x1, x2, budget, basepoints=(p1, p2))


def bb_gh(
    t1: TimedMetricSpace,
    t2: TimedMetricSpace,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
) -> DistanceResult:
    """Pointed objective anchored at the big bang points of two big bang spaces."""
    return distance(DistanceKind.BB_GH, t1, t2, budget, tol)


def fd_hh(
    t1: TimedMetricSpace,
    t2: TimedMetricSpace,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
) -> DistanceResult:
    """Hausdorff-plus-zero-set objective for future developed spaces, certified
    within a factor of two by the same gluing argument as the pointed kind.
    The engine's value is the least distortion over the correspondences that
    cover both zero sets."""
    return distance(DistanceKind.FD_HH, t1, t2, budget, tol)


def reevaluate(result: DistanceResult, a, b) -> float:
    """Recompute the certified upper value from the certificate alone."""
    if result.certificate is None:
        raise ValueError("result carries no certificate")
    corr = result.certificate
    if result.kind is DistanceKind.GH:
        return distortion(corr, _base_of(a), _base_of(b)) / 2.0
    if result.kind is DistanceKind.KAPPA_GH:
        return correspondence_hausdorff(corr, _base_of(a), _base_of(b))
    if result.kind is DistanceKind.TAU_H:
        return timed_correspondence_hausdorff(corr, a, b)
    if result.kind in (DistanceKind.PT_GH, DistanceKind.BB_GH):
        p1, p2 = result.anchor
        return pointed_glued_objective(corr, _base_of(a), p1, _base_of(b), p2)
    zeros1 = sorted({z for z, _ in result.zero_pairs})
    zeros2 = sorted({z for _, z in result.zero_pairs})
    return fd_glued_objective(corr, a, b, zeros1, zeros2)


# ---------------------------------------------------------------------------
# Heuristic upper bounds by local search.


def _covers(pairs: set, n1, n2, zeros) -> bool:
    """Full projections onto both point sets and, for fd-hh, onto both zero sets."""
    if {a for a, _ in pairs} != set(range(n1)) or {b for _, b in pairs} != set(range(n2)):
        return False
    if zeros is None:
        return True
    z1, z2 = set(zeros[0]), set(zeros[1])
    inside = [(a, b) for a, b in pairs if a in z1 and b in z2]
    return {a for a, _ in inside} == z1 and {b for _, b in inside} == z2


def local_search_upper(
    kind: DistanceKind,
    a,
    b,
    seed: int,
    iterations: int = 200,
    basepoints: tuple[int, int] | None = None,
) -> DistanceResult:
    """Greedy descent over correspondences; a certified upper bound, never exact.

    Starts from the modular diagonal pairing (the identity when the spaces
    share a size) plus seeded random restarts; moves add a pair, drop a
    droppable pair, or swap one endpoint.  Deterministic for a given seed.
    Inputs are checked as the exact driver of the same kind checks them;
    `basepoints` is the pt-gh basepoint pair.
    """
    obj = _objective(kind, a, b, basepoints=basepoints)
    n1, n2, zeros = obj.n1, obj.n2, obj.zeros
    pinned = {obj.anchor} if obj.anchor is not None else set()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), n1, n2]))

    def start(pairs):
        """Add the pinned pair, and relate each uncovered zero point to the
        first zero point of the other side."""
        pairs |= pinned
        if zeros is not None:
            z1, z2 = zeros
            inside = [(p, q) for p, q in pairs if p in z1 and q in z2]
            pairs |= {(p, z2[0]) for p in set(z1) - {p for p, _ in inside}}
            pairs |= {(z1[0], q) for q in set(z2) - {q for _, q in inside}}
        return pairs

    universe = [(i, j) for i in range(n1) for j in range(n2)]

    def neighbors(pairs: set):
        movable = sorted(pairs - pinned)
        for q in universe:
            if q not in pairs:
                yield pairs | {q}
        for p in movable:
            if _covers(pairs - {p}, n1, n2, zeros):
                yield pairs - {p}
        for p in movable:
            for q in universe:
                if q not in pairs and (q[0] == p[0] or q[1] == p[1]):
                    cand = (pairs - {p}) | {q}
                    if _covers(cand, n1, n2, zeros):
                        yield cand

    best_value = math.inf
    best_pairs = None
    explored = 0
    starts = [start({(i, i % n2) for i in range(n1)} | {(j % n1, j) for j in range(n2)})]
    for _ in range(3):
        rows = {(i, int(rng.integers(n2))) for i in range(n1)}
        starts.append(start(rows | {(int(rng.integers(n1)), j) for j in range(n2)}))
    for current in starts:
        key = tuple(sorted(current))
        value = obj.costs([key])[0]
        explored += 1
        for _ in range(iterations):
            block = [tuple(sorted(cand)) for cand in neighbors(current)]
            if not block:
                break
            explored += len(block)
            low, pairs = _least(block, obj.costs(block))
            if low >= value:
                break
            key, value = pairs, low
            current = set(key)
        if value < best_value or (value == best_value and key < best_pairs):
            best_value, best_pairs = value, key

    return _result(obj, best_value, best_pairs, explored, complete=False)


def require_exact(result: DistanceResult) -> DistanceResult:
    """Raise BudgetTooSmall unless the result is exact."""
    if not result.is_exact:
        raise BudgetTooSmall(
            f"{result.kind.value} search explored {result.explored} correspondences "
            "without certifying exactness"
        )
    return result
