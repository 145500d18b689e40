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

Every stream comes from one loop, ``_minimal_id_tuples``.  It walks the tree
of row choices on an explicit stack (the columns each row above has taken),
so each candidate is yielded from one frame, and it reads the last row off
directly: every column still uncovered as one leaf, or else each unfrozen
column alone.  It keeps the ids it holds, a required set first, in one list
that a scan's one prune hook, ``admit(p, ids)``, reads before id p joins
it; nothing is ever retracted.  No last-row pair that cannot end in a
candidate is asked for.

Each glued objective equals the distortion dis(R) of its correspondence R,
bit for bit (halving and doubling are exact).  With delta = dis(R) / 2, every
cross entry d1(x, a) + delta + d2(b, y) is at least delta, and the entry of a
related pair is 0 + delta + 0.  R covers both point sets and both zero sets
and holds the anchor, so the Hausdorff, anchor and zero-set terms each equal
delta.  A complete scan certifies the 2-approximation [upper / 2, upper],
tightened from below by simple bounds; a cut scan, only the simple bounds.

Every kind scans one candidate family: the minimal relations that cover both
point sets and whose pairs inside Z1 x Z2 cover both zero sets.  The anchor
of pt-gh and bb-gh is the 1 x 1 zero set; gh, kappa-gh and tau-h have none.
A candidate splits once into a minimal correspondence between the zero sets
(a required set) and a minimal cover of the points outside them with no pair
inside Z1 x Z2.  Every cost is monotone, and every correspondence that holds
the anchor or covers the zero sets contains a candidate, so the family's
least cost is the least over all of them.

Inside the engine a relation is a tuple of pair ids, a * n2 + b for pair
(a, b), which order as the pairs do; a candidate lists its required set's
ids, then its cover's.  Pairs appear only at the boundaries: the inputs of
``_objective``, local search's starts, the certificate ``_result`` sorts and
decodes and the public ``minimal_correspondences`` stream.

Each kind is one objective record (``_objective``): its inputs checked, the
tensor both cost families read, its batched cost, move cost and prefix bound,
its zero and required sets.  ``distance`` is the one entry behind the six
drivers: one scan and one result assembler serve every kind and
``local_search_upper``.  The plain per-correspondence functions independently
check certificates.

Both cost families read one tensor, C[id, x, y] = |d1(a, x) - d2(b, y)| for
pair id a * n2 + b.  A relation's table is rho joined with C[id] over its
ids, where rho is the time gap for tau-h and zero for every other kind.  The
profile-gap family (kappa-gh, tau-h) reads the table's Hausdorff value.  The
distortion family (gh, pt-gh, bb-gh, fd-hh) builds no table: it reads the
relation's pair entries of C, the distortion between each two of its ids,
and takes their max times the kind's scale.  C is symmetric in its two pairs
and zero at a repeated pair, so each unordered pair is read once and a
relation of one pair costs 0.

A scan cut by its budget, or complete within one block, scores candidates in
blocks, one numpy call chain per block; its first block is the stream's
cached head.  A block is a table of pair ids, one row per candidate's id
tuple; rows shorter than the longest repeat their first id.  A repeated id
changes neither the table nor the max over the row's pairs of ids, so
padding needs no sentinel and no mask, and a row less its repeats is its
candidate.  Within a block the least value goes to its first row, as in a
one-at-a-time scan.

Local search holds its relation as a sorted array of pair ids and builds each
step's whole neighbourhood (every drop and one-endpoint swap that keeps both
point sets and both zero sets covered) as (slot, new) pairs: the relation
with the id at that slot taken out and the new id put in, a drop's new id
being one the relation already holds.  Coverage is read off the relation's
degree counts.  It builds no add: every cost is monotone in the relation, so
an added pair never lowers it.  The table of the relation without each slot
is built once per step, from running maxima taken from both ends; each
neighbour's cost reads that table with the new id's entries: the same max
over the same floats, bit for bit.  Ties go to the smallest id tuple among
the tied neighbours.

There is one scan, ``_scan``, over a set-major stream: for each required set
in lexicographic order, each minimal cover of the rest in enumeration order.
The certificate is the first candidate of least cost in that stream: for gh,
kappa-gh and tau-h the lexicographically smallest optimum.  The stream
length is counted without enumerating (``_covers`` times the number of
sets); the scan is complete exactly when it fits the budget, and
``explored`` is the smaller of the two.  Completeness and length pick one
of two paths.  A cut scan, or a complete one of at most ``BLOCK``
candidates, scores the stream's first ``min(total, budget)`` candidates in
blocks.  The first ``BLOCK`` come from a table cached per shape and zero
sets (``_stream_table``): the stream depends on nothing else, and the many
scans of a campaign or a budget-cut round share few keys (1,700 scans, 140
keys in a 100-trial campaign of every suite).  Only a cut past ``BLOCK``
generates the rest, a block of ``BLOCK`` at a time.  A longer complete scan
walks the cover tree once per required set, which the enumerator holds
first.  Its hook bounds the ids held plus the one asked for, and refuses
the subtree below when the bound, at most the cost of every candidate
below, is not below the best candidate held; every candidate below comes
later in the stream, so an equal one cannot win.  The bound never
decreases as pairs are added: the scaled distortion of the ids, or the
Hausdorff value of their rho table, which bounds a node's children a row at
once.  A leaf's ids are every pair of its candidate, so the bound of its
last pair is its cost.  Pruning changes no value, certificate or
``explored`` count.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable, Sequence
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
    _check_count,
    _check_index,
    _check_tol,
    _maxmin,
    report_class,
    structure_report,
)

DEFAULT_BUDGET = 5_000_000
# Candidates scored per numpy call, the length of a stream's cached head, and
# the longest complete stream scored as blocks rather than walked.  A few
# hundred amortise the per-call cost; larger blocks only add memory.  At
# 5 x 5 (2,945 candidates), scoring the stream as one block already built
# takes 0.2-1.1 times as long as the pruned walk of gh, kappa-gh and tau-h
# (12 cone pairs, medians 0.35-0.5), but generating that block takes 6-10
# times the walk.
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
    _check_counts(n1, n2)
    pairs = list(pairs)
    for a, b in pairs:
        _check_index(a, n1, "row")
        _check_index(b, n2, "column")
    pairs = tuple(sorted({(int(a), int(b)) for a, b in pairs}))
    if {a for a, _ in pairs} != set(range(n1)) or {b for _, b in pairs} != set(range(n2)):
        raise ValueError("pairs do not project onto both point sets")
    return Correspondence(n1=n1, n2=n2, pairs=pairs, minimal=pairs_are_minimal(pairs))


def _check_counts(n1, n2) -> None:
    """Refuse point counts that are not integers >= 0 (bools and floats too)."""
    _check_count(n1, "n1", 0)
    _check_count(n2, "n2", 0)


def _check_sizes(corr: Correspondence, a, b, name: str = "correspondence") -> None:
    """Refuse a correspondence whose point counts are not those of spaces a, b."""
    if (corr.n1, corr.n2) != (a.n, b.n):
        raise ValueError(f"the {name} relates {corr.n1} x {corr.n2} points, not {a.n} x {b.n}")


def transpose(corr: Correspondence) -> Correspondence:
    flipped = tuple(sorted((b, a) for a, b in corr.pairs))
    return Correspondence(n1=corr.n2, n2=corr.n1, pairs=flipped, minimal=corr.minimal)


def _minimal_id_tuples(n1: int, n2: int, admit=None, covered=((), ()), held=()):
    """Yield every minimal cover of the points outside `covered` (rows,
    columns) with no pair between two covered points exactly once, as the
    sorted tuple of its pair ids (a * n2 + b for pair (a, b)) after the ids
    `held`.  Ids order as pairs do.  With nothing covered or held these are
    the minimal correspondences.

    Every pair needs an uncovered endpoint of degree one: the star shape
    minimality demands.  A row takes one column, or two or more it owns
    (frozen for everyone else).  A covered row starts out holding a column
    of its own, so it owns what it takes and may take nothing; a covered
    column starts at degree one.

    One loop walks the tree on an explicit stack: the column list of each
    row above the current one, whose last column says where that row
    resumes.  A row tries its columns in order from where it resumes; taking
    a column adds it to the row's list and goes on to the next column, so a
    set's extensions come before the set itself.  Once its columns are all
    tried, a row holding a set descends to the next row with it.  Backing
    out drops the last column of the nearest row above that took one and
    resumes that row past it.  Complete relations therefore appear in
    lexicographic order of their sorted pair tuples.  The last row is read
    off, not walked: it takes every column still uncovered, in order, as
    one leaf; if none is left, an uncovered last row takes each unfrozen
    column singly, a leaf each, and a covered one takes nothing.

    The ids held, then those taken, are kept in the list `prefix`.  A scan
    prunes through one hook, `admit(p, prefix)`: asked before id p joins the
    prefix, it may refuse the whole subtree below.  It is handed the live
    list, so it must neither keep nor change it; nothing is retracted.  No
    last-row id is asked for unless it can end in a leaf, and a tuple past
    `held` is yielded right after its last id is admitted.
    """
    if n1 < 1 or n2 < 1:
        return
    # Row r takes into heads[r], left as found by each visit.  A covered row
    # starts out holding column n2 + r, which no other row sees: degree zero.
    heads = [[n2 + r] if r in covered[0] else [] for r in range(n1)]
    col_deg = [int(c in covered[1]) for c in range(n2)] + [0] * n1
    frozen = [False] * (n2 + n1)
    prefix = list(held)
    last = n1 - 1
    r = c = 0  # the current row and the first column it has left to try
    while True:
        chosen = heads[r]
        base = r * n2
        if r < last:
            for c in range(c, n2):
                takeable = col_deg[c] == 0 and col_deg[chosen[0]] == 0 if chosen else not frozen[c]
                if takeable and (admit is None or admit(base + c, prefix)):
                    chosen.append(c)
                    prefix.append(base + c)
            if chosen:
                multi = len(chosen) >= 2
                for j in chosen:
                    col_deg[j] += 1
                    frozen[j] = multi
                r, c = r + 1, 0
                continue
        else:
            leaf = [base + c for c in range(n2) if col_deg[c] == 0]
            if leaf or chosen:
                k = len(prefix)
                for p in leaf:
                    if admit is not None and not admit(p, prefix):
                        break
                    prefix.append(p)
                else:
                    yield tuple(prefix)
                del prefix[k:]
            else:
                for c in range(n2):
                    if not frozen[c] and (admit is None or admit(base + c, prefix)):
                        yield (*prefix, base + c)
        # Back out to the nearest row above that took a column; drop its last.
        while True:
            r -= 1
            if r < 0:
                return
            chosen = heads[r]
            for j in chosen:
                col_deg[j] -= 1
                frozen[j] = False
            if chosen[-1] < n2:
                c = chosen.pop() + 1
                prefix.pop()
                break


@lru_cache(maxsize=None)
def _covers(u1: int, c1: int, u2: int, c2: int) -> int:
    """Minimal covers of u1 + u2 uncovered points beside c1 + c2 covered ones
    (left + right): star forests with uncovered leaves, split on the star of
    an uncovered left point: one of j >= 1 leaves of a right centre (a single
    edge if j == 1 and the centre is uncovered), or centre of k >= 2 leaves."""
    if min(u2, c2) < 0:
        return 0
    if u1 == 0:
        return 1 if u2 == 0 else _covers(u2, c2, u1, c1)
    count = 0
    for j in range(1, u1 + 1):
        count += math.comb(u1 - 1, j - 1) * (
            c2 * _covers(u1 - j, c1, u2, c2 - 1) + u2 * _covers(u1 - j, c1, u2 - 1, c2)
        )
    for k in range(2, u2 + 1):
        count += math.comb(u2, k) * _covers(u1 - 1, c1, u2 - k, c2)
    return count


def correspondence_count(n1: int, n2: int) -> int:
    """Number of minimal correspondences between n1 and n2 points, counted
    without enumerating them: the length of a complete scan's stream."""
    _check_counts(n1, n2)
    return _covers(n1, 0, n2, 0) if n1 >= 1 and n2 >= 1 else 0


def minimal_correspondences(n1: int, n2: int, budget: int | None = None):
    """Stream every minimal correspondence, truncating after `budget` emissions."""
    _check_counts(n1, n2)
    if budget is not None and (
        isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 0
    ):
        raise ValueError(f"budget must be None or an integer >= 0, got {budget!r}")
    pairs = [(a, b) for a in range(n1) for b in range(n2)]
    return (
        Correspondence(n1=n1, n2=n2, pairs=tuple(map(pairs.__getitem__, ids)), minimal=True)
        for ids in islice(_minimal_id_tuples(n1, n2), budget)
    )


# ---------------------------------------------------------------------------
# Per-correspondence costs (plain implementations, valid for any relation with
# full projections, minimal or not).


def distortion(corr: Correspondence, x1: FiniteMetricSpace, x2: FiniteMetricSpace) -> float:
    _check_sizes(corr, x1, x2)
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
    _check_sizes(corr, x1, x2)
    return _maxmin(_rho_matrix(corr, x1, x2))


def timed_correspondence_hausdorff(
    corr: Correspondence, t1: TimedMetricSpace, t2: TimedMetricSpace
) -> float:
    """Same cost with the time coordinate joined in."""
    _check_sizes(corr, t1, t2)
    rho = _rho_matrix(corr, t1.base, t2.base)
    rho = np.maximum(rho, np.abs(t1.tau[:, None] - t2.tau[None, :]))
    return _maxmin(rho)


def glued_cross_distances(
    x1: FiniteMetricSpace, x2: FiniteMetricSpace, corr: Correspondence, delta: float
) -> np.ndarray:
    """Cross-distance table of the gluing: min over related (a, b) of
    d1(x, a) + delta + d2(b, y).  A metric whenever delta >= distortion / 2;
    a delta that is not a finite real >= 0 raises ValueError."""
    _check_tol(delta, "delta")
    _check_sizes(corr, x1, x2)
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
    _check_sizes(corr, x1, x2)
    _check_index(p1, x1.n, "basepoint", InvalidBasepoint)
    _check_index(p2, x2.n, "basepoint", InvalidBasepoint)
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
    _check_sizes(corr, t1, t2)
    z1 = list(zeros1)
    z2 = list(zeros2)
    for z, t in ((z1, t1), (z2, t2)):
        for i in z:
            _check_index(i, t.n, "zero point")
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


def _padded(block) -> np.ndarray:
    """A block of id tuples as one table, each row padded to the longest by
    repeating its first id."""
    width = max(map(len, block), default=1)
    padded = [t + t[:1] * (width - len(t)) for t in block]
    # One flat fromiter reads a block about 20% faster than np.array(padded).
    flat = np.fromiter(chain.from_iterable(padded), dtype=np.intp, count=width * len(block))
    return flat.reshape(len(block), width)


def _required(n2: int, zeros) -> tuple[tuple[int, ...], ...]:
    """The minimal correspondences between the zero sets as sorted id
    tuples, or the empty tuple alone when there are no zero sets."""
    # Id q between the zero sets is the pair of z1 x z2 at index q.
    zero_ids = [p * n2 + q for p in zeros[0] for q in zeros[1]]
    return tuple(tuple(map(zero_ids.__getitem__, zp))
                 for zp in _minimal_id_tuples(*map(len, zeros))) or ((),)


def _stream(n1: int, n2: int, zeros, required):
    """The set-major candidate stream: for each required set in turn, held
    by the enumerator, that set's ids followed by each minimal cover of the
    rest."""
    return chain.from_iterable(
        _minimal_id_tuples(n1, n2, covered=zeros, held=extra) for extra in required
    )


@lru_cache(maxsize=256)
def _stream_table(n1: int, n2: int, zeros: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The first BLOCK candidates of the stream of n1 x n2 points with these
    zero sets as one read-only padded id table (see ``_padded``).  The stream
    depends on nothing else, so one table serves every scan of its shape and
    zero sets."""
    table = _padded(list(islice(_stream(n1, n2, zeros, _required(n2, zeros)), BLOCK)))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _pair_slots(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The slots (i, j), i < j, of every pair within a row of `width` ids.
    Cached: np.triu_indices costs about 15 us, as much as scoring a small
    block."""
    i, j = np.triu_indices(width, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _base_of(space) -> FiniteMetricSpace:
    return space.base if isinstance(space, TimedMetricSpace) else space


def simple_lower_bounds(kind: DistanceKind, a, b) -> float:
    """Cheap certified lower bounds: half the diameter gap for every kind,
    joined for tau-h with the Hausdorff distance between the two sets of time
    values on the line."""
    if not isinstance(kind, DistanceKind):
        raise ValueError(f"unknown distance kind {kind!r}")
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

    `costs` maps a padded id table (see ``_padded``), one row per candidate,
    to the array of their per-correspondence costs.  `move_costs(cur, slot,
    new)` scores one local-search step: neighbour m is the relation `cur`
    (sorted pair ids) with the id at slot[m] taken out and new[m] put in, as
    `_neighbours` builds them.  `move_costs` reads one relation table per
    neighbour, as `costs` does in the rho family; the distortion family's
    `costs` reads each row's pair entries of C (see the module docstring).
    `prefix()` returns `extend(p, ids)`, the bound of `ids + [p]`: at most
    the cost of every candidate that holds it, never less than the bound of
    `ids`, and a candidate's cost once it holds all its pairs.
    It reads only the state stored at depth `len(ids)` and writes depth
    `len(ids) + 1`, so it needs no undo while each call's `ids` is the
    relation last extended to its depth, as in a walk.  A refused id leaves
    its state at depth `len(ids) + 1`, safe because nothing deeper is read
    until an admitted id rewrites it; depth 0, the empty relation, serves
    every required set.  The rho prefix builds a node's children in
    batches: the first `extend(p, ids)` below `ids` bounds ids p to the end
    of p's row in one numpy call, and later siblings in that range read
    their table and bound from it.
    `zeros` holds the zero sets (for pt-gh and bb-gh the anchor as 1 x 1
    zero sets; none for gh/kappa-gh/tau-h), `required` the minimal
    correspondences between them as sorted id tuples, or the empty tuple
    alone.  `floor` is the kind's simple lower bound.
    """

    kind: DistanceKind
    n1: int
    n2: int
    costs: Callable[[np.ndarray], np.ndarray]
    move_costs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    prefix: Callable[[], Callable[[int, Sequence[int]], float]]
    zeros: tuple[list[int], list[int]]
    required: tuple[tuple[int, ...], ...]
    floor: float
    anchor: tuple[int, int] | None = None

    @property
    def exact(self) -> bool:
        """The least cost is the distance itself, not a 2-approximation of it."""
        return not self.zeros[0]


def _objective(kind, a, b, tol: float = DEFAULT_TOL, basepoints=None) -> _Objective:
    """Check the inputs of `kind` and build its objective between a and b
    over the one tensor C both cost families read."""
    _check_tol(tol)
    if kind in TIMED_KINDS and not (
        isinstance(a, TimedMetricSpace) and isinstance(b, TimedMetricSpace)
    ):
        raise TypeError(f"{kind.value} needs timed spaces")
    x1, x2 = _base_of(a), _base_of(b)
    anchor = None
    zeros = ([], [])
    if kind is DistanceKind.PT_GH:
        pair = tuple(basepoints) if isinstance(basepoints, Iterable) else ()
        if len(pair) != 2:
            raise InvalidBasepoint(f"pt-gh needs a basepoint pair, got {basepoints!r}")
        for p, x in zip(pair, (x1, x2)):
            _check_index(p, x.n, "basepoint", InvalidBasepoint)
        anchor = (int(pair[0]), int(pair[1]))
        zeros = ([anchor[0]], [anchor[1]])
    elif kind in (DistanceKind.BB_GH, DistanceKind.FD_HH):
        # One structure report per side serves the class check and the
        # anchor or zero sets.
        reports = []
        for side, t in ((1, a), (2, b)):
            reports.append(structure_report(t, delta=tol))
            space_class = report_class(reports[-1], tol)
            if kind is DistanceKind.BB_GH and space_class is not SpaceClass.BIG_BANG:
                raise NotBigBang(side)
            if kind is DistanceKind.FD_HH and space_class is SpaceClass.GENERIC:
                raise NotFutureDeveloped(side)
        zeros = tuple(list(r.zero_set) for r in reports)
        if kind is DistanceKind.BB_GH:
            anchor = (zeros[0][0], zeros[1][0])
    elif kind not in (DistanceKind.GH, DistanceKind.KAPPA_GH, DistanceKind.TAU_H):
        raise ValueError(f"unknown distance kind {kind!r}")
    n2 = x2.n
    rows, cols = np.repeat(np.arange(x1.n), n2), np.tile(np.arange(n2), x1.n)
    # C[id, a', b'] is also the distortion of the pairs id and a' * n2 + b'.
    # The distortion family scales it: gh is half the distortion, and each
    # glued cost equals it (see above).  Rounding is monotone, so the scaled
    # max is the max of the scaled entries, bit for bit.
    C = np.abs(x1.d[rows][:, :, None] - x2.d[cols][:, None, :])
    rho = (np.abs(a.tau[:, None] - b.tau[None, :]) if kind is DistanceKind.TAU_H
           else np.zeros((x1.n, n2)))
    rho_family = kind in (DistanceKind.KAPPA_GH, DistanceKind.TAU_H)
    scale = 0.5 if kind is DistanceKind.GH else 1.0

    C_flat = C.reshape(-1)

    def costs(ids):
        if not rho_family:
            # The max of C over the pairs of slots i < j of each row (see
            # the module docstring); a row of one id reads none and costs 0.
            i, j = _pair_slots(ids.shape[1])
            idx = ids[:, i]
            idx *= len(C)
            idx += ids[:, j]
            return C_flat[idx].max(axis=1, initial=0.0) * scale
        table = np.maximum(rho, C[ids[:, 0]])
        for j in range(1, ids.shape[1]):
            np.maximum(table, C[ids[:, j]], out=table)
        return _maxmin(table)

    def move_costs(cur, slot, new):
        # before[s] is rho joined with the tables of the first s ids of cur,
        # after[s] with those of the ids past slot s: together, the table of
        # cur without slot s.
        before = np.maximum.accumulate(np.concatenate((rho[None], C[cur[:-1]])))
        after = np.maximum.accumulate(np.concatenate((rho[None], C[cur[:0:-1]])))[::-1]
        without = np.maximum(before, after)
        if rho_family:
            return _maxmin(np.maximum(without[slot], C[new]))
        # M[s, j] is the distortion between slot j and the rest of cur without
        # slot s; slot s itself is out.  C is symmetric in its two pairs, so
        # without[s] read at new is the distortion between new and that rest.
        flat = without.reshape(len(cur), -1)
        M = flat[:, cur]
        np.fill_diagonal(M, 0.0)
        return np.maximum(M.max(axis=1)[slot], flat[slot, new]) * scale

    # A scan holds a required set and then a path outside it, so every pair
    # id at most once: a prefix is at most len(C) ids deep.
    if rho_family:

        def prefix():
            # tables[k] is the rho table of the prefix's first k ids; kids[k]
            # holds children of that prefix, built at once for the ids from
            # the first asked for to the end of its row: (first id, their
            # tables, their bounds).  A walk asks for a prefix's children in
            # increasing order, so one batch serves a row of siblings.
            tables, kids = [rho] + [None] * len(C), [None] * (len(C) + 1)

            def extend(p, ids):
                k = len(ids)
                batch = kids[k]
                if batch is None or not batch[0] <= p < batch[0] + len(batch[2]):
                    stack = np.maximum(tables[k], C[p : (p // n2 + 1) * n2])
                    batch = kids[k] = (p, stack, _maxmin(stack).tolist())
                first, stack, bounds = batch
                tables[k + 1], kids[k + 1] = stack[p - first], None
                return bounds[p - first]

            return extend
    else:

        def prefix():
            dis = (C.reshape(len(C), -1) * scale).tolist()
            # running[k] is the distortion of the prefix's first k ids.
            running = [0.0] * (len(dis) + 1)

            def extend(p, ids):
                k = len(ids)
                d = running[k + 1] = max(running[k], max(map(dis[p].__getitem__, ids), default=0.0))
                return d

            return extend

    return _Objective(
        kind=kind,
        n1=x1.n,
        n2=n2,
        costs=costs,
        move_costs=move_costs,
        prefix=prefix,
        zeros=zeros,
        required=_required(n2, zeros),
        floor=simple_lower_bounds(kind, a, b),
        anchor=anchor,
    )


def _scan(obj: _Objective, total: int, budget: int):
    """The least cost among the first `budget` candidates of a set-major
    stream of `total`, and the first candidate in the stream attaining it.

    A cut stream, or one of at most BLOCK, is scored in blocks: first the
    stream's cached head (``_stream_table``) up to the count, then, for a cut
    past BLOCK, the rest generated in blocks of BLOCK.  Each block keeps its
    first least row, less its padding.  A longer stream that fits the budget
    is walked once per required set, bounded and then held by the
    enumerator; `admit` only compares the bound of the ids held plus the one
    asked for with the best, and a leaf scores its last pair's bound.
    """
    best, best_ids = math.inf, None
    n1, n2, zeros = obj.n1, obj.n2, obj.zeros
    if total <= BLOCK or total > budget:
        count = min(total, budget)
        blocks = [_stream_table(n1, n2, tuple(map(tuple, zeros)))[:count]]
        if count > BLOCK:
            rest = islice(_stream(n1, n2, zeros, obj.required), BLOCK, count)
            blocks = chain(blocks, map(_padded, iter(lambda: list(islice(rest, BLOCK)), [])))

        def first_least(table):
            values = obj.costs(table)
            i = values.argmin()
            # A candidate's ids are distinct, so dropping repeats drops the padding.
            return values[i], tuple(dict.fromkeys(table[i].tolist()))

        found = map(first_least, blocks)
    else:
        extend = obj.prefix()
        last = math.inf  # the bound of the id asked for last

        def admit(p, ids):
            nonlocal last
            last = extend(p, ids)
            return last < best

        def walk(extra):
            nonlocal last
            for k in range(len(extra)):
                last = extend(extra[k], extra[:k])
            for cand in _minimal_id_tuples(n1, n2, admit, zeros, extra):
                # A leaf comes right after its last id is admitted, and its
                # prefix holds every id of its candidate: the bound of that
                # id is the candidate's cost.
                yield last, cand

        found = chain.from_iterable(map(walk, obj.required))
    for value, cand in found:
        if value < best:
            best, best_ids = value, cand
    return best, best_ids


def _result(obj: _Objective, value, ids, explored, complete, exhausted=False) -> DistanceResult:
    """Assemble the certified interval for the best candidate found, given
    by its id tuple.  Only a complete scan certifies its least cost
    (exact kinds) or half of it (the 2-approximations); otherwise the simple
    bounds alone certify lower."""
    upper = math.inf if ids is None else float(value)
    if complete:
        lower = upper if obj.exact else min(max(obj.floor, upper / 2.0), upper)
    else:
        lower = min(obj.floor, upper)
    cert = zero_pairs = None
    if ids is not None:
        pairs = tuple(divmod(p, obj.n2) for p in sorted(ids))
        cert = Correspondence(n1=obj.n1, n2=obj.n2, pairs=pairs, minimal=pairs_are_minimal(pairs))
        if obj.kind is DistanceKind.FD_HH:
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
    candidate stream, ties going to the first candidate in the stream,
    counting evaluations against the budget.  `tol` is the classification
    tolerance of bb-gh and fd-hh, a finite real >= 0 for every kind;
    `basepoints` is the pt-gh basepoint pair."""
    _check_count(budget, "budget", 1)
    obj = _objective(kind, a, b, tol, basepoints)
    c1, c2 = (len(z) for z in obj.zeros)
    total = len(obj.required) * _covers(obj.n1 - c1, c1, obj.n2 - c2, c2)
    value, ids = _scan(obj, total, budget)
    complete = total <= budget
    return _result(obj, value, ids, min(total, budget), complete, not complete)


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
    _check_sizes(corr, a, b, "certificate")
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


def _neighbours(cur: np.ndarray, n1: int, n2: int, z1: np.ndarray,
                z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every relation one local move away from the covering relation `cur`
    (its sorted pair ids) that may cost less: drop a pair, or move one
    endpoint of a pair, keeping both point sets and both zero sets (masks
    z1, z2) covered.  Adding a pair never lowers a cost, so no add is built.

    Returns `(slot, new)`: neighbour m is `cur` with the id at slot[m] taken
    out and new[m] put in.  A swap's new id replaces the id it moves; a
    drop's is another id of `cur`, already held.
    """
    r, c = np.divmod(cur, n2)
    held = np.zeros(n1 * n2, dtype=bool)
    held[cur] = True
    inside = z1[r] & z2[c]
    # Whether point r (c) stays covered, and stays covered inside the zero
    # sets, once the pair at each slot is taken away.
    row_kept = np.bincount(r, minlength=n1)[r] >= 2
    col_kept = np.bincount(c, minlength=n2)[c] >= 2
    zrow_kept = ~inside | (np.bincount(r[inside], minlength=n1)[r] >= 2)
    zcol_kept = ~inside | (np.bincount(c[inside], minlength=n2)[c] >= 2)

    drops = np.flatnonzero(row_kept & col_kept & zrow_kept & zcol_kept)
    # A swap along row r re-covers r, and re-covers it inside the zero sets
    # when the new column is a zero point; likewise along column c.
    along_row = r[:, None] * n2 + np.arange(n2)
    rs, rq = np.nonzero((col_kept & zcol_kept)[:, None] & ~held[along_row]
                        & (zrow_kept[:, None] | z2))
    along_col = np.arange(n1) * n2 + c[:, None]
    cs, cq = np.nonzero((row_kept & zrow_kept)[:, None] & ~held[along_col]
                        & (zcol_kept[:, None] | z1))
    slot = np.concatenate((drops, rs, cs))
    new = np.concatenate((np.where(drops == 0, cur[-1], cur[0]), along_row[rs, rq], along_col[cs, cq]))
    return slot, new


def local_search_upper(
    kind: DistanceKind,
    a,
    b,
    seed: int,
    iterations: int = 200,
    basepoints: tuple[int, int] | None = None,
    tol: float = DEFAULT_TOL,
) -> DistanceResult:
    """Greedy descent over correspondences; a certified upper bound, never exact.

    Starts from the modular diagonal pairing (the identity when the spaces
    share a size) plus seeded random restarts; moves drop a droppable pair
    or swap one endpoint (an added pair never lowers a cost).  Each step
    scores every neighbour at once and moves to the lexicographically
    smallest relation of least cost, while that cost improves.  Deterministic for a given seed.
    Inputs are checked as the exact driver of the same kind checks them;
    `basepoints` is the pt-gh basepoint pair and `tol` the classification
    tolerance of bb-gh and fd-hh.
    """
    _check_count(seed, "seed", 0)
    _check_count(iterations, "iterations", 0)
    obj = _objective(kind, a, b, tol, basepoints)
    n1, n2 = obj.n1, obj.n2
    z1, z2 = obj.zeros
    in_z1, in_z2 = np.zeros(n1, dtype=bool), np.zeros(n2, dtype=bool)
    in_z1[z1] = in_z2[z2] = True
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), n1, n2]))

    def start(pairs):
        """Relate each zero point not yet related inside the zero sets to the
        first zero point of the other side."""
        inside = [(p, q) for p, q in pairs if p in z1 and q in z2]
        pairs |= {(p, z2[0]) for p in set(z1) - {p for p, _ in inside}}
        pairs |= {(z1[0], q) for q in set(z2) - {q for _, q in inside}}
        return pairs

    best_value = math.inf
    best_ids = None
    explored = 0
    starts = [start({(i, i % n2) for i in range(n1)} | {(j % n1, j) for j in range(n2)})]
    for _ in range(3):
        rows = {(i, int(rng.integers(n2))) for i in range(n1)}
        starts.append(start(rows | {(int(rng.integers(n1)), j) for j in range(n2)}))
    for current in starts:
        key = tuple(sorted(p * n2 + q for p, q in current))
        cur = np.array(key, dtype=np.intp)
        value = obj.costs(cur[None])[0]
        explored += 1
        for _ in range(iterations):
            slot, new = _neighbours(cur, n1, n2, in_z1, in_z2)
            if not len(slot):
                break
            explored += len(slot)
            values = obj.move_costs(cur, slot, new)
            low = values.min()
            if low >= value:
                break
            tied = values == low
            key = min(tuple(sorted(set(key) - {key[s]} | {p}))
                      for s, p in zip(slot[tied].tolist(), new[tied].tolist()))
            cur, value = np.array(key, dtype=np.intp), low
        if value < best_value or (value == best_value and key < best_ids):
            best_value, best_ids = value, key

    return _result(obj, best_value, best_ids, explored, complete=False)


def require_exact(result: DistanceResult) -> DistanceResult:
    """Raise BudgetTooSmall unless the result is exact."""
    if not result.is_exact:
        raise BudgetTooSmall(
            f"{result.kind.value} search explored {result.explored} correspondences "
            "without certifying exactness"
        )
    return result
