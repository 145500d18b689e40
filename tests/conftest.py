"""Shared helpers: independent brute-force oracles used to pin engine values.

Everything here is written against plain Python floats and exhaustive
enumeration so it cannot share a bug with the package's vectorized search
paths.  Only usable at very small sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

import tml


def all_covering_pairsets(n1: int, n2: int):
    """Every subset of the n1 x n2 grid with full projections to both sides."""
    cells = [(a, b) for a in range(n1) for b in range(n2)]
    full1, full2 = set(range(n1)), set(range(n2))
    for mask in range(1, 1 << len(cells)):
        pairs = tuple(c for k, c in enumerate(cells) if mask >> k & 1)
        if {a for a, _ in pairs} == full1 and {b for _, b in pairs} == full2:
            yield pairs


def oracle_distortion(pairs, d1, d2) -> float:
    return max(
        abs(float(d1[a, a2]) - float(d2[b, b2]))
        for a, b in pairs
        for a2, b2 in pairs
    )


def oracle_hausdorff_cost(pairs, d1, d2, tau1=None, tau2=None) -> float:
    n1, n2 = d1.shape[0], d2.shape[0]

    def rho(x, y):
        gap = max(abs(float(d1[a, x]) - float(d2[b, y])) for a, b in pairs)
        if tau1 is not None:
            gap = max(gap, abs(float(tau1[x]) - float(tau2[y])))
        return gap

    left = max(min(rho(x, y) for y in range(n2)) for x in range(n1))
    right = max(min(rho(x, y) for x in range(n1)) for y in range(n2))
    return max(left, right)


def brute_gh(x1, x2) -> float:
    return min(
        oracle_distortion(p, x1.d, x2.d) for p in all_covering_pairsets(x1.n, x2.n)
    ) / 2.0


def brute_kappa(x1, x2) -> float:
    return min(
        oracle_hausdorff_cost(p, x1.d, x2.d)
        for p in all_covering_pairsets(x1.n, x2.n)
    )


def brute_tau_h(t1, t2) -> float:
    return min(
        oracle_hausdorff_cost(p, t1.d, t2.d, t1.tau, t2.tau)
        for p in all_covering_pairsets(t1.n, t2.n)
    )


def oracle_cross(pairs, d1, d2, delta):
    """Glued cross-distance table, grouped exactly like the package computes it."""
    n1, n2 = d1.shape[0], d2.shape[0]
    return [
        [
            min(float(d1[x, a]) + float(d2[b, y]) for a, b in pairs) + delta
            for y in range(n2)
        ]
        for x in range(n1)
    ]


def _subset_hausdorff(cross, rows, cols) -> float:
    left = max(min(cross[x][y] for y in cols) for x in rows)
    right = max(min(cross[x][y] for x in rows) for y in cols)
    return max(left, right)


def oracle_pointed_objective(pairs, d1, p1, d2, p2) -> float:
    delta = oracle_distortion(pairs, d1, d2) / 2.0
    cross = oracle_cross(pairs, d1, d2, delta)
    n1, n2 = d1.shape[0], d2.shape[0]
    return _subset_hausdorff(cross, range(n1), range(n2)) + cross[p1][p2]


def brute_pointed(x1, p1, x2, p2) -> float:
    best = None
    for pairs in all_covering_pairsets(x1.n, x2.n):
        if (p1, p2) not in pairs:
            continue
        value = oracle_pointed_objective(pairs, x1.d, p1, x2.d, p2)
        if best is None or value < best:
            best = value
    return best


def oracle_fd_objective(pairs, t1, t2, zeros1, zeros2) -> float:
    delta = oracle_distortion(pairs, t1.d, t2.d) / 2.0
    cross = oracle_cross(pairs, t1.d, t2.d, delta)
    full = _subset_hausdorff(cross, range(t1.n), range(t2.n))
    return full + _subset_hausdorff(cross, zeros1, zeros2)


def brute_fd(t1, t2) -> float:
    zeros1 = [i for i in range(t1.n) if t1.tau[i] <= tml.DEFAULT_TOL]
    zeros2 = [j for j in range(t2.n) if t2.tau[j] <= tml.DEFAULT_TOL]
    best = None
    for pairs in all_covering_pairsets(t1.n, t2.n):
        restricted = [(a, b) for a, b in pairs if a in zeros1 and b in zeros2]
        if {a for a, _ in restricted} != set(zeros1):
            continue
        if {b for _, b in restricted} != set(zeros2):
            continue
        value = oracle_fd_objective(pairs, t1, t2, zeros1, zeros2)
        if best is None or value < best:
            best = value
    return best


def in_family(pairs, n1: int, n2: int, zeros1, zeros2) -> bool:
    """Full projections onto both point sets, and the pairs inside
    zeros1 x zeros2 project onto both zero sets."""
    if {a for a, _ in pairs} != set(range(n1)) or {b for _, b in pairs} != set(range(n2)):
        return False
    inside = [(a, b) for a, b in pairs if a in zeros1 and b in zeros2]
    return {a for a, _ in inside} == set(zeros1) and {b for _, b in inside} == set(zeros2)


def family_stream(n1: int, n2: int, zeros1=(), zeros2=()):
    """The candidate stream of a kind whose candidates cover the zero sets
    (none for gh, kappa-gh and tau-h; the anchor as two one-point sets for
    pt-gh and bb-gh) as (set, rest) pairs of sorted pair tuples.  Built from
    the joined stream, every minimal correspondence joined with every minimal
    correspondence between the zero sets: the joins from which no pair can
    go, each once, ordered by (set, rest)."""
    sets = [()]
    if zeros1:
        sets = [
            tuple((zeros1[i], zeros2[j]) for i, j in c.pairs)
            for c in tml.minimal_correspondences(len(zeros1), len(zeros2))
        ]
    minimal = [c.pairs for c in tml.minimal_correspondences(n1, n2)]
    found = set()
    for k, extra in enumerate(sets):
        for pairs in minimal:
            joined = set(pairs) | set(extra)
            if not any(in_family(joined - {p}, n1, n2, zeros1, zeros2) for p in joined):
                found.add((k, tuple(sorted(joined - set(extra)))))
    return [(sets[k], rest) for k, rest in sorted(found)]


# The recursive enumerator the engine's one-loop `_minimal_id_tuples`
# replaced, kept verbatim as the reference it must agree with: the same
# stream and the same asks on the same ids, except the last-row ids that
# cannot end in a leaf, which only this one asks for.  It tracks the ids it
# holds through `admit(p)` and `retract()`; the one-loop enumerator hands
# them to its one hook.


def recursive_id_tuples(n1: int, n2: int, admit=None, retract=None, covered=((), ())):
    """Yield every minimal cover of the points outside `covered` (rows,
    columns) with no pair between two covered points exactly once, as the
    sorted tuple of its pair ids (a * n2 + b for pair (a, b)).  Ids order as
    pairs do.  With nothing covered these are the minimal correspondences.

    Rows are processed in order; each row picks a column set in one loop over
    its columns, recursing into each column it takes and ending the row after
    the loop, so a set's extensions come before the set itself and complete
    relations appear in lexicographic order of their sorted pair tuples.
    Every pair needs an uncovered endpoint of degree one: the star shape
    minimality demands.  A row takes one column, or two or more it owns
    (frozen for everyone else).  A covered row starts out holding a column
    of its own, so it owns what it takes and may take nothing; a covered
    column starts at degree one.  The last row must take every column still
    uncovered, returning at the first it would leave.

    The ids taken so far are kept in the list `prefix`.  A scan prunes
    through `admit(p)`: called before id p joins the prefix, it may refuse
    the whole subtree below; `retract()` follows every admitted id when the
    recursion backs out of it.  A nonempty tuple is yielded right after its
    last id is admitted: every id asked for after it is an uncovered column
    that the tuple leaves uncovered.
    """
    # Row r picks into heads[r], left as found by each visit.  A covered row
    # starts out holding column n2 + r, which no other row sees: degree zero.
    heads = [[n2 + r] if r in covered[0] else [] for r in range(n1)]
    col_deg = [int(c in covered[1]) for c in range(n2)] + [0] * n1
    frozen = [False] * (n2 + n1)
    prefix = []

    def row(r: int, start: int, chosen: list[int]):
        last = r == n1 - 1
        base = r * n2
        for c in range(start, n2):
            takeable = col_deg[c] == 0 and col_deg[chosen[0]] == 0 if chosen else not frozen[c]
            if takeable and (admit is None or admit(base + c)):
                chosen.append(c)
                prefix.append(base + c)
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
        yield from row(r + 1, 0, heads[r + 1])
        for j in chosen:
            col_deg[j] -= 1
            frozen[j] = False

    if n1 >= 1 and n2 >= 1:
        yield from row(0, 0, heads[0])


def tau_value_hausdorff(t1, t2) -> float:
    """Hausdorff distance between the two sets of time values on the line."""
    a = [float(v) for v in t1.tau]
    b = [float(v) for v in t2.tau]
    left = max(min(abs(x - y) for y in b) for x in a)
    right = max(min(abs(x - y) for x in a) for y in b)
    return max(left, right)


# The exact driver of each kind, called as a user calls it on two timed
# spaces: untimed kinds on the base spaces, pt-gh with a basepoint pair `bp`.
DRIVERS = {
    tml.DistanceKind.GH: lambda a, b, bp: tml.gh_distance(a.base, b.base),
    tml.DistanceKind.KAPPA_GH: lambda a, b, bp: tml.kappa_gh_distance(a.base, b.base),
    tml.DistanceKind.TAU_H: lambda a, b, bp: tml.tau_h_distance(a, b),
    tml.DistanceKind.PT_GH: lambda a, b, bp: tml.pointed_gh(a.base, bp[0], b.base, bp[1]),
    tml.DistanceKind.BB_GH: lambda a, b, bp: tml.bb_gh(a, b),
    tml.DistanceKind.FD_HH: lambda a, b, bp: tml.fd_hh(a, b),
}


@pytest.fixture
def path3():
    """Three points on a line at 0, 1, 2."""
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return tml.build_metric_space(("a", "b", "c"), d)


@pytest.fixture
def worked_bb_pair():
    """Unit segment timed from one end, against the one-point space."""
    two = tml.build_metric_space(("p", "x"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    one = tml.build_metric_space(("q",), np.zeros((1, 1)))
    return (
        tml.build_timed_space(two, np.array([0.0, 1.0])),
        tml.build_timed_space(one, np.zeros(1)),
    )
