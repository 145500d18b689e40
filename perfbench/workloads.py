"""The benchmark's workloads: inputs made from a seed, one round of operations,
and checks of the outputs against the benchmark's own computations or against
properties the methods must have.

Every operation is one call into tml's public modules.  Calls go through the
module attribute (``engine.gh_distance``), so the traced run's wrappers see
them.  Each round repeats the same operations on the same inputs.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import tml.constructions as constructions
import tml.engine as engine
import tml.errors as errors
import tml.harness as harness
import tml.io as tmlio
import tml.spaces as spaces

Kind = engine.DistanceKind
EXACT_KINDS = (Kind.GH, Kind.KAPPA_GH, Kind.TAU_H)
SIX_KINDS = EXACT_KINDS + (Kind.PT_GH, Kind.BB_GH, Kind.FD_HH)
REL_TOL = 1e-12  # glued-kind certificates and closed forms
ORDER_TOL = 1e-9  # inequalities between kinds, at the spaces' validation tolerance


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    pair: int | None = None
    kind: Any = None
    known_fault: str | None = None  # a program fault that makes this op fail every time


@dataclass
class OpError:
    """An operation that raised; it counts as failed."""

    error: str

    @classmethod
    def of(cls, err: BaseException) -> "OpError":
        return cls(f"{type(err).__name__}: {err}")


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)  # wrong outputs: correct becomes false
    failed: dict[int, str] = field(default_factory=dict)  # op index -> why it failed
    ratios: list[float] = field(default_factory=list)  # lower/upper of each checked interval

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def child_seed(*keys: int) -> int:
    """A generator seed derived from the run's seed and a slot's keys."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1, np.uint64)[0] >> 2)


def ratio(lower: float, upper: float) -> float:
    """lower/upper of a certified interval; a zero-width interval at 0 counts 1."""
    return 1.0 if upper == 0.0 else lower / upper


def round_trip(space, path: Path):
    """Write a space with tml.io and read it back, as a user's input file."""
    tmlio.write_space(space, path)
    return tmlio.read_space(path)


def cone_pair(seed: int, n1: int, n2: int, workdir: Path, tag: str, scale: float = 1.0):
    """Two big bang spaces: a Euclidean cloud and a graph metric with its
    distances multiplied by `scale`, each timed by the distance from a seeded
    point, written and read back."""
    x1 = constructions.random_metric_space(seed, n1, model="euclidean")
    x2 = constructions.random_metric_space(seed + 1, n2, model="graph")
    if scale != 1.0:
        x2 = spaces.build_metric_space(x2.labels, x2.d * scale)
    t1 = constructions.random_time_function(seed, x1, model="cone")
    t2 = constructions.random_time_function(seed + 1, x2, model="cone")
    return round_trip(t1, workdir / f"{tag}a.json"), round_trip(t2, workdir / f"{tag}b.json")


# ---------------------------------------------------------------------------
# The benchmark's own cost functions for a certificate (pairs of indices).


def maxmin(block: np.ndarray) -> float:
    return float(max(block.min(axis=1).max(), block.min(axis=0).max()))


def own_costs(kind, pairs, t1, t2, anchor=None) -> float:
    a = np.array([p for p, _ in pairs])
    b = np.array([q for _, q in pairs])
    d1, d2 = t1.d, t2.d
    dis = float(np.abs(d1[np.ix_(a, a)] - d2[np.ix_(b, b)]).max())
    if kind is Kind.GH:
        return dis / 2.0
    if kind in (Kind.KAPPA_GH, Kind.TAU_H):
        rho = np.abs(d1[a][:, :, None] - d2[b][:, None, :]).max(axis=0)
        if kind is Kind.TAU_H:
            rho = np.maximum(rho, np.abs(t1.tau[:, None] - t2.tau[None, :]))
        return maxmin(rho)
    cross = (d1[a][:, :, None] + d2[b][:, None, :]).min(axis=0) + dis / 2.0
    if kind in (Kind.PT_GH, Kind.BB_GH):
        return maxmin(cross) + float(cross[anchor])
    z1, z2 = zero_set(t1), zero_set(t2)
    return maxmin(cross) + maxmin(cross[np.ix_(z1, z2)])


def zero_set(t) -> list[int]:
    return [i for i in range(t.n) if t.tau[i] <= spaces.DEFAULT_TOL]


def sampled_costs(rng, t1, t2, count: int) -> dict:
    """gh, kappa-gh and tau-h costs of `count` random correspondences: each
    point of either side is related to one uniform point of the other."""
    n1, n2 = t1.n, t2.n
    rel = np.zeros((count, n1, n2), dtype=bool)
    m = np.arange(count)[:, None]
    rel[m, np.arange(n1)[None, :], rng.integers(n2, size=(count, n1))] = True
    rel[m, rng.integers(n1, size=(count, n2)), np.arange(n2)[None, :]] = True
    gap = np.abs(t1.d[:, None, :, None] - t2.d[None, :, None, :])  # [a, b, x, y]
    inside = np.where(rel[:, :, :, None, None], gap[None], -np.inf)
    rho = inside.max(axis=(1, 2))
    dis = np.where(rel[:, None, None, :, :], inside, -np.inf).max(axis=(1, 2, 3, 4))
    timed = np.maximum(rho, np.abs(t1.tau[:, None] - t2.tau[None, :])[None])

    def batch_maxmin(r):
        return np.maximum(r.min(axis=2).max(axis=1), r.min(axis=1).max(axis=1))

    return {Kind.GH: dis / 2.0, Kind.KAPPA_GH: batch_maxmin(rho), Kind.TAU_H: batch_maxmin(timed)}


def covers(pairs, n1: int, n2: int) -> bool:
    return {p for p, _ in pairs} == set(range(n1)) and {q for _, q in pairs} == set(range(n2))


def value_gap(t1, t2) -> float:
    """Hausdorff distance between the two sets of time values on the line."""
    return maxmin(np.abs(t1.tau[:, None] - t2.tau[None, :]))


def split_by_pair(ops, outputs, verdict) -> dict[int, dict]:
    """Group the outputs of ops that did not raise by pair, then kind."""
    by_pair: dict[int, dict] = defaultdict(dict)
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, OpError):
            verdict.failed[i] = out.error
        elif op.pair is not None:
            by_pair[op.pair].setdefault(op.kind, []).append((i, out))
    return by_pair


# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        """Generate the inputs, write them and read them back."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], outputs: list) -> Verdict:
        raise NotImplementedError

    def engine_sizes(self) -> tuple[list[tuple[int, int]], int | None]:
        """Sizes the engine enumerates at, and the count streamed per size."""
        return [], None


class ExactScan(Workload):
    """All six exact drivers on seeded pairs of 5 and 6 points.

    Three 5x5 pairs and one 5x6 pair give 24 operations.  Sorted by cost:
    gh, kappa-gh and tau-h at 5x5 (9 ops, 0.11-0.13 s), pt-gh and bb-gh at
    5x5 (6 ops, one code path, 0.17 s), fd-hh at 5x5 (3 ops, 0.21 s), then the
    six 5x6 scans (0.45-1 s).  The median, between the 12th and 13th op, is
    the centre of the six equal-cost pointed scans, with 25-30% cost gaps to
    either side, so noise does not carry it across a gap.
    """

    name = "exact-n56"

    def __init__(self, shapes=((5, 5),) * 3 + ((5, 6),), samples: int = 400):
        self.shapes = list(shapes)
        self.samples = samples

    def setup(self, seed, workdir):
        self.pairs = []
        self.seeds = []
        for slot, (n1, n2) in enumerate(self.shapes):
            s = child_seed(seed, 1, slot)
            t1, t2 = cone_pair(s, n1, n2, workdir, f"exact{slot}")
            anchor_rng = np.random.default_rng(s)
            anchor = (int(anchor_rng.integers(n1)), int(anchor_rng.integers(n2)))
            self.pairs.append((t1, t2, anchor))
            self.seeds.append(s)

    def ops(self):
        out = []
        for k, (t1, t2, (p1, p2)) in enumerate(self.pairs):
            tag = f"{t1.n}x{t2.n} #{k}"
            out += [
                Op(f"gh {tag}", lambda t1=t1, t2=t2: engine.gh_distance(t1.base, t2.base), k, Kind.GH),
                Op(f"kappa-gh {tag}", lambda t1=t1, t2=t2: engine.kappa_gh_distance(t1.base, t2.base),
                   k, Kind.KAPPA_GH),
                Op(f"tau-h {tag}", lambda t1=t1, t2=t2: engine.tau_h_distance(t1, t2), k, Kind.TAU_H),
                Op(f"pt-gh {tag}", lambda t1=t1, t2=t2, p1=p1, p2=p2:
                   engine.pointed_gh(t1.base, p1, t2.base, p2), k, Kind.PT_GH),
                Op(f"bb-gh {tag}", lambda t1=t1, t2=t2: engine.bb_gh(t1, t2), k, Kind.BB_GH),
                Op(f"fd-hh {tag}", lambda t1=t1, t2=t2: engine.fd_hh(t1, t2), k, Kind.FD_HH),
            ]
        return out

    def check(self, ops, outputs):
        v = Verdict()
        for k, results in split_by_pair(ops, outputs, v).items():
            t1, t2, _ = self.pairs[k]
            got = {kind: r for kind, [(_, r)] in results.items()}
            where = f"pair #{k} ({t1.n}x{t2.n})"
            for kind, r in got.items():
                v.ratios.append(ratio(r.lower, r.upper))
                pairs = r.certificate.pairs
                v.expect(covers(pairs, t1.n, t2.n), f"{where} {kind.value}: certificate misses points")
                v.expect(not r.budget_exhausted and r.lower <= r.upper,
                         f"{where} {kind.value}: incomplete scan [{r.lower}, {r.upper}]")
                own = own_costs(kind, pairs, t1, t2, r.anchor)
                if kind in EXACT_KINDS:
                    v.expect(r.is_exact and own == r.upper,
                             f"{where} {kind.value}: certificate costs {own!r}, upper is {r.upper!r}")
                else:
                    v.expect(abs(own - r.upper) <= REL_TOL * max(1.0, r.upper),
                             f"{where} {kind.value}: certificate costs {own!r}, upper is {r.upper!r}")
            if not all(kind in got for kind in SIX_KINDS):
                continue
            gh, kappa, tau = (got[k_].upper for k_ in EXACT_KINDS)
            rng = np.random.default_rng(self.seeds[k])
            for kind, costs in sampled_costs(rng, t1, t2, self.samples).items():
                v.expect(float(costs.min()) >= got[kind].upper,
                         f"{where} {kind.value}: a sampled correspondence costs {costs.min()!r} "
                         f"< optimum {got[kind].upper!r}")
            v.expect(gh <= kappa + ORDER_TOL, f"{where}: gh {gh} > kappa-gh {kappa}")
            v.expect(kappa <= min(2.0 * gh, tau) + ORDER_TOL,
                     f"{where}: kappa-gh {kappa} > min(2 gh, tau-h) = {min(2.0 * gh, tau)}")
            v.expect(tau >= value_gap(t1, t2), f"{where}: tau-h {tau} below the time-value gap")
            for kind in (Kind.BB_GH, Kind.FD_HH):
                v.expect(tau <= 2.0 * got[kind].upper + ORDER_TOL,
                         f"{where}: tau-h {tau} > 2 * {kind.value} upper {got[kind].upper}")
        return v

    def engine_sizes(self):
        return sorted(set(self.shapes)), None


class BoundedSearch(Workload):
    """Pairs of 8 to 12 points, past exact range.

    Every pair gets gh, kappa-gh and tau-h scans cut off at a fixed
    correspondence budget; the first few pairs also get local_search_upper for
    gh, kappa-gh, tau-h, pt-gh and bb-gh.  fd-hh local search runs on fixed
    inputs: its certificate cannot be re-evaluated (see known_fault).  The many
    budget scans (about 10 ms each) hold the median; the local searches cost
    10 times more.

    The graph side of each pair is scaled by 2, so the pairs differ in scale
    as well as shape.  At one scale the diameter-gap lower bound is the
    difference of two similar random diameters, and the mean lower/upper of a
    run spread by 7-16% between seeds even over 192 pairs; scaled, 128 pairs
    spread by 3%.
    """

    name = "bounded-n10"
    SHAPES = ((8, 8), (9, 11), (10, 10), (12, 8), (11, 12), (8, 10), (12, 12), (10, 9))
    FD_FAULT = ("local_search_upper returns zero_pairs=None for fd-hh, so reevaluate "
                "raises TypeError on its certificate")

    SCALE = 2.0

    def __init__(self, pairs: int = 128, budget: int = 150, searched: int = 6,
                 fd_pairs: int = 2, iterations: int = 2):
        self.n_pairs = pairs
        self.budget = budget
        self.searched = searched
        self.n_fd = fd_pairs
        self.iterations = iterations

    def setup(self, seed, workdir):
        self.pairs = []
        for slot in range(self.n_pairs):
            n1, n2 = self.SHAPES[slot % len(self.SHAPES)]
            s = child_seed(seed, 2, slot)
            t1, t2 = cone_pair(s, n1, n2, workdir, f"bounded{slot}", self.SCALE)
            anchor_rng = np.random.default_rng(s)
            self.pairs.append((t1, t2, (int(anchor_rng.integers(n1)), int(anchor_rng.integers(n2))), s))
        # The failing fd-hh searches use inputs that do not depend on the run's seed.
        for slot in range(self.n_fd):
            n1, n2 = self.SHAPES[slot]
            s = child_seed(0, 2, 1000 + slot)
            t1, t2 = cone_pair(s, n1, n2, workdir, f"fd{slot}", self.SCALE)
            self.pairs.append((t1, t2, None, s))

    def ops(self):
        out = []
        b = self.budget
        for k, (t1, t2, anchor, s) in enumerate(self.pairs[: self.n_pairs]):
            tag = f"{t1.n}x{t2.n} #{k}"
            out += [
                Op(f"gh budget {tag}", lambda t1=t1, t2=t2: engine.gh_distance(t1.base, t2.base, budget=b),
                   k, Kind.GH),
                Op(f"kappa-gh budget {tag}",
                   lambda t1=t1, t2=t2: engine.kappa_gh_distance(t1.base, t2.base, budget=b), k, Kind.KAPPA_GH),
                Op(f"tau-h budget {tag}", lambda t1=t1, t2=t2: engine.tau_h_distance(t1, t2, budget=b),
                   k, Kind.TAU_H),
            ]
        it = self.iterations
        for k, (t1, t2, anchor, s) in enumerate(self.pairs[: self.searched]):
            tag = f"{t1.n}x{t2.n} #{k}"
            for kind in (Kind.GH, Kind.KAPPA_GH):
                out.append(Op(f"{kind.value} search {tag}", lambda t1=t1, t2=t2, kind=kind, s=s:
                              engine.local_search_upper(kind, t1.base, t2.base, seed=s, iterations=it), k, kind))
            for kind in (Kind.TAU_H, Kind.BB_GH):
                out.append(Op(f"{kind.value} search {tag}", lambda t1=t1, t2=t2, kind=kind, s=s:
                              engine.local_search_upper(kind, t1, t2, seed=s, iterations=it), k, kind))
            out.append(Op(f"pt-gh search {tag}", lambda t1=t1, t2=t2, anchor=anchor, s=s:
                          engine.local_search_upper(Kind.PT_GH, t1.base, t2.base, seed=s,
                                                    iterations=it, basepoints=anchor), k, Kind.PT_GH))
        for k in range(self.n_pairs, len(self.pairs)):
            t1, t2, _, s = self.pairs[k]
            out.append(Op(f"fd-hh search {t1.n}x{t2.n} fixed #{k - self.n_pairs}",
                          lambda t1=t1, t2=t2, s=s:
                          engine.local_search_upper(Kind.FD_HH, t1, t2, seed=s, iterations=it),
                          k, Kind.FD_HH, known_fault=self.FD_FAULT))
        return out

    def check(self, ops, outputs):
        v = Verdict()
        for k, results in split_by_pair(ops, outputs, v).items():
            t1, t2, anchor, _ = self.pairs[k]
            where = f"pair #{k} ({t1.n}x{t2.n})"
            lowers: dict = defaultdict(lambda: -math.inf)
            uppers: dict = defaultdict(lambda: math.inf)
            for kind, entries in results.items():
                for i, r in entries:
                    a, b = (t1, t2) if kind in (Kind.TAU_H, Kind.BB_GH, Kind.FD_HH) else (t1.base, t2.base)
                    try:
                        again = engine.reevaluate(r, a, b)
                    except Exception as err:  # the certificate cannot be checked: the op failed
                        v.failed[i] = f"reevaluate: {type(err).__name__}: {err}"
                        continue
                    if kind in EXACT_KINDS:
                        v.expect(again == r.upper, f"{where} {ops[i].label}: reevaluates to {again!r}, "
                                                   f"upper is {r.upper!r}")
                    else:
                        v.expect(abs(again - r.upper) <= REL_TOL * max(1.0, r.upper),
                                 f"{where} {ops[i].label}: reevaluates to {again!r}, upper is {r.upper!r}")
                    if "budget" in ops[i].label:
                        v.expect(r.explored == self.budget and r.budget_exhausted,
                                 f"{where} {ops[i].label}: explored {r.explored} of budget {self.budget}")
                    v.ratios.append(ratio(r.lower, r.upper))
                    lowers[kind] = max(lowers[kind], r.lower)
                    uppers[kind] = min(uppers[kind], r.upper)
            # gh <= kappa-gh <= tau-h <= 2 bb-gh: a certified lower of one kind
            # lies below every achievable upper of itself and of the kinds above it.
            chain = [(Kind.GH, 1.0), (Kind.KAPPA_GH, 1.0), (Kind.TAU_H, 1.0), (Kind.BB_GH, 2.0)]
            for lo in range(len(chain)):
                for hi in range(lo, len(chain)):
                    (kl, _), (ku, factor) = chain[lo], chain[hi]
                    v.expect(lowers[kl] <= factor * uppers[ku] + REL_TOL,
                             f"{where}: certified {kl.value} lower {lowers[kl]!r} exceeds "
                             f"{factor:g} x achievable {ku.value} upper {uppers[ku]!r}")
            v.expect(lowers[Kind.PT_GH] <= uppers[Kind.PT_GH],
                     f"{where}: pt-gh lower {lowers[Kind.PT_GH]!r} > upper {uppers[Kind.PT_GH]!r}")
        return v

    def engine_sizes(self):
        return sorted(set(self.SHAPES)), self.budget


class Campaign(Workload):
    """Every campaign suite at nmax 4, the three sequence families and their
    CSV and JSONL reports.

    Each suite runs as `chunks` calls of `trials` trials, each call with its own
    campaign seed, so the median falls among many similar small suite calls.
    The fd suite's campaign seeds are fixed: one of its trials costs up to
    a whole suite's worth when both zero sets have 3-4 points (fd_hh rescans
    every pair set once per zero-set correspondence), so its cost per seed
    spreads by 60%; with fixed seeds those heavy trials run in every run alike.
    """

    name = "campaign-all"
    ROWS_PER_TRIAL = {"sandwich": 1, "order": 1, "bb": 1, "fd": 1, "limits": 4,
                      "certificates": 5, "triangle-explore": 1}
    FAMILIES = (("perturb-geometric", 6), ("refine-bb-cone", 3), ("collapse-time", 6))
    RATE = 0.5

    def __init__(self, chunks: int = 16, trials: int = 10, fd_chunks: int = 8, base_n: int = 4):
        self.chunks = chunks
        self.trials = trials
        self.fd_chunks = fd_chunks
        self.base_n = base_n

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.configs = []
        for suite_id, suite in enumerate(harness.SUITES[:-1]):
            fixed = suite == "fd"
            for chunk in range(self.fd_chunks if fixed else self.chunks):
                s = child_seed(0 if fixed else seed, 3, suite_id, chunk)
                self.configs.append(harness.CampaignConfig(suite=suite, trials=self.trials, nmax=4, seed=s))
        s = child_seed(seed, 3, 100)
        x = constructions.random_metric_space(s, self.base_n, model="euclidean")
        base = round_trip(constructions.random_time_function(s, x, model="cone"), workdir / "base.json")
        self.specs = [constructions.SequenceSpec(family=f, base=base, length=length, rate=self.RATE, seed=s)
                      for f, length in self.FAMILIES]
        self.latest: dict[int, list] = {}

    def ops(self):
        out = []
        for k, cfg in enumerate(self.configs):
            out.append(Op(f"suite {cfg.suite} chunk {k}", lambda k=k, cfg=cfg: self._keep(k, harness.run_suite(cfg))))
        first_seq = len(out)
        for j, spec in enumerate(self.specs):
            out.append(Op(f"sequence {spec.family}", lambda k=first_seq + j, spec=spec:
                          self._keep(k, harness.run_sequence_experiment(spec))))
        suites = range(first_seq)
        sequences = range(first_seq, first_seq + len(self.specs))
        for what, keys in (("campaign", suites), ("sequence", sequences)):
            for fmt in ("csv", "jsonl"):
                path = self.workdir / f"{what}.{fmt}"
                out.append(Op(f"report {what} {fmt}", lambda keys=keys, path=path, fmt=fmt: self._write(keys, path, fmt)))
        return out

    def _keep(self, k, rows):
        self.latest[k] = rows
        return rows

    def _write(self, keys, path, fmt):
        tmlio.write_report([row.as_dict() for k in keys for row in self.latest[k]], path, fmt=fmt)
        return path

    def check(self, ops, outputs):
        v = Verdict()
        reports = {}
        rows_of = {"campaign": [], "sequence": []}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if isinstance(out, OpError):
                v.failed[i] = out.error
            elif op.label.startswith("suite"):
                cfg = self.configs[i]
                v.expect(len(out) == cfg.trials * self.ROWS_PER_TRIAL[cfg.suite]
                         and all(r.suite == cfg.suite for r in out),
                         f"{op.label}: {len(out)} rows for {cfg.trials} trials")
                bad = [r for r in out if not r.passed]
                v.expect(not bad, f"{op.label}: {len(bad)} failing rows, first {bad[:1]}")
                for r in out:
                    if r.suite in ("bb", "fd"):
                        d = json.loads(r.details)
                        v.ratios.append(ratio(d[f"{r.suite}_lower"], d[f"{r.suite}_upper"]))
                rows_of["campaign"].extend(out)
            elif op.label.startswith("sequence"):
                self._check_sequence(self.specs[i - len(self.configs)], out, v)
                rows_of["sequence"].extend(out)
            else:
                reports[op.label] = out
        for label, path in reports.items():
            what, fmt = label.split()[1:]
            self._check_report(path, fmt, [r.as_dict() for r in rows_of[what]], v)
        return v

    def _check_sequence(self, spec, rows, v):
        where = f"sequence {spec.family}"
        v.expect(len(rows) == spec.length and all(r.passed for r in rows),
                 f"{where}: {len(rows)} rows, passed {[r.passed for r in rows]}")
        span = 0.5 * max(spec.base.base.diameter, 1.0)
        for r in rows:
            v.ratios.append(ratio(r.gh_lower, r.gh_upper))
            if r.bb_gh_upper is not None:
                v.ratios.append(ratio(r.bb_gh_lower, r.bb_gh_upper))
            if spec.family == "refine-bb-cone":
                closed = spec.rate ** (r.j + 1) * span
            elif spec.family == "collapse-time":
                closed = spec.rate ** r.j * spec.base.tau_max
            else:
                continue
            v.expect(abs(r.tau_h - closed) <= REL_TOL,
                     f"{where} row {r.j}: tau-h {r.tau_h!r}, closed form {closed!r}")

    @staticmethod
    def _check_report(path, fmt, expected, v):
        text = Path(path).read_text(encoding="utf-8")
        if fmt == "jsonl":
            def reject(token):
                raise ValueError(f"non-strict JSON constant {token}")

            try:
                parsed = [json.loads(line, parse_constant=reject) for line in text.splitlines()]
            except ValueError as err:
                v.problems.append(f"{path.name}: {err}")
                return
            v.expect(parsed == expected, f"{path.name}: rows differ from the run's rows")
        else:
            parsed = list(csv.DictReader(text.splitlines()))
            v.expect(len(parsed) == len(expected) and (not parsed or list(parsed[0]) == list(expected[0])),
                     f"{path.name}: {len(parsed)} rows for {len(expected)}")

    def engine_sizes(self):
        return [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5)], None


class Validation(Workload):
    """read_space and classify on files of 50 to 150 points, and corrupted
    copies that must be rejected.

    One operation is what `tml classify FILE` does: read_space, then classify
    for a file that loads.  Sizes 50, 100, 100, 150 per time model, each file
    with one corrupted copy, give 16 operations: 4 at n=50, 8 at n=100 and 4 at
    n=150, so the median sits in the middle of the n=100 cluster.
    The tables come from the benchmark's own numpy code, so set-up does not
    depend on the validator under test.
    """

    name = "validate-n150"
    MODELS = (("cone", 2), ("set-cone", 3))  # time model, Euclidean dimension

    def __init__(self, sizes=(50, 100, 100, 150), zeros: int = 3):
        self.sizes = list(sizes)
        self.zeros = zeros

    def setup(self, seed, workdir):
        self.files = []
        for model_id, (model, dim) in enumerate(self.MODELS):
            for slot, n in enumerate(self.sizes):
                rng = np.random.default_rng(child_seed(seed, 4, model_id, slot))
                pts = rng.random((n, dim))
                d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
                sources = rng.choice(n, size=1 if model == "cone" else self.zeros, replace=False)
                tau = d[sources].min(axis=0)
                labels = [f"q{i}" for i in range(n)]
                path = workdir / f"valid-{model}-{slot}.json"
                self._write(path, labels, d, tau)
                self.files.append(dict(path=path, d=d, tau=tau, labels=labels, model=model, corrupt=None))
                # Raise one edge above its shortest two-step detour.
                i, k = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
                detour = d[i] + d[:, k]
                detour[[i, k]] = np.inf
                j = int(detour.argmin())
                bad = d.copy()
                bad[i, k] = bad[k, i] = detour[j] + 0.01
                path = workdir / f"corrupt-{model}-{slot}.json"
                self._write(path, labels, bad, tau)
                self.files.append(dict(path=path, d=bad, tau=tau, labels=labels, model=model, corrupt=(i, j, k)))

    @staticmethod
    def _write(path, labels, d, tau):
        payload = {"name": path.stem, "labels": labels, "d": d.tolist(), "tau": tau.tolist(),
                   "zero_set": [labels[i] for i in range(len(labels)) if tau[i] == 0.0]}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")

    def ops(self):
        out = []
        for f in self.files:
            kind = "corrupted" if f["corrupt"] else "valid"
            out.append(Op(f"classify {kind} {f['model']} n={len(f['labels'])}",
                          lambda path=f["path"]: self._classify_file(path)))
        return out

    @staticmethod
    def _classify_file(path):
        try:
            space = tmlio.read_space(path)
        except errors.ValidationError as err:
            return err
        return space, spaces.classify(space)

    def check(self, ops, outputs):
        v = Verdict()
        expected_class = {"cone": spaces.SpaceClass.BIG_BANG, "set-cone": spaces.SpaceClass.FUTURE_DEVELOPED}
        for i, (f, out) in enumerate(zip(self.files, outputs)):
            where = f["path"].name
            if isinstance(out, OpError):
                v.failed[i] = out.error
            elif f["corrupt"] is None:
                if isinstance(out, errors.ValidationError):
                    v.problems.append(f"{where}: valid file rejected: {out}")
                    continue
                space, cls = out
                same = (space.labels == tuple(f["labels"])
                        and space.d.tobytes() == f["d"].tobytes() and space.tau.tobytes() == f["tau"].tobytes())
                v.expect(same, f"{where}: values do not round-trip bit for bit")
                v.expect(cls is expected_class[f["model"]], f"{where}: classified {cls}, built as {f['model']}")
            else:
                i_, j, k = f["corrupt"]
                if not isinstance(out, errors.ValidationError):
                    v.problems.append(f"{where}: corrupted file accepted")
                    continue
                named = [(x.i, x.j, x.k) for x in out.violations if isinstance(x, errors.TriangleViolation)]
                v.expect((i_, j, k) in named, f"{where}: error does not name triple {(i_, j, k)}: {out}")
                v.expect(len(named) == len(out.violations)
                         and all((a, c) == (i_, k) for a, _, c in named),
                         f"{where}: violations off the raised edge {(i_, k)}: {out}")
        return v


WORKLOADS = {w.name: w for w in (ExactScan, BoundedSearch, Campaign, Validation)}
