"""Command line front end.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 assertion
failure.  argparse handles usage errors itself; an input file that cannot be
read maps to 2; everything the space validator rejects maps to 1; campaign
and sequence runs that complete but contain a failing check map to 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .constructions import (
    SEQUENCE_FAMILIES,
    SequenceSpec,
    random_metric_space,
    random_time_function,
)
from .engine import DEFAULT_BUDGET, TIMED_KINDS, DistanceKind, distance
from .errors import BudgetTooSmall, InvalidSpec, SchemaError, TmlError
from .harness import SUITES, CampaignConfig, run_sequence_experiment, run_suite
from .io import read_space, write_report, write_space
from .spaces import DEFAULT_TOL, TimedMetricSpace, classify, structure_report

_USAGE_ERRORS = (InvalidSpec, BudgetTooSmall, ValueError)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read(path):
    """`read_space`, with a file that cannot be read reported as a usage error."""
    try:
        return read_space(path)
    except OSError as err:
        raise InvalidSpec(f"{path}: {err.strerror or err}") from None


def _load_timed(path) -> TimedMetricSpace:
    space = _read(path)
    if not isinstance(space, TimedMetricSpace):
        raise SchemaError(f"{path}: this command needs a timed space ('tau' missing)")
    return space


# ---------------------------------------------------------------------------
# Subcommand bodies.


def _cmd_validate(args) -> int:
    space = _read(args.file)
    if isinstance(space, TimedMetricSpace):
        print(f"valid timed metric space with {space.n} point(s), class {classify(space).value}")
    else:
        print(f"valid metric space with {space.n} point(s)")
    return 0


def _cmd_classify(args) -> int:
    space = _read(args.file)
    if not isinstance(space, TimedMetricSpace):
        print("class: metric (no time function)")
        return 0
    space_class = classify(space, tol=args.tol)
    report = structure_report(space, delta=args.tol)
    print(f"class: {space_class.value}")
    names = ", ".join(space.labels[i] for i in report.zero_set)
    print(f"zero_set: [{names}]")
    print(f"zero_diam: {report.zero_diam}")
    print(f"fd_defect: {report.fd_defect}")
    print(f"bb_defect: {report.bb_defect}")
    print(f"min_tau: {report.min_tau}")
    return 0


def _index_of_label(space, label: str) -> int:
    if label not in space.labels:
        raise InvalidSpec(f"no point labeled {label!r}; labels: {', '.join(space.labels)}")
    return space.labels.index(label)


def _cmd_dist(args) -> int:
    a = _read(args.a)
    b = _read(args.b)
    kind = DistanceKind(args.kind)
    if kind in TIMED_KINDS:
        for path, space in ((args.a, a), (args.b, b)):
            if not isinstance(space, TimedMetricSpace):
                raise SchemaError(f"{path}: {kind.value} needs a timed space")
    basepoints = None
    if kind is DistanceKind.PT_GH:
        if args.p1 is None or args.p2 is None:
            raise InvalidSpec("pt-gh needs --p1 and --p2 basepoint labels")
        basepoints = (_index_of_label(a, args.p1), _index_of_label(b, args.p2))
    result = distance(kind, a, b, budget=args.budget, tol=args.tol, basepoints=basepoints)

    pairs = list(result.certificate.pairs) if result.certificate else []
    named = [[a.labels[i], b.labels[j]] for i, j in pairs]
    if args.json:
        payload = {
            "kind": kind.value,
            "lower": result.lower,
            "upper": result.upper,
            "exact": result.is_exact,
            "certificate": named,
            "explored": result.explored,
            "budget_exhausted": result.budget_exhausted,
        }
        if result.anchor is not None:
            payload["anchor"] = [a.labels[result.anchor[0]], b.labels[result.anchor[1]]]
        if result.zero_pairs is not None:
            payload["zero_pairs"] = [[a.labels[i], b.labels[j]] for i, j in result.zero_pairs]
        print(json.dumps(payload))
    else:
        print(f"kind: {kind.value}")
        print(f"lower: {result.lower}")
        print(f"upper: {result.upper}")
        print(f"exact: {'true' if result.is_exact else 'false'}")
        print("certificate: " + "; ".join(f"{x}<->{y}" for x, y in named))
        if result.anchor is not None:
            print(f"anchor: {a.labels[result.anchor[0]]}<->{b.labels[result.anchor[1]]}")
        if result.budget_exhausted:
            print(f"note: enumeration budget hit after {result.explored} correspondences")
    return 0


def _cmd_gen(args) -> int:
    space = random_metric_space(args.seed, args.n, model=args.model, dim=args.dim)
    name = f"{args.model}-n{args.n}-s{args.seed}"
    if args.time == "none":
        write_space(space, args.output, name=name)
    else:
        timed = random_time_function(
            args.seed, space, model=args.time,
            subset_size=args.subset_size, anchors=args.anchors,
        )
        write_space(timed, args.output, name=f"{name}-{args.time}")
    print(f"wrote {args.output}")
    return 0


def _report(rows, args, title: str, describe) -> int:
    """Write the rows, print the tally and each failing row (`describe` names
    it); exit 3 when any row failed."""
    write_report([r.as_dict() for r in rows], args.out, fmt=args.format)
    failed = [r for r in rows if not r.passed]
    print(f"{title}: {len(rows)} rows, {len(rows) - len(failed)} passed, {len(failed)} failed")
    print(f"wrote {args.out}")
    for row in failed:
        print(f"FAIL {describe(row)} details={row.details}", file=sys.stderr)
    return 3 if failed else 0


def _cmd_campaign(args) -> int:
    cfg = CampaignConfig(suite=args.suite, trials=args.trials, nmax=args.nmax, seed=args.seed)
    return _report(
        run_suite(cfg), args, f"suite {args.suite}",
        lambda r: f"suite={r.suite}, trial={r.trial}, check={r.check}, seed={r.seed}, "
        f"nmax={cfg.nmax}, n1={r.n1}, n2={r.n2}",
    )


def _cmd_sequence(args) -> int:
    base = _load_timed(args.base)
    spec = SequenceSpec(
        family=args.family, base=base, length=args.length, rate=args.rate, seed=args.seed
    )
    return _report(
        run_sequence_experiment(spec, budget=args.budget), args, f"family {args.family}",
        lambda r: f"j={r.j} slack={r.slack}",
    )


# ---------------------------------------------------------------------------
# Parser.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tml",
        description="Distances between finite timed metric spaces, with certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space file against all axioms")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="print the structural class and defects")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dist", help="compute a distance between two space files")
    p.add_argument("--kind", required=True, choices=[k.value for k in DistanceKind])
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--p1", help="basepoint label in A (pt-gh)")
    p.add_argument("--p2", help="basepoint label in B (pt-gh)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("gen", help="generate a seeded random space file")
    p.add_argument("--model", choices=["euclidean", "graph"], default="euclidean")
    p.add_argument("--time", choices=["cone", "set-cone", "mcshane", "none"], default="none")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--subset-size", type=int, default=2)
    p.add_argument("--anchors", type=int, default=3)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("campaign", help="run a property-check suite and write a report")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("sequence", help="distances from sequence elements to their limit")
    p.add_argument("--family", required=True, choices=list(SEQUENCE_FAMILIES))
    p.add_argument("--base", required=True)
    p.add_argument("--length", type=int, default=6)
    p.add_argument("--rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(func=_cmd_sequence)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as err:
        return _fail(str(err), 2)
    except TmlError as err:
        return _fail(str(err), 1)


if __name__ == "__main__":
    sys.exit(main())
