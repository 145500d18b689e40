"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload exact-n56 --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: tml is imported from ``src/`` there.  With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics from a run whose calls into tml are traced.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# The reference speed: the host speed at which one calibration kernel takes 4 ms.
KERNEL_REFERENCE_S = 0.004


class ReferenceClock:
    """Converts wall time to reference seconds.

    A shared host can change speed by up to 40% within seconds as other
    tenants load its cores (seen on a 2-core Xeon VM), and CPU time slows down
    with wall time.  So a fixed kernel of interpreter and small-array work, independent of tml,
    runs after each timed piece of work, and the work's wall time is scaled by
    KERNEL_REFERENCE_S over the mean of the kernel times right before and right
    after it.  On a steady host this only changes the unit.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._block = np.linspace(0.0, 1.0, 36).reshape(6, 6)
        self.kernels: list[float] = []
        self.kernel()

    def kernel(self) -> float:
        np, a = self._np, self._block
        start = time.perf_counter()
        acc = 0
        for i in range(15000):
            acc += i * i
        for _ in range(150):
            acc += float(np.abs(a[:, :, None] - a[:, None, :]).max(axis=0).min())
        self.kernels.append(time.perf_counter() - start)
        return self.kernels[-1]

    def scale(self, wall: float) -> float:
        """Reference seconds for `wall` seconds of work that ended just now."""
        before = self.kernels[-1]
        return wall * KERNEL_REFERENCE_S / ((before + self.kernel()) / 2.0)

    def factor(self) -> float:
        """The whole run's scale from wall to reference seconds."""
        return KERNEL_REFERENCE_S / statistics.median(self.kernels)


def import_tml():
    """Import tml from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "tml" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tml sources under {src}; run from the root of a tml checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tml

    if Path(tml.__file__).resolve().parent != (src / "tml").resolve():
        sys.exit(f"perfbench: imported tml from {tml.__file__}, not from {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def same(a, b) -> bool:
    """Exact equality of op outputs, arrays and NaN included."""
    import numpy as np

    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, BaseException):
        return str(a) == str(b)
    if hasattr(a, "__dataclass_fields__"):
        return all(same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b


def call(op):
    try:
        return op.call()
    except Exception as err:  # an op that raises counts as failed
        from workloads import OpError

        return OpError.of(err)


def measure(ops, seconds: float, clock: ReferenceClock, tracer=None):
    """Run one untimed warm-up round of `ops`, then whole timed rounds until
    their summed wall time reaches `seconds`.

    Returns the warm-up round's outputs, every op's timed durations in
    reference seconds, the timed round count and the ops whose output changed
    between rounds.
    """
    first = [call(op) for op in ops]
    durations: list[list[float]] = [[] for _ in ops]
    unstable: set[int] = set()
    busy = 0.0
    rounds = 0
    while rounds == 0 or busy < seconds:
        if tracer is not None:
            tracer.phase = "timed"
        outputs = []
        for i, op in enumerate(ops):
            start = time.perf_counter()
            out = call(op)
            wall = time.perf_counter() - start
            durations[i].append(clock.scale(wall))
            busy += wall
            outputs.append(out)
        if tracer is not None:
            tracer.phase = None
        rounds += 1
        unstable.update(i for i, (x, y) in enumerate(zip(first, outputs)) if not same(x, y))
    return first, durations, rounds, unstable


def setup_seconds(args, clock: ReferenceClock) -> float:
    """Median time, over fresh processes, from process start to inputs ready,
    in reference seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        times.append(clock.scale(ready - start))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_tml()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run(args, workload, workdir, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, workdir, tracing) -> int:
    clock = ReferenceClock()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase = "setup"
    else:
        setup_s = setup_seconds(args, clock)
    workload.setup(args.seed, workdir)
    if tracer is not None:
        tracer.phase = None
    ops = workload.ops()
    outputs, durations, rounds, unstable = measure(ops, args.seconds, clock, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = workload.check(ops, outputs)
    for i in sorted(unstable):
        verdict.problems.append(f"{ops[i].label}: output changed between rounds")

    attempted = len(ops) * rounds
    failed = len(verdict.failed) * rounds
    busy = sum(sum(d) for d in durations)
    done = [t for i, d in enumerate(durations) if i not in verdict.failed for t in d]
    for i, why in sorted(verdict.failed.items()):
        print(f"failed: {ops[i].label}: {why}", file=sys.stderr)
    for problem in verdict.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(done) / busy, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(done), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # A workload whose operations return no interval reports 1: nothing is loosened.
            "lower_over_upper": (statistics.fmean(verdict.ratios) if verdict.ratios else 1.0, "ratio"),
        }
    else:
        sizes, cap = workload.engine_sizes()
        factor = clock.factor()
        metrics = tracing.layer_metrics(tracer.spans, rounds, tracing.enumeration_rate(sizes, cap), factor)
        tracer.uninstall()
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}; "
              f"traced ops_per_s {len(done) / busy:.4f}", file=sys.stderr)
    print(f"{args.workload}: {rounds} timed rounds of {len(ops)} ops in {busy:.2f} reference s",
          file=sys.stderr)
    result = {
        "correct": not verdict.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
