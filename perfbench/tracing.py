"""Span tracing for the benchmark's traced run.

The tracer replaces tml's public functions by thin wrappers, under every name
a tml module binds them to (``tml.harness.gh_distance``, ``tml.io.build_metric_space``
and so on), so calls made inside the package are traced as well as the
benchmark's own.  Each call becomes a span (name, start, end, parent) kept in
memory; the spans are written out when the run ends.  A layer's self time is
its span minus its child spans.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

KINDS = ("gh", "kappa-gh", "tau-h", "pt-gh", "bb-gh", "fd-hh")


# Counters run after every call; `result` is None when the call raised.
def _explored(args, kwargs, result) -> int:
    return 0 if result is None else int(result.explored)


def _triples(args, kwargs, result) -> int:
    # build_metric_space(labels, matrix) checks every triangle, valid or not.
    n = len(args[0] if args else kwargs["labels"])
    return n * (n - 1) * (n - 2) // 2


def _bytes_written(args, kwargs, result) -> int:
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    return path.stat().st_size if path.exists() else 0


# (defining module, function, span name, what the span counts)
WRAPPED = (
    ("tml.engine", "gh_distance", "engine.scan.gh", _explored),
    ("tml.engine", "kappa_gh_distance", "engine.scan.kappa-gh", _explored),
    ("tml.engine", "tau_h_distance", "engine.scan.tau-h", _explored),
    ("tml.engine", "pointed_gh", "engine.scan.pt-gh", _explored),
    ("tml.engine", "bb_gh", "engine.scan.bb-gh", _explored),
    ("tml.engine", "fd_hh", "engine.scan.fd-hh", _explored),
    ("tml.engine", "local_search_upper", "engine.local_search", _explored),
    ("tml.engine", "simple_lower_bounds", "engine.lower_bound", None),
    ("tml.spaces", "build_metric_space", "spaces.validate", _triples),
    ("tml.spaces", "build_timed_space", "spaces.validate", None),
    ("tml.spaces", "classify", "spaces.classify", None),
    ("tml.constructions", "random_metric_space", "constructions.generate", None),
    ("tml.constructions", "random_time_function", "constructions.generate", None),
    ("tml.constructions", "build_sequence", "constructions.sequence", None),
    ("tml.constructions", "glue_by_correspondence", "constructions.glue", None),
    ("tml.embeddings", "frechet_embed", "embeddings.embed", None),
    ("tml.embeddings", "timed_frechet_embed", "embeddings.embed", None),
    ("tml.embeddings", "hausdorff_sup", "embeddings.embed", None),
    ("tml.embeddings", "hausdorff_in", "embeddings.embed", None),
    ("tml.harness", "run_suite", "harness", None),
    ("tml.harness", "run_sequence_experiment", "harness", None),
    ("tml.io", "read_space", "io.read", None),
    ("tml.io", "write_space", "io.write_space", None),
    ("tml.io", "write_report", "io.write_report", _bytes_written),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    phase: str
    count: int = 0  # correspondences scored, triples validated or bytes written


@dataclass
class Tracer:
    """Wraps tml's public functions and records one span per call."""

    phase: str | None = None  # None: wrappers pass calls through unrecorded
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, fn, span_name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(span_name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self.phase)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span.count = counter(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Rebind every tml module name that refers to a wrapped function."""
        modules = [m for name, m in sys.modules.items() if name == "tml" or name.startswith("tml.")]
        for module_name, attr, span_name, counter in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "phase": s.phase, "count": s.count}))
                fh.write("\n")


def layer_metrics(spans: list[Span], rounds: int, enum_us_per_corr: float,
                  factor: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of one traced run.

    Span times are multiplied by `factor`, the run's reference-speed scale.
    Per-call times average over set-up and the timed phase; counts are per
    round of the timed phase.  A layer the workload never calls reads 0.
    """
    took = [(s.end - s.start) * factor for s in spans]
    child_time = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += took[k]

    def named(name):
        return [k for k, s in enumerate(spans) if s.name == name]

    def mean_ms(name, self_time=False):
        picked = named(name)
        if not picked:
            return 0.0
        return 1e3 * sum(took[k] - (child_time[k] if self_time else 0.0) for k in picked) / len(picked)

    def per_round(name):
        return sum(spans[k].count for k in named(name) if spans[k].phase == "timed") / rounds

    out: dict[str, tuple[float, str]] = {"engine.enum_us_per_corr": (enum_us_per_corr * factor, "us/corr")}
    for kind in KINDS:
        scans = named(f"engine.scan.{kind}")
        scored = sum(spans[k].count for k in scans)
        busy = sum(took[k] for k in scans)
        out[f"engine.scan_us_per_corr.{kind}"] = (1e6 * busy / scored if scored else 0.0, "us/corr")
        out[f"engine.corrs_scored.{kind}"] = (per_round(f"engine.scan.{kind}"), "count")
    out["engine.local_search_ms"] = (mean_ms("engine.local_search"), "ms")
    out["engine.local_search_evals"] = (per_round("engine.local_search"), "count")
    out["engine.lower_bound_us"] = (1e3 * mean_ms("engine.lower_bound"), "us")

    validations = named("spaces.validate")
    triples = sum(spans[k].count for k in validations)
    metric_time = sum(took[k] for k in validations if spans[k].count)
    out["spaces.validate_ms"] = (mean_ms("spaces.validate"), "ms")
    out["spaces.validate_ns_per_triple"] = (1e9 * metric_time / triples if triples else 0.0, "ns/triple")
    out["spaces.classify_ms"] = (mean_ms("spaces.classify"), "ms")

    out["constructions.generate_ms"] = (mean_ms("constructions.generate", self_time=True), "ms")
    out["constructions.sequence_ms"] = (mean_ms("constructions.sequence", self_time=True), "ms")
    out["embeddings.embed_ms"] = (mean_ms("embeddings.embed"), "ms")
    out["harness.self_ms"] = (mean_ms("harness", self_time=True), "ms")
    harness_ids = set(named("harness"))
    out["harness.engine_calls"] = (sum(
        1 for s in spans
        if s.phase == "timed" and s.name.startswith("engine.") and s.parent in harness_ids) / rounds, "count")

    out["io.read_ms"] = (mean_ms("io.read", self_time=True), "ms")
    out["io.write_report_ms"] = (mean_ms("io.write_report"), "ms")
    out["io.report_bytes"] = (per_round("io.write_report"), "bytes")
    return out


def enumeration_rate(sizes, cap: int | None) -> float:
    """Microseconds per correspondence to stream ``minimal_correspondences``
    at the given sizes (at most ``cap`` per size); 0 when there are none."""
    import tml.engine

    count = 0
    start = time.perf_counter()
    for n1, n2 in sizes:
        for _ in tml.engine.minimal_correspondences(n1, n2, budget=cap):
            count += 1
    busy = time.perf_counter() - start
    return 1e6 * busy / count if count else 0.0
