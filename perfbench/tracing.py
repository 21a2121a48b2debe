"""In-memory spans around qreset's layer boundaries, and the per-layer metrics built from them.

Every function is wrapped where its caller looks it up: ``qreset.cli``
and ``qreset.analysis`` bind their imports with ``from ... import``, so
patching the defining module alone would miss those calls.  The
``lru_cache`` behind ``step_propagator`` stays in place; the wrapper
calls through it, and hits and misses come from ``cache_info()``.

Spans are kept in memory and written out once the run ends.  A span's
self time is its duration minus the part of it covered by its children.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterator

LAYERS = ("lattice", "dynamics", "restart", "analysis", "cli")

#: Percentiles are reported only with at least this many samples beyond them.
TAIL_SAMPLES = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; the parent of a span is the innermost open span of its thread.

    A span opened in a worker thread with nothing open there hangs under
    the innermost open span of the thread that installed the patches
    (the sweep span, whose thread waits on the pool meanwhile).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._ids = count(1)
        self._stacks: dict[int, list[int]] = {}
        self._root_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._stacks.get(self._root_thread)
            parent = root[-1] if root else None
        span_id = next(self._ids)
        stack.append(span_id)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run, attrs))

    def wrap(self, name: str | Callable, fn: Callable, attrs: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``name`` may be computed from the call's arguments."""

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with self.span(span_name) as span_attrs:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span_attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets) -> Iterator["Tracer"]:
        """Install ``(owner, attribute, name, attrs)`` wrappers; restore them on exit."""
        saved = []
        try:
            for owner, attribute, name, attrs in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def boundary_targets(qreset) -> list[tuple]:
    """Every cross-module call site the workloads reach, plus ``mfdt`` and the CLI's own stages."""
    cli, analysis, dynamics, lattice = qreset.cli, qreset.analysis, qreset.dynamics, qreset.lattice

    def steps(args, kwargs, result):
        return {"steps": len(result.p)}

    def entries(args, kwargs, result):
        return {"entries": len(result)}

    def rows(args, kwargs, result):
        return {"rows": len(args[0].rows), "bytes": result.stat().st_size}

    def grid(args, kwargs, result):
        return {"points": len(_arg(args, kwargs, 3, "values")), "failed": len(result[1])}

    def route(args, kwargs):
        hermitian = _arg(args, kwargs, 2, "hermitian")
        return "lattice.propagator.eigh" if hermitian else "lattice.propagator.pade"

    return [
        (lattice, "propagator", route, None),
        (dynamics, "step_propagator", "lattice.step_propagator", None),
        (analysis, "propagator", route, None),
        (analysis, "build_hamiltonian", "lattice.build_hamiltonian", None),
        (analysis, "measured_evolution", "dynamics.measured_evolution", steps),
        (analysis, "mfdt", "restart.mfdt", None),
        (analysis, "alpha", "analysis.alpha", None),
        (cli, "measured_evolution", "dynamics.measured_evolution", steps),
        (cli, "nh_survival_series", "dynamics.nh_survival_series", steps),
        (cli, "mfdt", "restart.mfdt", None),
        (cli, "reset_survival", "restart.reset_survival", entries),
        (cli, "alpha", "analysis.alpha", None),
        (cli, "optimal_tr_nh", "analysis.optimal_tr_nh", None),
        (cli, "survival_prediction", "analysis.survival_prediction", entries),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "sweep", "cli.sweep", grid),
        (cli.CsvArtifact, "write", "cli.CsvArtifact.write", rows),
    ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, clipped to the parent."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.id] = s.duration - covered
    return result


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None unless TAIL_SAMPLES samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    value = ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]
    if sum(x > value for x in ordered) < TAIL_SAMPLES:
        return None
    return value


def rep_metrics(spans: list[Span], cache_info, L: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (spans of that run only)."""
    own = self_times(spans)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def self_total(name: str) -> float:
        return sum(own[s.id] for s in named(name))

    def attr(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in named(name))

    dyn_names = ("dynamics.measured_evolution", "dynamics.nh_survival_series")
    dyn_self = sum(self_total(n) for n in dyn_names)
    steps = sum(attr(n, "steps") for n in dyn_names)
    sweeps = named("cli.sweep")
    sweep_ids = {s.id for s in sweeps}
    points = [s for s in named("cli.run_experiment") if s.parent in sweep_ids]
    sweep_span = sum(s.duration for s in sweeps)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
    all_self = sum(layer_self.values())

    metrics = {
        "lattice.propagator.pade_s": total("lattice.propagator.pade"),
        "lattice.propagator.pade_calls": len(named("lattice.propagator.pade")),
        "lattice.propagator.eigh_s": total("lattice.propagator.eigh"),
        "lattice.propagator.eigh_calls": len(named("lattice.propagator.eigh")),
        "lattice.step_propagator.hits": cache_info.hits,
        "lattice.step_propagator.misses": cache_info.misses,
        "lattice.cache_mb": cache_info.currsize * L * L * 16 / 1e6,
        "dynamics.measured_evolution.self_s": self_total(dyn_names[0]),
        "dynamics.nh_survival_series.self_s": self_total(dyn_names[1]),
        "dynamics.steps": steps,
        "dynamics.step_us": dyn_self / steps * 1e6 if steps else 0.0,
        # Each step reads the whole L x L complex128 matrix once.
        "dynamics.gbps_computed": steps * L * L * 16 / dyn_self / 1e9 if steps else 0.0,
        "restart.reset_survival.s": total("restart.reset_survival"),
        "restart.reset_survival.entries": attr("restart.reset_survival", "entries"),
        "restart.mfdt.calls": len(named("restart.mfdt")),
        "analysis.alpha.calls": len(named("analysis.alpha")),
        "analysis.alpha.self_s": self_total("analysis.alpha"),
        "analysis.survival_prediction.s": total("analysis.survival_prediction"),
        "cli.CsvArtifact.write.s": total("cli.CsvArtifact.write"),
        "cli.CsvArtifact.write.rows": attr("cli.CsvArtifact.write", "rows"),
        "cli.CsvArtifact.write.mb": attr("cli.CsvArtifact.write", "bytes") / 1e6,
        "cli.sweep.points": attr("cli.sweep", "points"),
        "cli.sweep.failed": attr("cli.sweep", "failed"),
        "cli.sweep.overlap": sum(s.duration for s in points) / sweep_span if sweeps else 0.0,
        "cli.parse_config.s": total("cli.parse_config"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / all_self
    return metrics


def latency_percentiles(spans: list[Span]) -> dict[str, dict]:
    """p50/p90 of per-point latencies pooled over all traced runs, with sample counts."""
    out = {}
    for name, label in (("analysis.alpha", "analysis.alpha.point_s"),
                        ("cli.run_experiment", "cli.run_experiment.point_s")):
        samples = [s.duration for s in spans if s.name == name]
        out[label] = {"n": len(samples), "p50": percentile(samples, 50), "p90": percentile(samples, 90)}
    return out


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
