"""Per-layer spans for one traced clustering, recorded from outside the program.

The tracer wraps, by rebinding module attributes, the functions through
which ``repro.spark.pipeline`` and ``repro.core.dbht`` enter each pipeline
step (the paper's Fig. 5 steps plus correlation). Nothing in ``src/`` is
changed.

Span rule. A span starts when a layer call starts at nesting depth 0 and
ends when the next layer call starts; the last span of a clustering ends
when its call returns. The Spark job group ``<layer>-<id>`` set at the start
of a span stays in place until the next span starts, because
``apsp_df`` returns a lazy DataFrame whose Dijkstras run in the pipeline's
own ``toPandas()`` after the call has returned. Whatever no span covers
(the harness's dendrogram cut and ARI, for one) is reported as ``other``.

Spans are checked against the pipeline's own step timers
(``TimedRun.times``): each pipeline layer's span time must match its step
time within ``TOLERANCE_S`` plus ``TOLERANCE_REL`` of it. A wrapper on the
wrong function, or a missing one, moves time from one span to another and
fails the check.

Counters per span: Spark jobs, tasks and failed tasks (read from
``statusTracker`` when the span ends, since it keeps only the most recent
jobs), rows returned by ``DataFrame.collect``/``toPandas`` and bytes
written by ``SparkContext.broadcast``.

A target that no longer exists is skipped; a layer left with no targets is
reported in ``absent``, and its numbers read zero.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

PIPELINE_LAYERS = ("tmfg", "apsp", "bubble_tree", "hierarchy")
LAYERS = ("correlation",) + PIPELINE_LAYERS
SPARK_COUNTERS = ("spark_jobs", "spark_tasks", "failed_tasks",
                  "rows_collected", "broadcast_bytes")

# (layer, defining module, attribute path inside that module)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("correlation", "repro.datasets", "correlation_matrices"),
    ("tmfg", "repro.core.tmfg", "tmfg"),
    ("tmfg", "repro.spark.tmfg_spark", "tmfg_spark"),
    ("apsp", "repro.core.dbht", "tmfg_apsp"),
    ("apsp", "repro.spark.apsp_spark", "apsp_df"),
    ("bubble_tree", "repro.graphs.bubble_tree", "BubbleTree.compute_directions"),
    ("bubble_tree", "repro.core.dbht", "assign_vertices"),
    ("bubble_tree", "repro.spark.similarity", "sim_df_from_matrix"),
    ("bubble_tree", "repro.spark.dbht_spark", "assign_vertices_spark"),
    ("hierarchy", "repro.spark.dbht_spark", "subgroup_linkages_spark"),
    ("hierarchy", "repro.core.dbht", "build_hierarchy"),
)
# Modules that bind targets under their own names (``from x import f``);
# each such binding is rebound too.
CALLERS = ("repro.spark.pipeline", "repro.core.dbht", "repro.bench")
# Allowed gap between a span and its pipeline step: the few statements the
# pipeline runs between its step timers and the layer calls.
TOLERANCE_S = 0.01
TOLERANCE_REL = 0.01


@dataclass
class Span:
    layer: str
    group: str
    start: float
    end: float = 0.0
    counters: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(SPARK_COUNTERS, 0))


@dataclass
class ClusteringTrace:
    """Spans of one clustering between ``start`` and ``end``."""

    path: str
    start: float
    end: float = 0.0
    spans: List[Span] = field(default_factory=list)
    overhead_s: float = 0.0  # time spent in the tracer's own bookkeeping

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def layer_s(self, layer: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.layer == layer)

    def counter(self, layer: str, name: str) -> int:
        return sum(s.counters[name] for s in self.spans if s.layer == layer)

    @property
    def other_s(self) -> float:
        """Wall time inside the clustering that no span covers."""
        covered = sum(s.end - s.start for s in self.spans)
        return self.wall_s - covered

    def check(self, steps: Dict[str, float]) -> Optional[str]:
        """None if every pipeline layer's span time matches the pipeline's
        own timer for that step (``TimedRun.times``, keyed ``tmfg``,
        ``apsp``, ``bubble-tree``, ``hierarchy``); otherwise what differs."""
        for layer in PIPELINE_LAYERS:
            step = steps.get(layer.replace("_", "-"))
            if step is None:
                return f"the pipeline reports no time for {layer}"
            span = self.layer_s(layer)
            if abs(span - step) > TOLERANCE_S + TOLERANCE_REL * step:
                return (f"{layer} span {span:.4f} s, pipeline step "
                        f"{step:.4f} s")
        return None


class LayerTracer:
    """Installs the layer wrappers; ``clustering(path)`` records one run.

    ``sc`` is the SparkContext whose jobs are grouped and counted; without
    one, only span times are recorded.
    """

    def __init__(self, sc=None, targets=TARGETS):
        self._sc = sc
        self._targets = targets
        self._restore: List[Tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._depth = 0
        self._io_depth = 0
        self._trace: Optional[ClusteringTrace] = None
        self._open: Optional[Span] = None
        self._last_return = 0.0
        self.absent: List[str] = []

    # ------------------------------------------------------------- patching
    def install(self) -> "LayerTracer":
        present = set()
        for layer, module, attr in self._targets:
            owner, name, orig = _resolve(module, attr)
            if orig is None:
                continue
            present.add(layer)
            wrapper = self._wrap_layer(layer, orig)
            self._patch(owner, name, wrapper)
            if isinstance(owner, types.ModuleType):
                for caller in CALLERS:
                    try:
                        mod = importlib.import_module(caller)
                    except ImportError:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
        self.absent = sorted({t[0] for t in self._targets} - present)
        if self._sc is not None:
            from pyspark import SparkContext
            from pyspark.sql.classic.dataframe import DataFrame

            for name in ("collect", "toPandas"):
                self._patch(DataFrame, name, self._wrap_io(
                    getattr(DataFrame, name), "rows_collected", len))
            self._patch(SparkContext, "broadcast", self._wrap_io(
                SparkContext.broadcast, "broadcast_bytes", _broadcast_bytes))
        return self

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_layer(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._trace is None or self._depth:
                return fn(*args, **kwargs)
            self._enter(layer)
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                self._last_return = time.perf_counter()
        return wrapper

    def _wrap_io(self, fn: Callable, counter: str,
                 size: Callable[[object], int]) -> Callable:
        """Adds ``size(result)`` of an outermost call to the open span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._io_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._io_depth -= 1
            if self._open is not None and not self._io_depth:
                t0 = time.perf_counter()
                self._open.counters[counter] += int(size(out))
                self._trace.overhead_s += time.perf_counter() - t0
            return out
        return wrapper

    # ---------------------------------------------------------------- spans
    @contextlib.contextmanager
    def clustering(self, path: str) -> Iterator[ClusteringTrace]:
        """Records the spans of one clustering run inside the block."""
        trace = self._trace = ClusteringTrace(path=path,
                                              start=time.perf_counter())
        try:
            yield trace
        finally:
            trace.end = time.perf_counter()
            if self._open is not None:
                self._close(self._last_return)
                if self._sc is not None:
                    self._sc.setJobGroup(f"idle-{next(self._ids)}",
                                         "outside layers")
                trace.overhead_s += time.perf_counter() - trace.end
            self._trace = None

    def _enter(self, layer: str) -> None:
        now = time.perf_counter()
        if self._open is not None:
            self._close(now)
        span = Span(layer=layer, group=f"{layer}-{next(self._ids)}", start=now)
        if self._sc is not None:
            self._sc.setJobGroup(span.group, f"{self._trace.path} {layer}")
        self._open = span
        self._trace.spans.append(span)
        self._trace.overhead_s += time.perf_counter() - now

    def _close(self, end: float) -> None:
        span, self._open = self._open, None
        span.end = end
        if self._sc is None:
            return
        # Job and stage events reach the status store asynchronously.
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self._sc.statusTracker()
        for job_id in tracker.getJobIdsForGroup(span.group):
            span.counters["spark_jobs"] += 1
            job = tracker.getJobInfo(job_id)
            for stage_id in (job.stageIds if job else ()):
                stage = tracker.getStageInfo(stage_id)
                if stage is not None:
                    span.counters["spark_tasks"] += stage.numCompletedTasks
                    span.counters["failed_tasks"] += stage.numFailedTasks


def _resolve(module: str, attr: str):
    """(owner, name, function) for ``module:attr``; function None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    *parents, name = attr.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, None, None
    return owner, name, getattr(owner, name, None)


def _broadcast_bytes(b) -> int:
    """Size of the pickled value a broadcast ships to the workers."""
    path = getattr(b, "_path", None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0
