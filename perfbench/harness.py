"""Workloads, clusterings, correctness gate and metrics of the benchmark.

A clustering starts from raw series: ``repro.datasets.correlation_matrices``
on ``X``, then the harness entry point the ``jobs/`` exhibits use
(``repro.bench.run_par_tdbht`` or ``run_seq_tdbht``) with only
``spark, ds, S, D, k, prefix``, so the benchmark measures whatever stage
placement the program picks. Its wall time runs from ``X`` to the dendrogram
and the labels cut from it at k = #classes.

One run is a closed loop from one process: each clustering starts after
the previous one ends. Set-up ends with a warm-up (``warm_up``): one SEQ-TDBHT
and one PAR-TDBHT clustering of a small generated input, which starts the
Python workers and makes the JVM compile the Spark stages before any timing.
Then, in order:

1. SEQ-TDBHT on input 0, ``load_ucr_lite(id, seed=seed)``.
2. PAR-TDBHT on input 0.
3. SEQ-TDBHT on each validation input ``load_ucr_lite(id, seed=j)`` for
   j < ``validation``.
4. More PAR-TDBHT clusterings of input 0 while one more still fits, by the
   last one's wall time, before ``seconds`` have passed since step 1 began.
   A run thus never overruns its window by a whole clustering.

``ari`` is the mean ARI over the validation inputs, which do not depend on
the seed: ARI of one ECG5000-lite draw spreads by 40-50 % (interquartile
range over median) across seeds, more than any bound a regression check
could use, while on fixed inputs any change of the labels shows. The
validation inputs are clustered by SEQ-TDBHT; the gate below requires
PAR-TDBHT to match it bit for bit on input 0.

Correctness gate. A clustering fails if it raises, if its dendrogram fails
``Dendrogram.validate()``, or if its outputs (TMFG edges, bubbles,
group/bubble assignments, converging bubbles, APSP matrix, dendrogram
merges) differ in any bit from SEQ-TDBHT's first clustering of the same
input. A traced clustering also fails if its layer spans differ from the
pipeline's own step times (see ``layers.py``).
"""
from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import bench, datasets
from repro.spark import pipeline

from layers import (PIPELINE_LAYERS, SPARK_COUNTERS, ClusteringTrace,
                    LayerTracer)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset_id: int
    prefix: int
    validation: int  # fixed inputs, seeds 0..validation-1, behind ``ari``


# Why each workload was chosen is in BENCHMARK.json. In short: on ECG5000-lite
# the harness runs TMFG in Spark and Spark job latency dominates; on Crop-lite
# TMFG runs on the driver as 1290 single insertions and APSP sits on the side
# of the crossover where Spark wins.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ecg334-p100", 6, 100, 4),
    Workload("crop1294-p1", 17, 1, 1),
)}

END_TO_END = {
    "par_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "ari": ("ARI", "higher"),
    "driver_peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {"correlation.s": ("s", "lower")}
PER_LAYER.update({f"seq.{layer}.s": ("s", "lower") for layer in PIPELINE_LAYERS})
PER_LAYER.update({"tmfg.rounds": ("count", "lower"),
                  "hierarchy.subgroups": ("count", "lower")})
for _layer in PIPELINE_LAYERS:
    PER_LAYER[f"par.{_layer}.s"] = ("s", "lower")
    for _c in SPARK_COUNTERS:
        PER_LAYER[f"par.{_layer}.{_c}"] = (
            "bytes" if _c == "broadcast_bytes" else "count", "lower")
PER_LAYER.update({"par.other.s": ("s", "lower"),
                  "trace.overhead_s": ("s", "lower")})


def make_inputs(wl: Workload, seed: int) -> List[datasets.TSDataset]:
    """Input 0 from the seed, then the validation inputs."""
    return [datasets.load_ucr_lite(wl.dataset_id, seed=s)
            for s in [seed, *range(wl.validation)]]


def warm_up(spark, wl: Workload, seed: int) -> None:
    """One SEQ-TDBHT and one PAR-TDBHT clustering of a generated input.

    The first Spark work of a process pays for Python-worker start and the
    JVM's code generation and compilation: about 12 s more than a warm
    PAR-TDBHT clustering of Crop-lite, with a spread across runs far wider
    than the clustering's own. At n=200 and the workload's prefix the
    program places TMFG as it does for the workload's input (in Spark for
    ``ecg334-p100``, on the driver for ``crop1294-p1``), so the same Spark
    stages get compiled.
    """
    ds = datasets.latent_curve_dataset("warm-up", 200, 32, 3, seed=seed)
    S, D = datasets.correlation_matrices(ds.X)
    bench.run_seq_tdbht(ds, S, D, ds.n_classes, wl.prefix)
    bench.run_par_tdbht(spark, ds, S, D, ds.n_classes, wl.prefix)


# ------------------------------------------------------------ clusterings
@dataclass
class Outcome:
    path: str  # "par" | "seq"
    input: int
    wall_s: float
    ari: float = float("nan")
    arrays: Optional[Dict[str, np.ndarray]] = None
    rounds: int = 0
    subgroups: int = 0
    error: Optional[str] = None
    trace: Optional[ClusteringTrace] = None


class _Capture:
    """Keeps the ``TimedRun`` that ``par_tdbht``/``seq_tdbht`` hand to the
    harness, whose result dict carries only times and the ARI."""

    def __init__(self):
        self.run = None
        self._orig = {}

    def __enter__(self) -> "_Capture":
        for name in ("par_tdbht", "seq_tdbht"):
            fn = self._orig[name] = getattr(pipeline, name)
            setattr(pipeline, name, self._keep(fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._orig.items():
            setattr(pipeline, name, fn)

    def _keep(self, fn):
        def wrapper(*args, **kwargs):
            self.run = fn(*args, **kwargs)
            return self.run
        return wrapper


def output_arrays(run) -> Dict[str, np.ndarray]:
    res = run.result
    return {
        "edges": run.tmfg.edges,
        "bubbles": np.asarray(run.tmfg.tree.bubbles, dtype=np.int64),
        "group": res.assignments.group,
        "bubble": res.assignments.bubble,
        "converging": res.assignments.converging,
        "apsp": res.apsp,
        "merges": res.dendrogram.merges,
    }


def first_difference(a: Dict[str, np.ndarray],
                     b: Dict[str, np.ndarray]) -> Optional[str]:
    """Name of the first output whose dtype, shape or bytes differ."""
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name), b.get(name)
        if (x is None or y is None or x.dtype != y.dtype
                or x.shape != y.shape or x.tobytes() != y.tobytes()):
            return name
    return None


def digest(arrays: Dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def cluster(spark, path: str, ds, index: int, prefix: int, capture: _Capture,
            tracer: Optional[LayerTracer]) -> Outcome:
    """One clustering from raw ``X`` to labels; checks run after the clock."""
    k = ds.n_classes
    capture.run = None
    t0 = time.perf_counter()
    try:
        with tracer.clustering(path) if tracer else nullcontext() as trace:
            S, D = datasets.correlation_matrices(ds.X)
            if path == "par":
                r = bench.run_par_tdbht(spark, ds, S, D, k, prefix)
            else:
                r = bench.run_seq_tdbht(ds, S, D, k, prefix)
    except Exception:  # counted as a failed operation; the run goes on
        out = Outcome(path, index, time.perf_counter() - t0,
                      error=traceback.format_exc(limit=3))
        print(out.error, file=sys.stderr)
        return out
    wall = trace.wall_s if trace else time.perf_counter() - t0
    out = Outcome(path, index, wall, ari=r["ari"], trace=trace)
    run = capture.run
    if run is None:
        out.error = f"{path}_tdbht was not called; outputs cannot be checked"
        return out
    out.arrays = output_arrays(run)
    out.rounds = run.tmfg.rounds
    a = run.result.assignments
    out.subgroups = len(set(zip(a.group.tolist(), a.bubble.tolist())))
    try:
        run.result.dendrogram.validate()
    except ValueError as e:
        out.error = f"invalid dendrogram: {e}"
    if out.trace is not None and (why := out.trace.check(run.times)):
        out.error = f"trace: {why}"
    return out


# ------------------------------------------------------------ measurement
@dataclass
class Measurement:
    outcomes: List[Outcome] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    # Peak RSS of this process when the first PAR clustering of input 0
    # ends. Read there because the number of repeats after it follows the
    # machine's speed.
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def of(self, path: str) -> List[Outcome]:
        return [o for o in self.outcomes if o.path == path]


def measure(spark, wl: Workload, inputs, seconds: float,
            tracer: Optional[LayerTracer] = None) -> Measurement:
    deadline = time.perf_counter() + seconds
    m = Measurement()
    ref: Dict[int, Outcome] = {}

    def run(path: str, j: int) -> Outcome:
        o = cluster(spark, path, inputs[j], j, wl.prefix, capture, tracer)
        m.outcomes.append(o)
        if path == "seq" and j not in ref and o.error is None:
            ref[j] = o
        return o

    with _Capture() as capture:
        run("seq", 0)
        run("par", 0)
        m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for j in range(1, len(inputs)):
            run("seq", j)
        while time.perf_counter() + m.of("par")[-1].wall_s <= deadline:
            run("par", 0)

    for o in m.outcomes:
        if o.error is None:
            base = ref.get(o.input)
            if base is None:
                o.error = "no SEQ-TDBHT reference for this input"
            elif o is not base and (diff := first_difference(o.arrays, base.arrays)):
                o.error = f"{o.path} differs from seq on input {o.input}: {diff}"
        if o.error:
            m.failures.append(f"{o.path}[{o.input}]: {o.error.strip().splitlines()[-1]}")
    if 0 in ref:
        m.digest = digest(ref[0].arrays)
    return m


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(m: Measurement) -> Dict[str, float]:
    """All end-to-end metrics but setup_s, which run.py measures."""
    seq = m.of("seq")
    validation = {o.input: o.ari for o in seq if o.input > 0}
    return {
        "par_s": _median(o.wall_s for o in m.of("par")),
        "ari": float(np.mean(list(validation.values()))) if validation else 0.0,
        "driver_peak_rss_mb": m.peak_rss_mb,
    }


def per_layer(m: Measurement) -> Dict[str, float]:
    traced = [o for o in m.outcomes if o.trace is not None]
    par = [o.trace for o in traced if o.path == "par"]
    seq = [o.trace for o in traced if o.path == "seq"]
    out = {"correlation.s": _median(o.trace.layer_s("correlation") for o in traced)}
    for layer in PIPELINE_LAYERS:
        out[f"seq.{layer}.s"] = _median(t.layer_s(layer) for t in seq)
        out[f"par.{layer}.s"] = _median(t.layer_s(layer) for t in par)
        for c in SPARK_COUNTERS:
            out[f"par.{layer}.{c}"] = _median(t.counter(layer, c) for t in par)
    out["par.other.s"] = _median(t.other_s for t in par)
    out["trace.overhead_s"] = _median(t.overhead_s for t in par)
    on_input0 = [o for o in traced if o.input == 0 and o.arrays is not None]
    out["tmfg.rounds"] = on_input0[0].rounds if on_input0 else 0
    out["hierarchy.subgroups"] = on_input0[0].subgroups if on_input0 else 0
    return out


def sample_counts(m: Measurement) -> Dict[str, int]:
    return {"par": len(m.of("par")), "seq": len(m.of("seq")),
            "ari_inputs": len({o.input for o in m.outcomes if o.input > 0})}
