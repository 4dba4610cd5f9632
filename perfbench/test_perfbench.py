"""Tests of the benchmark itself: metric schema, tracer, gate, smoke runs.

Run from the repository root with the tier-1 environment, for example
``PYTHONPATH=src python -m pytest perfbench -q -p no:cacheprovider``.
The smoke runs cluster a generated n=40 input through both paths.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# Python workers started by the session fixture import repro from src.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import harness  # noqa: E402
import layers  # noqa: E402
from repro import datasets  # noqa: E402
from repro.spark import pipeline  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def tiny():
    ds = datasets.latent_curve_dataset("tiny", 40, 32, 3, noise=0.4,
                                       shared=0.2, outlier_frac=0.0, seed=0)
    return harness.Workload("tiny", 0, 10, 1), [ds, ds]


def test_benchmark_json_declares_what_the_benchmark_emits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == harness.END_TO_END
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == harness.PER_LAYER and len(layer) == 33
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"]
             + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in spec["end_to_end"] + spec["per_layer"])


def test_gate_compares_bits_and_digest_follows():
    a = {"apsp": np.array([0.0, 1.5]), "edges": np.array([[0, 1]])}
    b = {"apsp": np.array([-0.0, 1.5]), "edges": np.array([[0, 1]])}
    assert np.array_equal(a["apsp"], b["apsp"])  # allclose would pass
    assert harness.first_difference(a, b) == "apsp"
    assert harness.first_difference(a, dict(a)) is None
    assert harness.first_difference(a, {"apsp": a["apsp"]}) == "edges"
    assert harness.digest(a) != harness.digest(b)
    assert harness.digest(a) == harness.digest(dict(a))


def test_missing_targets_report_absent_layers_and_spans_cover_the_run(tiny):
    wl, inputs = tiny
    targets = layers.TARGETS + (
        ("tmfg", "repro.spark.tmfg_spark", "no_such_function"),
        ("gone", "repro.no_such_module", "f"),
    )
    orig = pipeline.tmfg
    with layers.LayerTracer(targets=targets) as tracer:
        assert tracer.absent == ["gone"]
        assert pipeline.tmfg is not orig
        with harness._Capture() as cap:
            o = harness.cluster(None, "seq", inputs[0], 0, wl.prefix, cap, tracer)
    assert pipeline.tmfg is orig
    assert o.error is None  # spans matched the pipeline's step times
    assert [s.layer for s in o.trace.spans] == list(layers.LAYERS)
    assert all(o.trace.layer_s(layer) > 0 for layer in layers.LAYERS)
    assert o.trace.other_s >= 0


def test_span_check_fails_when_time_moves_between_layers():
    def trace(**seconds):
        t = layers.ClusteringTrace(path="seq", start=0.0)
        for layer, s in seconds.items():
            start = t.spans[-1].end if t.spans else 0.0
            t.spans.append(layers.Span(layer, layer, start, start + s))
        t.end = t.spans[-1].end
        return t

    steps = {"tmfg": 1.0, "apsp": 2.0, "bubble-tree": 0.5, "hierarchy": 0.3}
    assert trace(tmfg=1.0, apsp=2.0, bubble_tree=0.5,
                 hierarchy=0.3).check(steps) is None
    # a wrapper missing on the bubble-tree step: apsp's span swallows it
    why = trace(tmfg=1.0, apsp=2.5, hierarchy=0.3).check(steps)
    assert why is not None and why.startswith("apsp")
    # work between the steps that the pipeline does not time
    why = trace(tmfg=1.0, apsp=2.0, bubble_tree=0.5,
                hierarchy=0.4).check(steps)
    assert why is not None and why.startswith("hierarchy")
    assert trace(tmfg=1.0, apsp=2.0, bubble_tree=0.5,
                 hierarchy=0.3).check({"tmfg": 1.0}) is not None


def test_smoke_untraced(spark, tiny):
    wl, inputs = tiny
    m = harness.measure(spark, wl, inputs, seconds=0)
    assert not m.failures and [o.path for o in m.outcomes] == ["seq", "par", "seq"]
    metrics = harness.end_to_end(m)
    assert set(metrics) == set(harness.END_TO_END) - {"setup_s"}
    assert metrics["par_s"] > 0
    assert metrics["driver_peak_rss_mb"] > 0
    assert -1 <= metrics["ari"] <= 1
    assert len(m.digest) == 64


def test_smoke_traced(spark, tiny):
    wl, inputs = tiny
    with layers.LayerTracer(spark.sparkContext) as tracer:
        m = harness.measure(spark, wl, inputs, seconds=0, tracer=tracer)
    assert not m.failures
    metrics = harness.per_layer(m)
    assert set(metrics) == set(harness.PER_LAYER)
    assert metrics["par.bubble_tree.spark_jobs"] > 0
    assert metrics["par.apsp.rows_collected"] == 40 * 40
    assert metrics["par.hierarchy.broadcast_bytes"] > 40 * 40 * 8
    assert metrics["tmfg.rounds"] > 0 and metrics["par.other.s"] >= 0


def test_entry_point_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crop1294-p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0 and p.stdout == ""
