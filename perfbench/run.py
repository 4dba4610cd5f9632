"""Raw-series-to-dendrogram benchmark for SEQ-TDBHT and PAR-TDBHT.

Run from the repository root:

    python3 perfbench/run.py --workload ecg334-p100 --seed 1 --seconds 25 --trace 0

The process owns its Spark launch: ``local[*]``, 64 shuffle partitions,
Arrow on, automatic broadcast joins off, UI off (the test fixture's
settings), driver memory half of MemTotal clamped to 2-8 GiB (the tier-1
formula), ``src`` on the Python workers' path, and every temporary file
under ``perfbench/.work``. ``repro.bench.get_spark`` is not used.

``setup_s`` covers SparkSession start, input generation and the warm-up
(one SEQ-TDBHT and one PAR-TDBHT clustering of a small generated input).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``layers.py``). The next-to-last
line of standard output is a record of the environment, the sample counts
and the SHA-256 of input 0's outputs; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")


def driver_memory() -> str:
    """Half of MemTotal in whole GiB, clamped to 2-8 GiB."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    gib = int(line.split()[1]) // 2097152
                    return f"{min(max(gib, 2), 8)}g"
    except OSError:
        pass
    return "2g"


def launch_env(work: str, memory: str) -> None:
    """Environment read by spark-submit, the JVM and the Python workers."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ.update({
        "PYTHONPATH": SRC + (os.pathsep + path if path else ""),
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_DRIVER_PYTHON": sys.executable,
        "TMPDIR": tmp,
        "SPARK_LOCAL_DIRS": tmp,
        "PYSPARK_SUBMIT_ARGS": (
            f"--master local[*] --driver-memory {memory} "
            f"--driver-java-options -Djava.io.tmpdir={tmp} "
            "--conf spark.driver.host=127.0.0.1 "
            "--conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            f"--conf spark.local.dir={tmp} pyspark-shell"),
    })


def start_session(work: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(work, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM (and with it the Python workers)."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package 'repro' under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    from layers import LayerTracer

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    work = os.path.join(WORK, str(os.getpid()))
    memory = driver_memory()
    launch_env(work, memory)
    try:
        t0 = time.perf_counter()
        spark = start_session(work)
        try:
            inputs = harness.make_inputs(wl, args.seed)
            harness.warm_up(spark, wl, args.seed)
            setup_s = time.perf_counter() - t0
            if args.trace:
                with LayerTracer(spark.sparkContext) as tracer:
                    m = harness.measure(spark, wl, inputs, args.seconds, tracer)
                metrics = harness.per_layer(m)
            else:
                tracer = None
                m = harness.measure(spark, wl, inputs, args.seconds)
                metrics = harness.end_to_end(m)
                metrics["setup_s"] = setup_s
            import numpy
            import pyspark
            record = {
                "workload": wl.name, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "git_sha": git_sha(), "nproc": os.cpu_count(),
                "driver_memory": memory,
                "spark_master": spark.sparkContext.master,
                "python": platform.python_version(),
                "spark": pyspark.__version__, "numpy": numpy.__version__,
                "dataset": inputs[0].name, "n": inputs[0].n,
                "L": inputs[0].length, "prefix": wl.prefix,
                "samples": harness.sample_counts(m),
                "wall_s": {path: [round(o.wall_s, 4) for o in m.of(path)]
                           for path in ("par", "seq")},
                "par_ari_input0": next((o.ari for o in m.of("par")), None),
                "output_sha256": m.digest,
                "absent_layers": tracer.absent if tracer else [],
                "failures": m.failures,
            }
        finally:
            stop_session(spark)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name][0]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
