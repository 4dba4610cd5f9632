"""Distributed all-pairs shortest paths over the TMFG.

APSP is the DBHT bottleneck (Section VII, runtime decomposition). The
paper runs one Dijkstra per source in parallel; here the source vertices
are split over Spark partitions, each task runs the shared Dijkstra
substrate (``repro.graphs.shortest_paths.apsp``) for its block of sources
and returns the dense ``(len(block), n)`` float64 rows, and the driver
writes the blocks into one ``(n, n)`` matrix. The rows are bit-identical
to the driver's, whatever the partition count.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.shortest_paths import apsp


def apsp_matrix(spark: SparkSession, n: int, edges: np.ndarray,
                weights: np.ndarray, partitions: int | None = None
                ) -> np.ndarray:
    """Dense ``(n, n)`` APSP matrix, sources fanned out over
    ``partitions`` (default: ``defaultParallelism``) Spark tasks."""
    sc = spark.sparkContext
    e = np.asarray(edges, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)

    def run(sources):
        block = np.fromiter(sources, dtype=np.int64)
        if block.size:
            yield block, apsp(n, e, w, sources=block)

    out = np.empty((n, n))
    parts = partitions or sc.defaultParallelism
    for block, rows in sc.parallelize(range(n), parts).mapPartitions(run).collect():
        out[block] = rows
    return out
