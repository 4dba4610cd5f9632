"""End-to-end PAR-TDBHT pipeline with the paper's step-timing breakdown.

``par_tdbht`` and ``seq_tdbht`` run the same steps on the driver and
differ only in where the APSP Dijkstras run: ``seq_tdbht`` (the
SEQ-TDBHT analog) runs them on the driver; ``par_tdbht`` fans the source
vertices out over Spark tasks, its one Spark job. The steps are
prefix-batched TMFG construction (Algorithm 1, ``repro.core.tmfg``),
APSP, bubble-tree directions plus vertex assignments, and the three-level
linkage (``repro.core.dbht``). Each returns the dendrogram plus per-step
wall times keyed exactly like Figure 5: ``tmfg``, ``apsp``,
``bubble-tree`` (directions + assignments), ``hierarchy``.

``partitions`` sets the number of APSP tasks (tasks <= partitions in
local mode), standing in for the paper's thread-count knob in the
scalability experiment (Figure 4) — see DESIGN.md substitutions.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
from pyspark.sql import SparkSession

from repro.core import dbht as dbht_mod
from repro.core.dbht import DBHTResult
from repro.core.tmfg import TMFGResult, tmfg
from repro.graphs import shortest_paths
from repro.spark.apsp_spark import apsp_matrix


@dataclass
class TimedRun:
    """A clustering run plus its per-step wall-times (seconds)."""

    tmfg: TMFGResult
    result: DBHTResult
    times: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.times.values())


def par_tdbht(spark: SparkSession, S: np.ndarray, D: np.ndarray,
              prefix: int = 10, partitions: Optional[int] = None) -> TimedRun:
    """Parallel TMFG + DBHT (PAR-TDBHT): APSP in Spark, the rest on the
    driver."""
    return _tdbht(S, D, prefix,
                  functools.partial(apsp_matrix, spark, partitions=partitions))


def seq_tdbht(S: np.ndarray, D: np.ndarray, prefix: int = 1) -> TimedRun:
    """Sequential TMFG + DBHT on the driver (SEQ-TDBHT analog)."""
    return _tdbht(S, D, prefix, shortest_paths.apsp)


def _tdbht(S: np.ndarray, D: np.ndarray, prefix: int,
           apsp_rows: Callable[..., np.ndarray]) -> TimedRun:
    if np.shape(D) != np.shape(S):
        raise ValueError(f"D must have S's shape {np.shape(S)}, "
                         f"got {np.shape(D)}")
    times: Dict[str, float] = {}
    t0 = time.monotonic()
    t = tmfg(S, prefix=prefix)
    times["tmfg"] = time.monotonic() - t0

    t0 = time.monotonic()
    dist = dbht_mod.tmfg_apsp(D, t, rows=apsp_rows)
    times["apsp"] = time.monotonic() - t0

    t0 = time.monotonic()
    assign = dbht_mod.assign_vertices(S, t, dist)
    times["bubble-tree"] = time.monotonic() - t0

    t0 = time.monotonic()
    dendro = dbht_mod.build_hierarchy(assign, dist)
    times["hierarchy"] = time.monotonic() - t0
    return TimedRun(tmfg=t, result=DBHTResult(dendrogram=dendro,
                                              assignments=assign, apsp=dist),
                    times=times)
