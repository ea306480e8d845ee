"""Spark ingestion: GOLEMM as a DataFrame → DataFrame physical operator.

ModelarDB+ assigns whole groups to workers so each group is compressed
by one node (§IV-A).  The Spark-native equivalent is
``points.groupBy("gid").applyInPandas(compress, SEGMENT_SCHEMA)``: each
group's data points arrive at exactly one task, are pivoted to the
(timestamps × series) buffer GOLEMM expects (missing rows become gaps),
compressed, and emitted as segment rows.  No shuffle is needed at query
time for per-group work, matching the paper's architecture.

A JVM physical operator is out of scope in this container (no Scala
toolchain); ``applyInPandas`` preserves the execution structure
(group-local, vectorised, parallel across groups) — see DESIGN.md §4.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..storage.schema import SEGMENT_SCHEMA, segment_columns
from .golemm import DEFAULT_MODEL_TYPES, CompressStats, compress_group
from .segment import Segment


def _group_info(meta: pd.DataFrame) -> Dict[int, dict]:
    """Per-gid ingestion context captured into the compress closure."""
    info: Dict[int, dict] = {}
    for gid, rows in meta.groupby("gid"):
        rows = rows.sort_values("tid")
        info[int(gid)] = {
            "tids": rows["tid"].astype(int).tolist(),
            "scalings": rows["scaling"].astype(float).to_numpy(),
            "si": int(rows["si"].iloc[0]),
        }
    return info


def pivot_group(pdf: pd.DataFrame, tids: Sequence[int], si: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Long (tid, ts, value) → regular (timestamps, value-matrix).

    The time axis spans min..max observed timestamp at SI spacing;
    missing (tid, ts) combinations become NaN — the paper's ⊥ values of
    a regular time series with gaps (§II).
    """
    t_lo, t_hi = int(pdf["ts"].min()), int(pdf["ts"].max())
    ts = np.arange(t_lo, t_hi + si, si, dtype=np.int64)
    n_t = len(ts)
    V = np.full((n_t, len(tids)), np.nan, dtype=np.float32)
    col = {t: j for j, t in enumerate(tids)}
    rows = ((pdf["ts"].to_numpy(np.int64) - t_lo) // si).astype(np.int64)
    cols = pdf["tid"].map(col).to_numpy(np.int64)
    V[rows, cols] = pdf["value"].to_numpy(np.float32)
    return ts, V


def compress_points(pdf: pd.DataFrame, gid: int, group: dict,
                    eps_pct: float, model_types=DEFAULT_MODEL_TYPES,
                    stats: Optional[CompressStats] = None) -> List[Segment]:
    """Pivot, scale and compress the points of one group (GOLEMM).

    ``group`` is the group's entry of :func:`_group_info`.  Both
    ``pivot_group`` and ``compress_group`` are looked up when this runs,
    so a caller may replace them on this module.
    """
    ts, V = pivot_group(pdf, group["tids"], group["si"])
    V = V / group["scalings"][None, :].astype(np.float32)
    return compress_group(ts, V, eps_pct, gid=gid, si=group["si"],
                          model_types=model_types, stats=stats)


def ingest(spark: SparkSession, points: DataFrame, meta: pd.DataFrame,
           eps_pct: float, *, model_types=DEFAULT_MODEL_TYPES) -> DataFrame:
    """Compress a long-format points DataFrame into segment rows.

    ``meta`` must carry ``gid`` assignments from the grouping layer
    (``dims/grouping.py``); the tiny tid→gid map is broadcast-joined
    onto the points so each group lands in one task, where ``compress``
    turns the group's points into rows of the Segment table.
    """
    tid_gid = spark.createDataFrame(meta[["tid", "gid"]])
    with_gid = points.join(F.broadcast(tid_gid), "tid")
    info = _group_info(meta)

    def compress(pdf: pd.DataFrame) -> pd.DataFrame:
        gid = int(pdf["gid"].iloc[0])
        return pd.DataFrame(segment_columns(compress_points(
            pdf, gid, info[gid], eps_pct, model_types=model_types)))

    return with_gid.groupBy("gid").applyInPandas(compress, SEGMENT_SCHEMA)


def ingest_local(points: pd.DataFrame, meta: pd.DataFrame, eps_pct: float,
                 *, model_types=DEFAULT_MODEL_TYPES,
                 stats: Optional[CompressStats] = None) -> list[Segment]:
    """Driver-side ingestion of a pandas points frame (used by the
    instrumented compression experiments, where per-group CompressStats
    must be aggregated — applyInPandas cannot return side channels)."""
    info = _group_info(meta)
    out: list[Segment] = []
    for gid, pdf in points.groupby(points["tid"].map(
            meta.set_index("tid")["gid"])):
        out.extend(compress_points(pdf, int(gid), info[int(gid)], eps_pct,
                                   model_types=model_types, stats=stats))
    return out
