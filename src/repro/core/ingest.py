"""Spark ingestion: GOLEMM as a DataFrame → DataFrame physical operator.

ModelarDB+ assigns whole groups to workers so each group is compressed
by one node (§IV-A).  The Spark-native equivalent is
``points.repartition(n, "gid").groupBy("gid").applyInPandas(compress,
SEGMENT_SCHEMA)`` with ``n = min(#groups, defaultParallelism)``: one
shuffle sends each group's data points to one of at most one task per
core, where each group is pivoted to the (timestamps × series) buffer
GOLEMM expects (missing rows become gaps), compressed, and emitted as
segment rows.  No shuffle is needed at query time for per-group work,
matching the paper's architecture.  Spark's hash of the Gid, not
§IV-C's balancing by data points, decides which task gets a group.

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
from ..worker import trim_importer_cache
from .golemm import DEFAULT_MODEL_TYPES, CompressStats, compress_group
from .segment import Segment


def _group_info(meta: pd.DataFrame) -> Dict[int, dict]:
    """Per-gid ingestion context, columns in (gap-mask) ``bitpos`` order."""
    info: Dict[int, dict] = {}
    for gid, rows in meta.groupby("gid"):
        rows = rows.sort_values("bitpos")
        info[int(gid)] = {
            "tids": rows["tid"].astype(int).tolist(),
            "scalings": rows["scaling"].astype(float).to_numpy(),
            "si": int(rows["si"].iloc[0]),
        }
    return info


def _unknown_tids(tids) -> ValueError:
    return ValueError(f"points of tids {sorted(set(map(int, tids)))} have "
                      "no gid in meta")


def pivot_group(pdf: pd.DataFrame, tids: Sequence[int], si: int,
                gid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Long (tid, ts, value) → regular (timestamps, value-matrix).

    The time axis spans min..max observed timestamp at SI spacing;
    missing (tid, ts) combinations become NaN — the paper's ⊥ values of
    a regular time series with gaps (§II).  A timestamp off the group's
    SI grid or a repeated (tid, ts) raises ``ValueError`` naming ``gid``.
    """
    t_lo, t_hi = int(pdf["ts"].min()), int(pdf["ts"].max())
    ts = np.arange(t_lo, t_hi + si, si, dtype=np.int64)
    n_t = len(ts)
    V = np.full((n_t, len(tids)), np.nan, dtype=np.float32)
    col = {t: j for j, t in enumerate(tids)}
    rows, off = np.divmod(pdf["ts"].to_numpy(np.int64) - t_lo, si)
    if off.any():
        raise ValueError(f"group {gid}: a timestamp is off the SI {si} "
                         f"grid starting at {t_lo}")
    cols = pdf["tid"].map(col).to_numpy(np.int64)
    seen = np.zeros(V.shape, dtype=bool)
    seen[rows, cols] = True
    if np.count_nonzero(seen) < len(rows):
        raise ValueError(f"group {gid}: a (tid, ts) point is repeated")
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
    ts, V = pivot_group(pdf, group["tids"], group["si"], gid)
    V = V / group["scalings"][None, :].astype(np.float32)
    return compress_group(ts, V, eps_pct, gid=gid, si=group["si"],
                          model_types=model_types, stats=stats)


def ingest(spark: SparkSession, points: DataFrame, meta: pd.DataFrame,
           eps_pct: float, *, model_types=DEFAULT_MODEL_TYPES) -> DataFrame:
    """Compress a long-format points DataFrame into segment rows.

    ``meta`` must carry ``gid`` assignments from the grouping layer
    (``dims/grouping.py``); the tiny tid→gid map is broadcast-joined
    onto the points, which are hash-partitioned by gid into
    ``min(#groups, defaultParallelism)`` tasks, where ``compress`` turns
    each group's points into rows of the Segment table.  Points whose
    tid is not in ``meta`` fail the job with a ``ValueError`` naming
    those tids.
    """
    tid_gid = spark.createDataFrame(meta[["tid", "gid"]])
    info = _group_info(meta)
    # At most one task per core, each compressing whole groups (§IV-C).
    # AQE neither coalesces nor splits a partition count set here, and
    # every extra task costs a Python task start (~0.03 CPU s in a
    # reused worker, DESIGN.md §4).  The left join keeps points of an
    # unknown tid, as the null gid's group, so that ``compress`` rejects
    # them.
    n_tasks = min(len(info), spark.sparkContext.defaultParallelism)
    with_gid = points.join(F.broadcast(tid_gid), "tid", "left").repartition(
        n_tasks, "gid")

    def compress(pdf: pd.DataFrame) -> pd.DataFrame:
        trim_importer_cache()
        gid = pdf["gid"].iloc[0]
        if pd.isna(gid):
            raise _unknown_tids(pdf["tid"])
        gid = int(gid)
        return pd.DataFrame(segment_columns(compress_points(
            pdf, gid, info[gid], eps_pct, model_types=model_types)))

    return with_gid.groupBy("gid").applyInPandas(compress, SEGMENT_SCHEMA)


def ingest_local(points: pd.DataFrame, meta: pd.DataFrame, eps_pct: float,
                 *, model_types=DEFAULT_MODEL_TYPES,
                 stats: Optional[CompressStats] = None) -> list[Segment]:
    """Driver-side ingestion of a pandas points frame (used by the
    instrumented compression experiments, where per-group CompressStats
    must be aggregated — applyInPandas cannot return side channels).
    Points whose tid is not in ``meta`` raise ``ValueError``."""
    known = points["tid"].isin(meta["tid"])
    if not known.all():
        raise _unknown_tids(points.loc[~known, "tid"])
    info = _group_info(meta)
    out: list[Segment] = []
    for gid, pdf in points.groupby(points["tid"].map(
            meta.set_index("tid")["gid"])):
        out.extend(compress_points(pdf, int(gid), info[int(gid)], eps_pct,
                                   model_types=model_types, stats=stats))
    return out
