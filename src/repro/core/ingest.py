"""Spark ingestion: GOLEMM as a DataFrame → DataFrame physical operator.

ModelarDB+ assigns whole groups to workers so each group is compressed
by one node (§IV-A).  The Spark-native equivalent here is

    points.mapInArrow(pack)
          .repartition(n, "gid").groupBy("gid").applyInPandas(compress)

with ``n = min(#groups, defaultParallelism)``.  ``pack`` runs in each
input partition: it maps every tid to its Gid with a sorted lookup built
from ``meta`` on the driver and emits one row per Gid, whose point
columns are raw int64/int64/float32 bytes (:data:`BLOCK_TYPES`).  So the
one shuffle moves a few blocks per input partition, not one row per
point, to at most one task per core.  There ``compress`` concatenates a
group's blocks, pivots them to the (timestamps × series) buffer GOLEMM
expects (missing rows become gaps), compresses, and emits segment rows.
No shuffle is needed at query time for per-group work, matching the
paper's architecture.  Spark's hash of the Gid, not §IV-C's balancing
by data points, decides which task gets a group.

A JVM physical operator is out of scope in this container (no Scala
toolchain); ``applyInPandas`` preserves the execution structure
(group-local, vectorised, parallel across groups) — see DESIGN.md §4.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from ..storage.schema import SEGMENT_SCHEMA, segment_columns
from ..worker import trim_importer_cache
from .golemm import DEFAULT_MODEL_TYPES, CompressStats, compress_group
from .segment import Segment

#: Each point column of a packed block and the type of its raw bytes.
BLOCK_TYPES = (("tid", np.int64), ("ts", np.int64), ("value", np.float32))
BLOCK_SCHEMA = "gid bigint, tid binary, ts binary, value binary"


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
    tids = pd.Series(tids)
    names = ["null"] * bool(tids.isna().any()) + [
        str(t) for t in sorted(set(map(int, tids.dropna())))]
    return ValueError(f"points of tids [{', '.join(names)}] have no gid "
                      "in meta")


def _gid_lookup(meta: pd.DataFrame) -> Tuple[np.ndarray, np.ndarray]:
    """``meta``'s tids in ascending order, and the Gid of each."""
    tids = meta["tid"].to_numpy(np.int64)
    order = np.argsort(tids)
    return tids[order], meta["gid"].to_numpy(np.int64)[order]


def pack_blocks(points: pa.Table, tids: np.ndarray,
                gids: np.ndarray) -> pa.RecordBatch:
    """One row per Gid of ``points``: the Gid and, per column of
    :data:`BLOCK_TYPES`, the raw bytes of its points cast to that type.

    ``tids``/``gids`` come from :func:`_gid_lookup`.  A null tid, or one
    not in ``tids``, raises ``ValueError`` naming it.
    """
    # A null tid becomes NaN here, which equals no tid of ``tids``.
    tid = points.column("tid").to_numpy()
    pos = np.searchsorted(tids, tid).clip(max=len(tids) - 1)
    known = tids[pos] == tid
    if not known.all():
        raise _unknown_tids(tid[~known])
    gid = gids[pos]
    order = np.argsort(gid, kind="stable")
    block_gids, starts = np.unique(gid[order], return_index=True)
    columns = {"gid": block_gids}
    for (name, dtype), col in zip(BLOCK_TYPES, (
            tid, points.column("ts").to_numpy(),
            points.column("value").to_numpy())):
        columns[name] = [part.tobytes() for part in np.split(
            col.astype(dtype, copy=False)[order], starts[1:])]
    return pa.RecordBatch.from_pydict(columns)


def unpack_blocks(blocks: pd.DataFrame) -> pd.DataFrame:
    """The (tid, ts, value) points of packed blocks, concatenated."""
    return pd.DataFrame({name: np.frombuffer(b"".join(blocks[name]), dtype)
                         for name, dtype in BLOCK_TYPES})


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
    (``dims/grouping.py``).  ``pack`` turns each input partition's
    ``tid``/``ts``/``value`` columns, of any integer or float types,
    into one block per Gid; the blocks are hash-partitioned by Gid into
    ``min(#groups, defaultParallelism)`` tasks, where ``compress`` turns
    each group's points into rows of the Segment table.  Points of a
    null tid or of a tid not in ``meta`` fail the job with a
    ``ValueError`` naming those tids.

    Sets ``spark.sql.execution.arrow.maxBytesPerBatch`` to ``Int.MaxValue``
    on ``spark``: at any other value Spark 4.1 measures the Arrow buffers
    after every row it sends to ``pack`` (DESIGN.md §4).
    """
    info = _group_info(meta)
    tids, gids = _gid_lookup(meta)
    spark.conf.set("spark.sql.execution.arrow.maxBytesPerBatch",
                   str(2**31 - 1))
    # At most one task per core, each compressing whole groups (§IV-C).
    # AQE neither coalesces nor splits a partition count set here, and
    # every extra task costs a Python task start (~0.03 CPU s in a
    # reused worker, DESIGN.md §4).
    n_tasks = min(len(info), spark.sparkContext.defaultParallelism)

    def pack(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        trim_importer_cache()
        batches = list(batches)
        if batches:
            yield pack_blocks(pa.Table.from_batches(batches), tids, gids)

    def compress(blocks: pd.DataFrame) -> pd.DataFrame:
        trim_importer_cache()
        gid = int(blocks["gid"].iloc[0])
        return pd.DataFrame(segment_columns(compress_points(
            unpack_blocks(blocks), gid, info[gid], eps_pct,
            model_types=model_types)))

    return (points.select("tid", "ts", "value")
            .mapInArrow(pack, BLOCK_SCHEMA)
            .repartition(n_tasks, "gid")
            .groupBy("gid").applyInPandas(compress, SEGMENT_SCHEMA))


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
