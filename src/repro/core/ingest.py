"""Spark ingestion: GOLEMM as a DataFrame → DataFrame physical operator.

ModelarDB+ assigns whole groups to workers so each group is compressed
by one node (§IV-A).  The Spark-native equivalent here is

    points.mapInArrow(pack)
          .repartition(n, "gid").groupBy("gid").applyInPandas(compress)

with ``n = min(#groups, defaultParallelism)``.  :func:`read_meta` reads
``meta`` once, on the driver, and :func:`split_points` cuts points into
one (bit, ts, value) run per Gid; a series' gap-mask bit is its column.
``pack`` emits an input partition's runs as one row per Gid of raw bytes
(:data:`BLOCK_TYPES`, 13 B per point), so the one shuffle moves a few
blocks per input partition to at most one task per core, where
``compress`` scatters a group's points into the (timestamps × series)
buffer GOLEMM expects (missing rows become gaps) and compresses them.
:func:`ingest_local` runs the same split and :func:`compress_points` on
the driver.  Spark's hash of the Gid, not §IV-C's balancing by data
points, decides which task gets a group.

A JVM physical operator is out of scope in this container (no Scala
toolchain); ``applyInPandas`` preserves the execution structure
(group-local, vectorised, parallel across groups) — see DESIGN.md §4.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from ..storage.schema import SEGMENT_SCHEMA, segment_columns
from ..worker import trim_importer_cache
from .golemm import DEFAULT_MODEL_TYPES, CompressStats, compress_group
from .segment import Segment

#: Each point column of a packed block and the type of its raw bytes.
BLOCK_TYPES = (("bit", np.uint8), ("ts", np.int64), ("value", np.float32))
BLOCK_SCHEMA = "gid bigint, bit binary, ts binary, value binary"


def read_meta(meta: pd.DataFrame) -> Tuple[tuple, Dict[int, tuple]]:
    """The one reading of ``meta`` for ingestion: a lookup (Tids
    ascending, the Gid and gap-mask bit of each), and per Gid its SI and
    scalings in bit order.  A Gid whose ``bitpos`` are not 0…n−1, or a
    Tid listed twice, raises ``ValueError`` naming it."""
    gid, bit, tid = (meta[c].to_numpy(np.int64)
                     for c in ("gid", "bitpos", "tid"))
    order = np.lexsort((bit, gid))
    gid, bit, tid = gid[order], bit[order], tid[order]
    starts = np.unique(gid, return_index=True)[1]
    ends = np.r_[starts[1:], len(gid)]
    bad = bit != np.arange(len(gid)) - np.repeat(starts, ends - starts)
    if bad.any():
        raise ValueError(f"group {gid[bad][0]}: bitpos must be 0…n−1")
    by_tid = np.argsort(tid, kind="stable")
    tids = tid[by_tid]
    twice = tids[1:][tids[1:] == tids[:-1]]
    if len(twice):
        raise ValueError(f"tid {twice[0]} is listed more than once in meta")
    si = meta["si"].to_numpy(np.int64)[order]
    scaling = meta["scaling"].to_numpy(np.float64)[order]
    return ((tids, gid[by_tid], bit[by_tid].astype(np.uint8)),
            {int(gid[a]): (int(si[a]), scaling[a:b])
             for a, b in zip(starts, ends)})


def _unknown_tids(tids) -> ValueError:
    tids = pd.Series(tids)
    names = ["null"] * bool(tids.isna().any()) + [
        str(t) for t in sorted(set(map(int, tids.dropna())))]
    return ValueError(f"points of tids [{', '.join(names)}] have no gid "
                      "in meta")


def split_points(points: pa.Table, lookup: tuple
                 ) -> Dict[int, Tuple[np.ndarray, ...]]:
    """The (bit, ts, value) run of each Gid of ``points``, in ascending
    Gid order, cast to :data:`BLOCK_TYPES`.  A null tid, or one not in
    the lookup of :func:`read_meta`, raises ``ValueError`` naming it; so
    does a NaN or null value, which ``pivot_group`` could not tell from a
    gap, naming its tid and timestamp."""
    tids, gids, bits = lookup
    # A null tid becomes NaN here, which equals no tid of ``tids``.
    tid = points.column("tid").to_numpy()
    pos = np.searchsorted(tids, tid).clip(max=len(tids) - 1)
    known = tids[pos] == tid if len(tids) else np.zeros(len(tid), bool)
    if not known.all():
        raise _unknown_tids(tid[~known])
    ts, value = (points.column(name).to_numpy().astype(dtype, copy=False)
                 for name, dtype in BLOCK_TYPES[1:])
    nan = np.isnan(value)
    if nan.any():
        i = int(np.argmax(nan))
        raise ValueError(f"the point of tid {int(tid[i])} at ts {ts[i]} has "
                         "a NaN or null value")
    gid = gids[pos]
    order = np.argsort(gid, kind="stable")
    keys, starts = np.unique(gid[order], return_index=True)
    cols = [bits[pos][order], ts[order], value[order]]
    return {g: tuple(c[a:b] for c in cols) for g, a, b in zip(
        keys.tolist(), starts, np.r_[starts[1:], len(gid)])}


def unpack_blocks(blocks: pd.DataFrame) -> Tuple[np.ndarray, ...]:
    """The (bit, ts, value) run of packed blocks, concatenated."""
    return tuple(np.frombuffer(b"".join(blocks[name]), dtype)
                 for name, dtype in BLOCK_TYPES)


def pivot_group(bit: np.ndarray, ts: np.ndarray, value: np.ndarray,
                n_series: int, si: int, gid: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """A group's (bit, ts, value) run → regular (timestamps, value-matrix).

    The time axis spans min..max observed timestamp at SI spacing and a
    point's column is its bit; missing points become NaN — the paper's ⊥
    values of a regular time series with gaps (§II).  A timestamp off the
    SI grid or a repeated (bit, ts) raises ``ValueError`` naming ``gid``.
    """
    t_lo, t_hi = int(ts.min()), int(ts.max())
    grid = np.arange(t_lo, t_hi + si, si, dtype=np.int64)
    rows, off = np.divmod(ts - t_lo, si)
    if off.any():
        raise ValueError(f"group {gid}: a timestamp is off the SI {si} "
                         f"grid starting at {t_lo}")
    V = np.full((len(grid), n_series), np.nan, dtype=np.float32)
    seen = np.zeros(V.shape, dtype=bool)
    seen[rows, bit] = True
    if np.count_nonzero(seen) < len(rows):
        raise ValueError(f"group {gid}: a (tid, ts) point is repeated")
    V[rows, bit] = value
    return grid, V


def compress_points(run: tuple, gid: int, group: tuple, eps_pct: float,
                    model_types=DEFAULT_MODEL_TYPES,
                    stats: Optional[CompressStats] = None) -> List[Segment]:
    """Pivot, scale and compress the run of one group (GOLEMM).

    ``group`` is the group's (SI, scalings) of :func:`read_meta`.  Both
    ``pivot_group`` and ``compress_group`` are looked up when this runs,
    so a caller may replace them on this module.
    """
    si, scalings = group
    ts, V = pivot_group(*run, len(scalings), si, gid)
    V = V / scalings[None, :].astype(np.float32)
    return compress_group(ts, V, eps_pct, gid=gid, si=si,
                          model_types=model_types, stats=stats)


def ingest(spark: SparkSession, points: DataFrame, meta: pd.DataFrame,
           eps_pct: float, *, model_types=DEFAULT_MODEL_TYPES) -> DataFrame:
    """Compress a long-format points DataFrame into segment rows.

    ``meta`` must carry ``gid`` assignments from the grouping layer
    (``dims/grouping.py``); :func:`read_meta` rejects a bad one.
    ``pack`` turns each input partition's ``tid``/``ts``/``value``
    columns, of any integer or float types, into one block per Gid; the
    blocks are hash-partitioned by Gid into
    ``min(#groups, defaultParallelism)`` tasks, where ``compress`` turns
    each group's points into rows of the Segment table.  Points of a
    null tid or of a tid not in ``meta`` fail the job with a
    ``ValueError`` naming those tids, and a NaN or null value one
    naming its tid and timestamp.

    Sets ``spark.sql.execution.arrow.maxBytesPerBatch`` to ``Int.MaxValue``
    on ``spark``: at any other value Spark 4.1 measures the Arrow buffers
    after every row it sends to ``pack`` (DESIGN.md §4).
    """
    lookup, groups = read_meta(meta)
    spark.conf.set("spark.sql.execution.arrow.maxBytesPerBatch",
                   str(2**31 - 1))
    # At most one task per core, each compressing whole groups (§IV-C).
    # AQE neither coalesces nor splits a partition count set here, and
    # every extra task costs a Python task start (~0.03 CPU s in a
    # reused worker, DESIGN.md §4).
    n_tasks = min(len(groups), spark.sparkContext.defaultParallelism)

    def pack(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        trim_importer_cache()
        batches = list(batches)
        if batches:
            runs = split_points(pa.Table.from_batches(batches), lookup)
            yield pa.RecordBatch.from_pydict({"gid": list(runs), **{
                name: [run[j].tobytes() for run in runs.values()]
                for j, (name, _) in enumerate(BLOCK_TYPES)}})

    def compress(blocks: pd.DataFrame) -> pd.DataFrame:
        trim_importer_cache()
        gid = int(blocks["gid"].iloc[0])
        return pd.DataFrame(segment_columns(compress_points(
            unpack_blocks(blocks), gid, groups[gid], eps_pct,
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
    It runs ``ingest``'s split and compression, in ascending Gid order,
    and raises the same ``ValueError`` on bad points or ``meta``."""
    lookup, groups = read_meta(meta)
    out: list[Segment] = []
    for gid, run in split_points(pa.Table.from_pandas(
            points, columns=["tid", "ts", "value"], preserve_index=False),
            lookup).items():
        out.extend(compress_points(run, gid, groups[gid], eps_pct,
                                   model_types=model_types, stats=stats))
    return out
