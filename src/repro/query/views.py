"""The Segment View and Data Point View (paper §VI-A).

* **Segment View** ``(Tid, StartTime, EndTime, SI, Mid, Parameters,
  Gaps, <Dimensions>)`` — one row per (segment, member Tid); model-based
  UDAF-style aggregates run here (``aggregates.py``, ``time_agg.py``).
* **Data Point View** ``(Tid, TS, Value, <Dimensions>)`` — each row's
  model type evaluates its model back into data points, one frame per
  Arrow batch of a ``mapInPandas`` step; arbitrary Spark SQL works on
  top, so every query remains answerable within ε.

Both views map Tids to Gids through the Time Series table and push Gid
and time predicates into the ``modelardb`` scan (``rewrite.py``).
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.model_types import registry
from ..storage import datasource, segment_store
from . import decode

_META_CORE = ("tid", "gid", "bitpos", "scaling", "si")


def with_group_size(meta: pd.DataFrame) -> pd.DataFrame:
    """The Time Series table with each series' ``group_size``, the number
    of series in its group (needed to unpack models)."""
    return meta.merge(meta.groupby("gid").size().rename("group_size"),
                      left_on="gid", right_index=True)


def load_tsmeta(spark: SparkSession, store_path: str) -> DataFrame:
    """Time Series table with per-group size, as a Spark DataFrame."""
    pdf = with_group_size(segment_store.read_tsmeta(store_path))
    return spark.createDataFrame(pdf.drop(columns=["source"],
                                          errors="ignore"))


def segment_scan(spark: SparkSession, store_path: str,
                 gids: Optional[Sequence[int]] = None,
                 min_end_time: Optional[int] = None,
                 max_start_time: Optional[int] = None) -> DataFrame:
    """Raw segment rows through the DataSourceV2 with push-down."""
    datasource.register(spark)
    r = spark.read.format("modelardb").option("path", store_path)
    if gids is not None:
        r = r.option("gids", ",".join(str(g) for g in sorted(set(gids))))
    if min_end_time is not None:
        r = r.option("min_end_time", str(min_end_time))
    if max_start_time is not None:
        r = r.option("max_start_time", str(max_start_time))
    return r.load()


def segment_view(spark: SparkSession, store_path: str,
                 gids: Optional[Sequence[int]] = None,
                 min_end_time: Optional[int] = None,
                 max_start_time: Optional[int] = None,
                 tids: Optional[Sequence[int]] = None) -> DataFrame:
    """Per-Tid Segment View: segments joined with the Time Series table.

    A Tid participates in a segment only when its gap bit is unset
    (§III-B); Gids-are-pushed / Tids-are-queried per §VI-B.
    """
    segs = segment_scan(spark, store_path, gids, min_end_time,
                        max_start_time)
    # The scan already carries SI per segment; drop the metadata copy to
    # avoid an ambiguous reference after the join.
    meta = load_tsmeta(spark, store_path).drop("si")
    if gids is not None:
        meta = meta.filter(F.col("gid").isin([int(g) for g in gids]))
    if tids is not None:
        meta = meta.filter(F.col("tid").isin([int(t) for t in tids]))
    view = segs.join(F.broadcast(meta), "gid")
    return view.filter(F.expr("(shiftright(gaps, bitpos) & 1) = 0"))


def data_point_view(spark: SparkSession, store_path: str,
                    gids: Optional[Sequence[int]] = None,
                    min_end_time: Optional[int] = None,
                    max_start_time: Optional[int] = None,
                    tids: Optional[Sequence[int]] = None,
                    with_dims: bool = False) -> DataFrame:
    """Data points rebuilt from models (within ε) as a DataFrame."""
    view = segment_view(spark, store_path, gids, min_end_time,
                        max_start_time, tids)
    types = registry()  # read on the driver, as in segment_partials

    def expand(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            yield decode.points(pdf, types)

    points = view.select(*decode.VIEW_COLS).mapInPandas(
        expand, "tid int, ts long, value float")
    if with_dims:
        meta = load_tsmeta(spark, store_path)
        dim_cols = [c for c in meta.columns
                    if c not in _META_CORE + ("group_size",)]
        points = points.join(
            F.broadcast(meta.select("tid", *dim_cols)), "tid")
    return points
