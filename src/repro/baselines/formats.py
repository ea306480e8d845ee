"""Industry big-data formats used as baselines (paper §VII-A).

ORC and Parquet are written through Spark exactly as the paper does:
schema ``(Tid int, TS timestamp-as-ms-long, Value float, <Dimensions>)``
with one directory per series (``tid=n`` partitioning) so Spark can
prune by Tid.  Queries run as plain DataFrame aggregates over the
format — the comparison target for model-based query processing.
"""
from __future__ import annotations

import os
from typing import Optional, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def write_format(spark: SparkSession, points: pd.DataFrame,
                 meta: pd.DataFrame, path: str, fmt: str) -> None:
    """Write the points (joined with denormalised dimensions) as
    Parquet or ORC, one directory per Tid."""
    assert fmt in ("parquet", "orc")
    dim_cols = [c for c in meta.columns
                if c not in ("gid", "bitpos", "scaling", "si", "source")]
    pdf = points.merge(meta[dim_cols], on="tid")
    spark.createDataFrame(pdf).write.mode("overwrite").partitionBy(
        "tid").format(fmt).save(path)


def dir_bytes(path: str) -> int:
    """Recursive on-disk footprint of a format directory."""
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            if not f.startswith(("_", ".")):
                total += os.path.getsize(os.path.join(root, f))
    return total


def read_format(spark: SparkSession, path: str, fmt: str) -> DataFrame:
    return spark.read.format(fmt).load(path)


def agg_query(spark: SparkSession, path: str, fmt: str,
              tids: Optional[Sequence[int]] = None,
              aggs: Sequence[str] = ("count", "sum", "avg", "min", "max"),
              ) -> DataFrame:
    """The same per-Tid aggregates the Segment View runs, over raw data."""
    df = read_format(spark, path, fmt)
    if tids is not None:
        df = df.filter(F.col("tid").isin([int(t) for t in tids]))
    exprs = []
    if "count" in aggs:
        exprs.append(F.count("value").alias("count_s"))
    if "sum" in aggs:
        exprs.append(F.sum("value").alias("sum_s"))
    if "avg" in aggs:
        exprs.append(F.avg("value").alias("avg_s"))
    if "min" in aggs:
        exprs.append(F.min("value").alias("min_s"))
    if "max" in aggs:
        exprs.append(F.max("value").alias("max_s"))
    return df.groupBy("tid").agg(*exprs)


def pr_query(spark: SparkSession, path: str, fmt: str,
             tid: Optional[int], ts_min: int, ts_max: int) -> DataFrame:
    """Point/range extraction with WHERE on TS (and optionally Tid)."""
    df = read_format(spark, path, fmt)
    cond = (F.col("ts") >= ts_min) & (F.col("ts") <= ts_max)
    if tid is not None:
        cond = (F.col("tid") == tid) & cond
    return df.filter(cond).select("tid", "ts", "value")
