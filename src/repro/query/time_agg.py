"""Aggregates in the time dimension on models (paper §VI-C, Algorithm 3).

``CUBE_<AGG>_<INTERVAL>`` roll-ups: a segment spanning several
aggregation intervals contributes partials to each one.  Per Algorithm
3, the first interval runs from the segment's start to the next
interval boundary, then boundary to boundary, and the final (inclusive)
interval to the segment's end — segments are disconnected so no data
point is counted twice.

No explicit time dimension is stored: everything derives from
StartTime/EndTime/SI (§III-C).  ``decode.cut`` cuts each Segment View
row into one piece per interval, and the row's model type computes the
pieces' partials in the same ``mapInPandas`` step as the simple
aggregates (``aggregates.segment_partials``).
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame

from .aggregates import agg_exprs, segment_partials


def cube_agg(view: DataFrame, interval: str,
             group_cols: Sequence[str] = ("tid",),
             aggs: Sequence[str] = ("count", "sum", "avg", "min", "max"),
             ) -> DataFrame:
    """CUBE_<AGG>_<INTERVAL> over a Segment View.

    Returns one row per (group_cols…, bucket_start) with the requested
    aggregates; ``bucket_start`` is the epoch-ms start of the interval
    (``minute``, ``hour``, ``day`` or ``month``).
    """
    partials = segment_partials(view, group_cols, interval)
    return partials.groupBy(*group_cols, "bucket_start").agg(
        *agg_exprs(aggs))
