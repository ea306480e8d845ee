"""Simple aggregates executed on models (paper §VI-B, Fig. 11).

The paper exposes UDAFs (``COUNT_S``, ``MIN_S``, ``MAX_S``, ``SUM_S``,
``AVG_S``) over the Segment View.  Their Initialize → Iterate → Finalize
steps map onto Catalyst as:

* *Initialize*: the ``modelardb`` scan with Gid/time push-down;
* *Iterate*: one vectorised ``mapInPandas`` step, shared with the
  ``CUBE_*`` roll-ups of ``time_agg.py``, that cuts each Segment View row
  into pieces and computes their partials with the row's model type
  (``decode.py``) — **constant time** per PMC/Swing piece, decode for
  other types only;
* *Finalize*: an ordinary ``groupBy().agg()`` combining the partials
  (all five aggregates are distributive/algebraic).

Cost is therefore linear in the number of *models*, not data points —
the paper's core query-performance claim.
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from ..core.model_types import registry
from .decode import INTERVALS, VIEW_COLS, cut, partials, view_columns


def segment_partials(view: DataFrame, group_cols: Sequence[str] = ("tid",),
                     interval: Optional[str] = None) -> DataFrame:
    """Partials (cnt, total, lo, hi) per piece of each Segment View row,
    with its ``bucket_start`` and the pass-through grouping columns (Tid
    and/or denormalised dimension members).

    Without ``interval`` a row is one piece (``bucket_start`` 0); with
    one, a row gives a piece per interval it has points in.  An
    interval not in ``decode.INTERVALS`` raises ``ValueError`` at the
    call, before any Spark job runs.
    """
    if interval is not None and interval not in INTERVALS:
        raise ValueError(f"unsupported interval {interval!r}")
    passthrough = [c for c in group_cols if c != "tid"]
    schema_extra = "".join(f", {c} string" for c in passthrough)
    out_schema = ("tid int, bucket_start long, cnt long, total double, "
                  "lo double, hi double" + schema_extra)
    # Read on the driver, so that model types registered there are
    # queryable in the Python workers too (§III-A).
    types = registry()

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            cols = view_columns(pdf)
            row, first, count, bucket = cut(cols, interval)
            total, lo, hi = partials(cols, types, row, first, count)
            out = {"tid": pdf["tid"].to_numpy(np.int32)[row],
                   "bucket_start": bucket, "cnt": count, "total": total,
                   "lo": lo, "hi": hi}
            for c in passthrough:
                out[c] = pdf[c].astype(str).to_numpy()[row]
            yield pd.DataFrame(out)

    return view.select(*VIEW_COLS, *passthrough).mapInPandas(compute,
                                                            out_schema)


def agg_exprs(aggs: Sequence[str]) -> List[Column]:
    """The requested ``*_S`` aggregates over partials, in a fixed order."""
    exprs = {"count": F.sum("cnt").alias("count_s"),
             "sum": F.sum("total").alias("sum_s"),
             "avg": (F.sum("total") / F.sum("cnt")).alias("avg_s"),
             "min": F.min("lo").alias("min_s"),
             "max": F.max("hi").alias("max_s")}
    return [e for name, e in exprs.items() if name in aggs]


def simple_agg(view: DataFrame, group_cols: Sequence[str] = ("tid",),
               aggs: Sequence[str] = ("count", "sum", "avg", "min", "max"),
               ) -> DataFrame:
    """The *_S UDAFs: aggregate a Segment View on models.

    ``group_cols`` may name ``tid`` and/or dimension columns present in
    the view — aggregates in the user-defined dimensions reduce to a
    GROUP BY on the denormalised columns (§VI-A).  Pass ``()`` for a
    data-set-wide aggregate.
    """
    return segment_partials(view, group_cols).groupBy(*group_cols).agg(
        *agg_exprs(aggs))
