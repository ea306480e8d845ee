"""Segment View rows → model-type partials and values (paper §VI).

A Segment View row pairs one segment with one Tid of its group: one
column of the segment's value matrix.  The query layer turns a batch of
rows into :class:`~repro.core.model_types.Columns`, cuts them into
*pieces* (runs of a column's points: one per row, or one per
aggregation interval) and asks each row's model type for the pieces'
sums, minima and maxima with ``ModelType.partials``.  The constant and
linear types answer in constant time per piece; every other type,
user-defined ones included, decodes its model's values — only when a
query uses it (Table I: "Only decompress segments when used for
query processing").  Nothing here depends on which model types exist:
the caller passes the registry it read on the driver.
"""
from __future__ import annotations

from typing import Mapping, Optional, Tuple

import numpy as np
import pandas as pd

from ..core.model_types import Columns, ModelType, by_mid

#: The Segment View columns that the query layer's Python steps read.
VIEW_COLS = ["tid", "start_time", "si", "size", "mid", "params", "gaps",
             "bitpos", "scaling", "group_size"]

_MS = {"minute": 60_000, "hour": 3_600_000, "day": 86_400_000}
#: The aggregation intervals of ``CUBE_<AGG>_<INTERVAL>``.
INTERVALS = (*_MS, "month")


def present_count(gaps: int, group_size: int) -> int:
    """Series stored in a segment = group size − set gap bits."""
    return group_size - bin(gaps & ((1 << group_size) - 1)).count("1")


def column_rank(gaps: int, bitpos: int) -> int:
    """Column index of a Tid inside the segment's packed value matrix:
    the rank of its bit position among unset gap bits."""
    mask = (1 << bitpos) - 1
    return bitpos - bin(gaps & mask).count("1")


def view_columns(pdf: pd.DataFrame) -> Columns:
    """The segment columns of a batch of Segment View rows."""
    gaps = pdf["gaps"].tolist()
    return Columns(
        mid=pdf["mid"].to_numpy(np.int64),
        params=pdf["params"].to_numpy(object),
        start=pdf["start_time"].to_numpy(np.int64),
        si=pdf["si"].to_numpy(np.int64),
        size=pdf["size"].to_numpy(np.int64),
        n_series=np.array([present_count(g, n) for g, n in
                           zip(gaps, pdf["group_size"].tolist())], np.int64),
        col=np.array([column_rank(g, b) for g, b in
                      zip(gaps, pdf["bitpos"].tolist())], np.int64),
        scaling=pdf["scaling"].to_numpy(np.float64))


def _interval_index(t: np.ndarray, interval: str) -> np.ndarray:
    """Number of the aggregation interval holding each epoch-ms time."""
    if interval in _MS:
        return t // _MS[interval]
    if interval == "month":
        return t.astype("datetime64[ms]").astype("datetime64[M]").astype(
            np.int64)
    raise ValueError(f"unsupported interval {interval!r}")


def _interval_start(b: np.ndarray, interval: str) -> np.ndarray:
    """Epoch-ms start of each numbered interval."""
    if interval in _MS:
        return b * _MS[interval]
    return b.astype("datetime64[M]").astype("datetime64[ms]").astype(np.int64)


def cut(cols: Columns, interval: Optional[str] = None
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut segment columns into pieces: (row, first, count, interval start).

    Without an interval every column is one piece, with interval start
    0.  With one, a column gives one piece per interval that holds at
    least one of its points (Algorithm 3): from its start to the next
    boundary, boundary to boundary, then to its end.  Intervals between
    two points, when SI is longer than the interval, give no piece.
    """
    n = len(cols.size)
    if interval is None:
        return (np.arange(n), np.zeros(n, np.int64), cols.size,
                np.zeros(n, np.int64))
    end = cols.start + cols.si * (cols.size - 1)
    b0 = _interval_index(cols.start, interval)
    spanned = _interval_index(end, interval) - b0 + 1
    row = np.repeat(np.arange(n), spanned)
    b = b0[row] + np.arange(len(row)) - np.repeat(
        np.cumsum(spanned) - spanned, spanned)
    start, si = cols.start[row], cols.si[row]
    # First point at or after each boundary: ceil((boundary - start) / si).
    first = np.maximum(-((start - _interval_start(b, interval)) // si), 0)
    stop = np.minimum(-((start - _interval_start(b + 1, interval)) // si),
                      cols.size[row])
    keep = stop > first
    return (row[keep], first[keep], (stop - first)[keep],
            _interval_start(b[keep], interval))


def partials(cols: Columns, types: Mapping[int, ModelType], row: np.ndarray,
             first: np.ndarray, count: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum, min and max of each piece, from its column's model type."""
    total, lo, hi = (np.empty(len(row)) for _ in range(3))
    mids = cols.mid[row]
    for mid in np.unique(mids):
        k = mids == mid
        total[k], lo[k], hi[k] = types[mid].partials(cols, row[k], first[k],
                                                     count[k])
    return total, lo, hi


def points(pdf: pd.DataFrame, types: Mapping[int, ModelType]
           ) -> pd.DataFrame:
    """Data points (tid, ts, value) of a batch of Segment View rows."""
    cols = view_columns(pdf)
    vals = [types[m].column(cols, i) for i, m in enumerate(cols.mid)]
    pos = np.arange(cols.size.sum()) - np.repeat(
        np.cumsum(cols.size) - cols.size, cols.size)
    scaled = (np.concatenate(vals or [np.empty(0)]).astype(np.float64)
              * np.repeat(cols.scaling, cols.size))
    return pd.DataFrame({
        "tid": np.repeat(pdf["tid"].to_numpy(np.int32), cols.size),
        "ts": np.repeat(cols.start, cols.size)
        + np.repeat(cols.si, cols.size) * pos,
        "value": scaled.astype(np.float32)})


def _one_row(mid, params, start, si, size, gaps, bitpos, group_size,
             scaling) -> Columns:
    return Columns(np.array([mid]), np.array([params], dtype=object),
                   np.array([start], np.int64), np.array([si], np.int64),
                   np.array([size], np.int64),
                   np.array([present_count(gaps, group_size)], np.int64),
                   np.array([column_rank(gaps, bitpos)], np.int64),
                   np.array([scaling], np.float64))


def series_values(mid: int, params: bytes, start: int, end: int, si: int,
                  size: int, gaps: int, bitpos: int, group_size: int
                  ) -> np.ndarray:
    """Scaled-domain values of one Tid across a segment (float32)."""
    cols = _one_row(mid, params, start, si, size, gaps, bitpos, group_size,
                    1.0)
    return by_mid(mid).column(cols, 0)


def series_partials(mid: int, params: bytes, start: int, end: int, si: int,
                    size: int, gaps: int, bitpos: int, group_size: int,
                    scaling: float) -> Tuple[int, float, float, float]:
    """(count, sum, min, max) of one Tid over a segment, in the stored
    (unscaled-by-C) query domain.  Constant time for PMC/Swing."""
    cols = _one_row(mid, params, start, si, size, gaps, bitpos, group_size,
                    scaling)
    row, first, count, _ = cut(cols)
    total, lo, hi = by_mid(mid).partials(cols, row, first, count)
    return size, float(total[0]), float(lo[0]), float(hi[0])
