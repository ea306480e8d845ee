"""Correctness checks: the driver-side reference and its comparisons.

* :func:`reconstruct` rebuilds every data point of a store on the driver
  with ``core.golemm.reconstruct_segment`` (not the query layer), once
  per run; DuckDB then answers each query over that reconstruction.
* :func:`eps_check` compares the reconstruction with the generated
  points under the exact bound ``|r - v| <= eps/100 * |v|`` (float64,
  no slack) and gives the §VII-C actual average error.
* :func:`compare` matches a Spark result with DuckDB's.  Counts and keys
  must be equal.  Sums, minima and maxima may differ by float32 rounding
  only: model-based aggregates use the float32 parameters in float64,
  the reconstruction rounds every value to float32 (at most 2^-24 |v|
  each), so the check allows 1e-6 of the sum of absolute values.
"""
from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from repro.core.golemm import reconstruct_segment

REL_TOL = 1e-6


def group_index(meta: pd.DataFrame) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """gid -> (tids in bit order, scaling constants)."""
    out = {}
    for gid, rows in meta.groupby("gid"):
        rows = rows.sort_values("tid")
        out[int(gid)] = (rows["tid"].to_numpy(np.int32),
                         rows["scaling"].to_numpy(np.float64))
    return out


def reconstruct(segments: Sequence, meta: pd.DataFrame) -> pd.DataFrame:
    """All data points of ``segments`` as (tid, ts, value)."""
    groups = group_index(meta)
    tid_l, ts_l, v_l = [], [], []
    for seg in segments:
        tids, scal = groups[seg.gid]
        ts, cols, V = reconstruct_segment(seg, len(tids))
        tid_l.append(np.tile(tids[cols], len(ts)))
        ts_l.append(np.repeat(ts, len(cols)))
        v_l.append((V.astype(np.float64) * scal[cols][None, :])
                   .astype(np.float32).ravel())
    return pd.DataFrame({"tid": np.concatenate(tid_l),
                         "ts": np.concatenate(ts_l),
                         "value": np.concatenate(v_l)})


def eps_check(points: pd.DataFrame, rec: pd.DataFrame, eps_pct: float
              ) -> Tuple[int, float, Optional[str]]:
    """(violations, actual average error %, coverage problem or None)."""
    def by_key(df):
        order = np.lexsort((df["ts"].to_numpy(), df["tid"].to_numpy()))
        return (df["tid"].to_numpy(np.int64)[order],
                df["ts"].to_numpy(np.int64)[order],
                df["value"].to_numpy(np.float64)[order])

    p_tid, p_ts, o = by_key(points)
    r_tid, r_ts, r = by_key(rec)
    if not (len(r) == len(o) and (p_tid == r_tid).all()
            and (p_ts == r_ts).all()):
        return 0, 0.0, (f"reconstruction has {len(r)} points for "
                                 f"{len(o)} ingested, or other keys")
    err = np.abs(r - o)
    violations = int((err > eps_pct / 100.0 * np.abs(o)).sum())
    return violations, float(err.sum() / np.abs(o).sum() * 100.0), None


def store_digest(store: str) -> str:
    """sha256 over the store's ``.mdb`` files, in name order."""
    h = hashlib.sha256()
    seg_dir = os.path.join(store, "segments")
    for name in sorted(os.listdir(seg_dir)):
        if name.endswith(".mdb"):
            h.update(name.encode())
            with open(os.path.join(seg_dir, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class Oracle:
    """DuckDB over the driver-side reconstruction and the metadata."""

    def __init__(self, rec: pd.DataFrame, meta: pd.DataFrame):
        import duckdb

        self.con = duckdb.connect()
        self.con.register("rec", rec)
        self.con.register("meta", meta.drop(columns=["source"],
                                            errors="ignore"))

    def query(self, sql: str) -> pd.DataFrame:
        return self.con.execute(sql).fetchdf()

    def close(self) -> None:
        self.con.close()


AGG_SQL = ("count(*) AS count_s, sum(value) AS sum_s, min(value) AS min_s, "
           "max(value) AS max_s, sum(abs(value)) AS abs_s")


def _close(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.abs(a - b) <= REL_TOL * scale + 1e-9


def compare(got: pd.DataFrame, want: pd.DataFrame, keys: List[str],
            exact: Sequence[str] = (), summed: Sequence[str] = (),
            extreme: Sequence[str] = ()) -> Optional[str]:
    """None when ``got`` matches ``want``; else a one-line reason.

    ``summed`` columns are checked against ``want["abs_s"]`` (the sum of
    absolute values), ``extreme`` columns (min/max) relative to their
    own magnitude, ``exact`` columns for equality.
    """
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    if len(got) == 0:
        return None
    m = got.merge(want, on=keys, how="inner", suffixes=("_g", "_w"))
    if len(m) != len(want):
        return f"keys differ: {len(m)} of {len(want)} rows matched"
    for c in exact:
        if not (m[c + "_g"].to_numpy() == m[c + "_w"].to_numpy()).all():
            return f"column {c} differs"
    for c in summed:
        a = m[c + "_g"].to_numpy(np.float64)
        b = m[c + "_w"].to_numpy(np.float64)
        if not _close(a, b, m["abs_s"].to_numpy(np.float64)).all():
            i = int(np.argmax(np.abs(a - b)))
            return f"column {c} differs: {a[i]!r} vs {b[i]!r}"
    for c in extreme:
        a = m[c + "_g"].to_numpy(np.float64)
        b = m[c + "_w"].to_numpy(np.float64)
        if not _close(a, b, np.abs(b)).all():
            i = int(np.argmax(np.abs(a - b)))
            return f"column {c} differs: {a[i]!r} vs {b[i]!r}"
    return None
