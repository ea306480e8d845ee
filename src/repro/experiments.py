"""Evaluation harness: one function per table of the paper's §VII.

The paper reports results as Figures 13–28; per DESIGN.md §5 each
figure's numbers are reproduced as a table T1–T10.  Every function
returns a tidy ``pandas.DataFrame`` whose printed rows are recorded in
``EXPERIMENTS.md`` next to the paper's numbers.

Every table measures through one path: the timed tables list their rows
as (labels, callable) cases and time them with :func:`timed`; the four
lossless baseline stores are written and sized through
:data:`BASELINE_STORES`; and ingested points are rebuilt by the Data
Point View's decoder (:func:`reconstruct_points`).

System variants (§VII-A):

* ``MDB+-G``  — grouping disabled (singleton groups),
* ``MDB+GB``  — best manual correlation primitives per data set,
* ``MDB+GA``  — automatic grouping (``auto`` distance, weighted dims),
* ``MDB``     — ModelarDB v1 baseline (per-series MMC, PMC-MR),
* ``parquet`` / ``orc`` — Spark native columnar formats,
* ``cassandra`` — compressed row-store simulator,
* ``influx``  — TSM-like per-series store simulator.
"""
from __future__ import annotations

import os
import time
from typing import (Callable, Dict, Iterable, Optional, Sequence, Tuple)

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .baselines import cassandra_sim, formats, influx_sim
from .baselines.mdb import MDB_MODEL_TYPES, mdb_meta
from .core.golemm import (DEFAULT_MODEL_TYPES, RAW_BITS_PER_POINT,
                          CompressStats)
from .core.ingest import ingest_local
from .core.model_types import by_mid, registry
from .core.segment import Segment
from .datasets import TSDataset
from .dims.grouping import (group_summary, group_time_series,
                            singleton_groups, value_based_baseline)
from .dims.primitives import Distance, Level, clause
from .query import decode
from .query.aggregates import simple_agg
from .query.rewrite import gids_for
from .query.time_agg import cube_agg
from .query.views import data_point_view, segment_view, with_group_size
from .storage.schema import segment_columns
from .storage.segment_store import write_store

DEFAULT_EPS = 10.0
EPS_SWEEP = (0.0, 1.0, 5.0, 10.0)


# --------------------------------------------------------------------------
# Variant construction
# --------------------------------------------------------------------------

def gb_clauses(ds: TSDataset):
    """The paper's best manual primitives per data set (§VII-C)."""
    if ds.name == "EP":
        # "Production 0, Measure 1 <category>": equal Production members
        # and a shared Measure category.
        return [clause(Level("Production", 0), Level("Measure", 1))]
    if ds.name == "EF":
        # Distance 0.4166667: same park, same measure category.
        return [clause(Distance(0.4166667))]
    # HD: the paper's manual attempts lost to auto; mirror auto.
    return [clause(Distance.auto(ds.dims))]


def ga_clauses(ds: TSDataset):
    """Automatic grouping: auto distance, with EP's Production weight
    decreased (reciprocal weight 0.5 → only equal Production members
    group, §VII-C)."""
    if ds.name == "EP":
        return [clause(Distance.auto(ds.dims, weights={"Production": 0.5}))]
    return [clause(Distance.auto(ds.dims))]


def build_variant_metas(ds: TSDataset) -> Dict[str, Tuple[pd.DataFrame, float]]:
    """name → (meta with gid/bitpos, grouping seconds)."""
    out: Dict[str, Tuple[pd.DataFrame, float]] = {}
    out["MDB+-G"] = (singleton_groups(ds.meta), 0.0)
    gb, t_gb = group_time_series(ds.meta, list(ds.dims), gb_clauses(ds))
    out["MDB+GB"] = (gb, t_gb)
    ga, t_ga = group_time_series(ds.meta, list(ds.dims), ga_clauses(ds))
    out["MDB+GA"] = (ga, t_ga)
    return out


# --------------------------------------------------------------------------
# Shared measurement helpers
# --------------------------------------------------------------------------

def _write_format(fmt: str):
    return lambda spark, ds, path: formats.write_format(
        spark, ds.points, ds.meta, path, fmt)


#: The lossless baseline stores: name → (write(spark, ds, path),
#: on-disk bytes(path)).
BASELINE_STORES: Dict[str, Tuple[Callable, Callable[[str], int]]] = {
    "parquet": (_write_format("parquet"), formats.dir_bytes),
    "orc": (_write_format("orc"), formats.dir_bytes),
    "cassandra": (lambda spark, ds, path: cassandra_sim.write(ds.points, path),
                  cassandra_sim.store_bytes),
    "influx": (lambda spark, ds, path: influx_sim.write(ds.points, path),
               influx_sim.store_bytes),
}


def timed(cases: Iterable[Tuple[dict, Callable[[], object]]],
          rounds: int = 1) -> pd.DataFrame:
    """One row per (labels, fn) case: the labels and ``seconds``, the
    median wall-clock seconds of ``rounds`` calls of ``fn``, which must
    force execution."""
    rows = []
    for labels, fn in cases:
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        rows.append({**labels, "seconds": float(np.median(times))})
    return pd.DataFrame(rows)


def reconstruct_points(segments: Sequence[Segment],
                       meta: pd.DataFrame) -> pd.DataFrame:
    """The Data Point View of ``segments``, in pandas (for error
    measurement).

    Builds their Segment View as the Spark one does — the segment rows
    joined to the Time Series table, keeping a Tid only where its gap
    bit is unset — and decodes it with the view's ``decode.points``.
    """
    view = pd.DataFrame(segment_columns(segments)).merge(
        with_group_size(meta).drop(columns="si"), on="gid")
    present = ((view["gaps"].to_numpy()
                >> view["bitpos"].to_numpy(np.int64)) & 1) == 0
    return decode.points(view[present], registry())


def actual_avg_error_pct(points: pd.DataFrame,
                         reconstructed: pd.DataFrame) -> float:
    """§VII-C: (Σ|rv − av| / Σ|rv|) × 100 over all ingested points."""
    merged = points.merge(reconstructed, on=["tid", "ts"],
                          suffixes=("_r", "_a"))
    rv = merged["value_r"].to_numpy(np.float64)
    av = merged["value_a"].to_numpy(np.float64)
    return float(np.abs(rv - av).sum() / np.abs(rv).sum() * 100.0)


def segments_bytes(segments: Sequence[Segment]) -> int:
    return sum(s.byte_size for s in segments)


def raw_bytes(ds: TSDataset) -> int:
    """Uncompressed size of the data set's points (96 bits each, §I)."""
    return len(ds.points) * RAW_BITS_PER_POINT // 8


# --------------------------------------------------------------------------
# T2–T4: compression + error sweep; T5 model usage; grouping stats
# --------------------------------------------------------------------------

def compression_table(ds: TSDataset, eps_list: Sequence[float] = EPS_SWEEP,
                      include_value_baseline: bool = True,
                      ) -> Tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Tables T2–T4 (Figs. 14–16) for one data set.

    Returns (storage table, model-usage table T5, grouping-stats table).
    Storage rows: system, eps_pct, bytes, avg_error_pct.  Model usage
    covers the MDB+ variants; grouping stats add one value-baseline row.
    """
    variants = build_variant_metas(ds)
    systems = [(name, meta, DEFAULT_MODEL_TYPES)
               for name, (meta, _) in variants.items()]
    if include_value_baseline:
        systems.append(("value-baseline",
                        value_based_baseline(ds.meta, ds.points),
                        DEFAULT_MODEL_TYPES))
    # MDB v1 baseline (per-series, PMC-MR).
    systems.append(("MDB", mdb_meta(ds.meta), MDB_MODEL_TYPES))
    storage_rows, usage_rows, group_rows = [], [], []

    for system, meta, model_types in systems:
        n_groups, avg_size = group_summary(meta)
        for eps in eps_list:
            st = CompressStats()
            segs = ingest_local(ds.points, meta, eps,
                                model_types=model_types, stats=st)
            storage_rows.append({
                "system": system, "eps_pct": eps,
                "bytes": segments_bytes(segs),
                "avg_error_pct": actual_avg_error_pct(
                    ds.points, reconstruct_points(segs, meta))})
            if system not in variants:
                continue
            for mid, cnt in sorted(st.model_counts.items()):
                usage_rows.append({
                    "system": system, "eps_pct": eps,
                    "model": by_mid(mid).name, "segments": cnt,
                    "share": cnt / max(st.segments, 1)})
            overhead = (st.split_merge_seconds / st.total_seconds * 100
                        if st.total_seconds else 0.0)
            group_rows.append({
                "system": system, "eps_pct": eps, "groups": n_groups,
                "avg_group_size": round(avg_size, 2),
                "grouping_seconds": round(variants[system][1], 4),
                "split_merge_pct_of_ingest": round(overhead, 3),
                "splits": st.splits, "merges": st.merges})
        if system == "value-baseline":
            group_rows.append({
                "system": system, "eps_pct": None,
                "groups": n_groups, "avg_group_size": round(avg_size, 2),
                "grouping_seconds": None, "split_merge_pct_of_ingest": None,
                "splits": None, "merges": None})

    storage = pd.DataFrame(storage_rows)
    storage["ratio_vs_raw96"] = raw_bytes(ds) / storage["bytes"]
    return storage, pd.DataFrame(usage_rows), pd.DataFrame(group_rows)


def industry_storage_table(spark: SparkSession, ds: TSDataset,
                           workdir: str) -> pd.DataFrame:
    """Lossless storage of the industry formats for the same points."""
    rows = []
    for name, (write, size) in BASELINE_STORES.items():
        path = os.path.join(workdir, name)
        write(spark, ds, path)
        rows.append({"system": name, "eps_pct": 0.0, "bytes": size(path)})
    out = pd.DataFrame(rows)
    out["avg_error_pct"] = 0.0
    out["ratio_vs_raw96"] = raw_bytes(ds) / out["bytes"]
    return out


# --------------------------------------------------------------------------
# T1: ingestion rate
# --------------------------------------------------------------------------

def ingestion_table(spark: SparkSession, ds: TSDataset, workdir: str,
                    parallel: bool = True) -> pd.DataFrame:
    """Table T1 (Fig. 13): wall-clock bulk-load rate per system.

    ``parallel=True`` ingests MDB+/MDB through Spark (one task per
    group, Fig. 3's worker-parallel bulk load; includes shipping the
    points into Spark).  ``parallel=False`` runs every compressor in
    the same single-threaded driver harness, which isolates the
    *algorithmic* rate differences from Spark's job overhead.  Both
    views are reported in EXPERIMENTS.md; absolute rates are far below
    the JVM systems in the paper (DESIGN.md §7).
    """
    def ingest_store(meta, model_types, path):
        if parallel:
            # Parallel GOLEMM over groups (one task per group), then
            # store — the worker-parallel bulk load of Fig. 3.
            from .core.ingest import ingest as spark_ingest

            seg_df = spark_ingest(spark, ds.to_spark(spark), meta,
                                  DEFAULT_EPS, model_types=model_types)
            segs = [Segment(r["gid"], r["start_time"], r["end_time"],
                            r["si"], r["size"], r["mid"], r["gaps"],
                            bytes(r["params"]))
                    for r in seg_df.collect()]
        else:
            segs = ingest_local(ds.points, meta, DEFAULT_EPS,
                                model_types=model_types)
        write_store(segs, meta, path)

    systems = {name: (meta, DEFAULT_MODEL_TYPES)
               for name, (meta, _) in build_variant_metas(ds).items()}
    systems["MDB"] = (mdb_meta(ds.meta), MDB_MODEL_TYPES)
    cases = [({"system": name}, lambda m=meta, t=types, p=os.path.join(
        workdir, f"ing_{name}"): ingest_store(m, t, p))
        for name, (meta, types) in systems.items()]
    cases += [({"system": name}, lambda w=write, p=os.path.join(
        workdir, f"ing_{name}"): w(spark, ds, p))
        for name, (write, _) in BASELINE_STORES.items()]

    out = timed(cases)
    out["datapoints_per_s"] = (len(ds.points) / out["seconds"]).astype(int)
    out["seconds"] = out["seconds"].round(3)
    base = out.loc[out["system"] == "MDB+GA", "datapoints_per_s"].iloc[0]
    out["speedup_of_MDB+GA"] = (base / out["datapoints_per_s"]).round(2)
    return out


def ingestion_stability(ds: TSDataset, rounds: int = 10) -> pd.DataFrame:
    """Fig. 13's 1.5-day stability run, shortened: repeated ingestion of
    the (repeating) unbounded stream; rate should stay flat."""
    meta, _ = group_time_series(ds.meta, list(ds.dims), ga_clauses(ds))
    out = timed(({"round": r}, lambda: ingest_local(ds.points, meta,
                                                    DEFAULT_EPS))
                for r in range(rounds))
    out["datapoints_per_s"] = (len(ds.points)
                               / out.pop("seconds")).astype(int)
    return out


# --------------------------------------------------------------------------
# T6: distance sweep
# --------------------------------------------------------------------------

def distance_table(ds: TSDataset, distances: Sequence[float],
                   weights: Optional[Dict[str, float]] = None) -> pd.DataFrame:
    """Table T6 (Fig. 20): storage vs grouping distance.

    ``weights`` mirrors §VII-C's EP setup where Production's weight is
    decreased so only equal Production members group — without it, the
    lowest EP distance merges same-type series across entities, which
    the paper notes correlate worse than same-entity measures.
    """
    rows = []
    for dist in distances:
        if dist == 0.0:
            meta = singleton_groups(ds.meta)
        else:
            meta, _ = group_time_series(ds.meta, list(ds.dims),
                                        [clause(Distance(dist, weights))])
        n_groups, avg = group_summary(meta)
        segs = ingest_local(ds.points, meta, DEFAULT_EPS)
        rows.append({"distance": dist, "groups": n_groups,
                     "avg_group_size": round(avg, 2),
                     "bytes": segments_bytes(segs)})
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Store construction for the query experiments
# --------------------------------------------------------------------------

class QueryContext:
    """Builds every system's store once so T7–T10 share them."""

    def __init__(self, spark: SparkSession, ds: TSDataset, workdir: str):
        self.spark, self.ds = spark, ds
        self.metas: Dict[str, pd.DataFrame] = {}
        #: system name → store directory, for the variants and baselines.
        self.stores: Dict[str, str] = {}
        for name, (meta, _) in build_variant_metas(ds).items():
            path = os.path.join(workdir, f"store_{name.replace('+', '_')}")
            write_store(ingest_local(ds.points, meta, DEFAULT_EPS), meta,
                        path)
            self.metas[name], self.stores[name] = meta, path
        for name, (write, _) in BASELINE_STORES.items():
            self.stores[name] = os.path.join(workdir, name)
            write(spark, ds, self.stores[name])

    def seg_view(self, variant: str, tids: Optional[Sequence[int]] = None):
        meta = self.metas[variant]
        gids = gids_for(meta, tids=tids) if tids is not None else None
        return segment_view(self.spark, self.stores[variant], gids=gids,
                            tids=tids)


# --------------------------------------------------------------------------
# T7: L-AGG scale-out; T8: S-AGG; T9: P/R; T10: M-AGG
# --------------------------------------------------------------------------

def _sum_avg_by_tid(df: DataFrame) -> list:
    return df.groupBy("tid").agg(F.sum("value"), F.avg("value")).collect()


def l_agg_table(ctx: QueryContext, rounds: int = 3) -> pd.DataFrame:
    """Table T7 (Fig. 21): large aggregates over the full data set."""
    spark, stores, cases = ctx.spark, ctx.stores, []
    for variant in ctx.metas:
        cases.append(({"system": variant, "method": "S"},
                      lambda v=ctx.seg_view(variant): simple_agg(
                          v, aggs=("sum", "avg")).collect()))
        cases.append(({"system": variant, "method": "DP"},
                      lambda d=data_point_view(spark, stores[variant]):
                      _sum_avg_by_tid(d)))
    for fmt in ("parquet", "orc"):
        cases.append(({"system": fmt, "method": "F"},
                      lambda f=fmt: formats.agg_query(
                          spark, stores[f], f, aggs=("sum", "avg")).collect()))
    cases.append(({"system": "cassandra", "method": "F"},
                  lambda: _sum_avg_by_tid(cassandra_sim.read_all(
                      spark, stores["cassandra"]))))
    cases.append(({"system": "influx", "method": "J"},
                  lambda: _sum_avg_by_tid(influx_sim.read_all(
                      spark, stores["influx"]))))
    return timed(cases, rounds).round({"seconds": 3})


def scale_out_table(spark: SparkSession, ds: TSDataset, workdir: str,
                    copies: Sequence[int] = (1, 2, 4),
                    rounds: int = 3) -> pd.DataFrame:
    """Table T7b (Fig. 22): weak scaling — duplicate the data ×k with
    value jitter (as the paper does on Azure) and measure L-AGG time.
    Linear scalability ⇒ seconds grow ∝ k at fixed parallelism."""
    rng = np.random.default_rng(99)
    meta0, _ = group_time_series(ds.meta, list(ds.dims), gb_clauses(ds))
    cases = []
    for k in copies:
        metas, points = [], []
        tid_off = 0
        for c in range(k):
            m = meta0.copy()
            m["tid"] = m["tid"] + tid_off
            m["gid"] = m["gid"] + c * (meta0["gid"].max() + 1)
            p = ds.points.copy()
            p["tid"] = p["tid"] + tid_off
            p["value"] = (p["value"]
                          * np.float32(rng.uniform(0.001, 1.001)))
            metas.append(m)
            points.append(p)
            tid_off += int(ds.meta["tid"].max())
        meta = pd.concat(metas, ignore_index=True)
        pts = pd.concat(points, ignore_index=True)
        path = os.path.join(workdir, f"scale_{k}")
        segs = ingest_local(pts, meta, DEFAULT_EPS)
        write_store(segs, meta, path, n_workers=min(16, 4 * k))
        cases.append(({"copies": k, "points": len(pts)},
                      lambda v=segment_view(spark, path): simple_agg(
                          v, aggs=("sum", "avg")).collect()))
    out = timed(cases, rounds)
    out["points_per_second"] = (out["points"] / out["seconds"]).astype(int)
    return out.round({"seconds": 3})


def s_agg_table(ctx: QueryContext, rounds: int = 3) -> pd.DataFrame:
    """Table T8 (Figs. 23–24): small aggregates, 1 series + 5 series."""
    spark, stores = ctx.spark, ctx.stores
    meta = ctx.ds.meta
    one = [int(meta["tid"].iloc[len(meta) // 2])]
    five = meta["tid"].iloc[:5].astype(int).tolist()
    workloads = (("1-series", one), ("5-series", five))
    cases = []
    for variant in ctx.metas:
        for workload, tids in workloads:
            cases.append(({"system": variant, "workload": workload},
                          lambda v=ctx.seg_view(variant, tids=tids):
                          simple_agg(v, aggs=("sum", "avg")).collect()))
    for fmt in ("parquet", "orc"):
        for workload, tids in workloads:
            cases.append(({"system": fmt, "workload": workload},
                          lambda f=fmt, t=tids: formats.agg_query(
                              spark, stores[f], f, tids=t,
                              aggs=("sum", "avg")).collect()))
    for workload, tids in workloads:
        for system, sim in (("cassandra", cassandra_sim),
                            ("influx", influx_sim)):
            cases.append(({"system": system, "workload": workload},
                          lambda s=sim, p=stores[system], t=tids: [
                              s.pr_query(p, tid, 0, 2**62)["value"].agg(
                                  ["sum", "mean"]) for tid in t]))
    return timed(cases, rounds).round({"seconds": 3})


def pr_table(ctx: QueryContext, rounds: int = 3,
             frac: float = 0.02) -> pd.DataFrame:
    """Table T9: point/range queries (WHERE on Tid and TS)."""
    spark, ds, stores = ctx.spark, ctx.ds, ctx.stores
    tid = int(ds.meta["tid"].iloc[0])
    t_lo, t_hi = int(ds.points["ts"].min()), int(ds.points["ts"].max())
    span = int((t_hi - t_lo) * frac)
    lo = t_lo + (t_hi - t_lo) // 3
    hi = lo + span
    cases = []
    for variant in ("MDB+-G", "MDB+GB"):
        gids = gids_for(ctx.metas[variant], tids=[tid])
        cases.append(({"system": variant},
                      lambda v=variant, g=gids: data_point_view(
                          spark, stores[v], gids=g, tids=[tid],
                          min_end_time=lo, max_start_time=hi).filter(
                              (F.col("ts") >= lo) & (F.col("ts") <= hi)
                          ).collect()))
    for fmt in ("parquet", "orc"):
        cases.append(({"system": fmt}, lambda f=fmt: formats.pr_query(
            spark, stores[f], f, tid, lo, hi).collect()))
    cases.append(({"system": "cassandra"}, lambda: cassandra_sim.pr_query(
        stores["cassandra"], tid, lo, hi)))
    cases.append(({"system": "influx"}, lambda: influx_sim.pr_query(
        stores["influx"], tid, lo, hi)))
    return timed(cases, rounds).round({"seconds": 3})


def m_agg_table(ctx: QueryContext, dim_col: str, rounds: int = 3
                ) -> pd.DataFrame:
    """Table T10 (Figs. 25–28): multi-dimensional aggregates — GROUP BY
    month × dimension member (M-AGG-1) and + Tid (M-AGG-2).

    MDB (v1) cannot run M-AGG (no dimensions); InfluxDB cannot either
    (no dynamically sized intervals) — both excluded as in the paper.
    """
    spark, stores = ctx.spark, ctx.stores
    # Grouping keys beyond the dimension member and the month.
    workloads = (("M-AGG-1", []), ("M-AGG-2", ["tid"]))
    cases = []
    for variant in ctx.metas:
        for workload, extra in workloads:
            cases.append(({"system": variant, "workload": workload},
                          lambda v=ctx.seg_view(variant), e=extra: cube_agg(
                              v, "month", group_cols=(dim_col, *e),
                              aggs=("sum",)).collect()))
    for fmt in ("parquet", "orc"):
        df = formats.read_format(spark, stores[fmt], fmt).withColumn(
            "bucket_start", F.date_trunc(
                "month", F.timestamp_millis(F.col("ts"))))
        for workload, extra in workloads:
            cases.append(({"system": fmt, "workload": workload},
                          lambda d=df, e=extra: d.groupBy(
                              dim_col, "bucket_start", *e).agg(
                                  F.sum("value")).collect()))

    def cas_magg(extra_keys):
        # The row store has no dimensions: reading it into Spark and
        # joining the Time Series metadata is part of the measured query
        # (as with the DataStax connector in the paper).
        pdf = (cassandra_sim.read_all(spark, stores["cassandra"]).toPandas()
               .merge(ctx.ds.meta[["tid", dim_col]], on="tid"))
        pdf["bucket_start"] = (pd.to_datetime(pdf["ts"], unit="ms")
                               .dt.to_period("M").dt.start_time)
        return pdf.groupby([dim_col, "bucket_start"] + extra_keys,
                           as_index=False)["value"].sum()

    for workload, extra in workloads:
        cases.append(({"system": "cassandra", "workload": workload},
                      lambda e=extra: cas_magg(e)))
    return timed(cases, rounds).round({"seconds": 3})


def query_error_table(ctx: QueryContext) -> pd.DataFrame:
    """Average aggregate query result error vs the raw data (§VII-C)."""
    truth = ctx.ds.points.groupby("tid")["value"].mean()
    rows = []
    for variant in ctx.metas:
        got = simple_agg(ctx.seg_view(variant), aggs=("avg",)
                         ).toPandas().set_index("tid")["avg_s"]
        err = float((np.abs(got.sort_index() - truth.sort_index())
                     / np.abs(truth.sort_index())).mean() * 100)
        rows.append({"system": variant, "avg_result_error_pct": round(err, 4)})
    return pd.DataFrame(rows)


def glimpse_table(eps: float = 0.0) -> pd.DataFrame:
    """§V's glimpse: seven correlated series compressed together vs
    separately (paper: grouping saves 67.2 % at ε = 0)."""
    rng = np.random.default_rng(42)
    n = 4096
    # Energy frequency sensors report on a quantised grid (0.01 Hz);
    # quantisation makes co-located series frequently bit-identical,
    # which is what group compression exploits at ε = 0.
    base = 50.0 + np.cumsum(rng.normal(0, 0.02, n))
    series = np.stack([np.round(base + rng.normal(0, 0.005, n), 2)
                       for _ in range(7)], axis=1).astype(np.float32)
    ts = np.arange(n, dtype=np.int64) * 100
    from .core.golemm import compress_group
    grouped = sum(s.byte_size for s in
                  compress_group(ts, series, eps, gid=1, si=100))
    separate = sum(s.byte_size for j in range(7) for s in
                   compress_group(ts, series[:, [j]], eps, gid=j, si=100))
    return pd.DataFrame([{
        "eps_pct": eps, "grouped_bytes": grouped,
        "separate_bytes": separate,
        "saving_pct": round((1 - grouped / separate) * 100, 1)}])
