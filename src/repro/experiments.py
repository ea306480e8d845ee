"""Evaluation harness: one function per table of the paper's §VII.

The paper reports results as Figures 13–28; per DESIGN.md §5 each
figure's numbers are reproduced as a table T1–T10.  Every function
returns a tidy ``pandas.DataFrame`` whose printed rows are recorded in
``EXPERIMENTS.md`` next to the paper's numbers.

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
import shutil
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from .baselines import cassandra_sim, formats, influx_sim
from .baselines.mdb import MDB_MODEL_TYPES, ingest_mdb, mdb_meta
from .core.golemm import RAW_BITS_PER_POINT, CompressStats, reconstruct_segment
from .core.ingest import ingest_local
from .core.model_types import by_mid
from .core.segment import Segment
from .datasets import TSDataset, ef_like, ep_like, hd_like
from .dims.grouping import (group_summary, group_time_series,
                            singleton_groups, value_based_baseline)
from .dims.primitives import Distance, Level, clause
from .query.aggregates import simple_agg
from .query.rewrite import gids_for
from .query.time_agg import cube_agg
from .query.views import data_point_view, segment_view
from .storage.segment_store import store_bytes, write_store

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

def reconstruct_points_local(segments: Sequence[Segment],
                             meta: pd.DataFrame) -> pd.DataFrame:
    """Driver-side Data Point View (used for error measurement)."""
    by_gid = {int(g): rows.sort_values("tid")
              for g, rows in meta.groupby("gid")}
    frames = []
    for seg in segments:
        rows = by_gid[seg.gid]
        ts, cols, V = reconstruct_segment(seg, len(rows))
        tids = rows["tid"].to_numpy()
        scalings = rows["scaling"].to_numpy(np.float64)
        for j, c in enumerate(cols):
            frames.append(pd.DataFrame({
                "tid": np.int32(tids[c]),
                "ts": ts,
                "value": (V[:, j].astype(np.float64)
                          * scalings[c]).astype(np.float32)}))
    return pd.concat(frames, ignore_index=True)


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


def time_query(fn: Callable[[], object], rounds: int = 3) -> float:
    """Median wall-clock seconds of ``fn`` (which must force execution)."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


# --------------------------------------------------------------------------
# T2–T4: compression + error sweep; T5 model usage; grouping stats
# --------------------------------------------------------------------------

def compression_table(ds: TSDataset, eps_list: Sequence[float] = EPS_SWEEP,
                      include_value_baseline: bool = True,
                      ) -> Tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Tables T2–T4 (Figs. 14–16) for one data set.

    Returns (storage table, model-usage table T5, grouping-stats table).
    Storage rows: system, eps_pct, bytes, avg_error_pct.
    """
    variants = build_variant_metas(ds)
    raw_rows = len(ds.points)
    storage_rows, usage_rows, group_rows = [], [], []

    for name, (meta, gsecs) in variants.items():
        n_groups, avg_size = group_summary(meta)
        for eps in eps_list:
            st = CompressStats()
            segs = ingest_local(ds.points, meta, eps, stats=st)
            rec = reconstruct_points_local(segs, meta)
            err = actual_avg_error_pct(ds.points, rec)
            storage_rows.append({
                "system": name, "eps_pct": eps,
                "bytes": segments_bytes(segs), "avg_error_pct": err})
            for mid, cnt in sorted(st.model_counts.items()):
                usage_rows.append({
                    "system": name, "eps_pct": eps,
                    "model": by_mid(mid).name, "segments": cnt,
                    "share": cnt / max(st.segments, 1)})
            overhead = (st.split_merge_seconds / st.total_seconds * 100
                        if st.total_seconds else 0.0)
            group_rows.append({
                "system": name, "eps_pct": eps, "groups": n_groups,
                "avg_group_size": round(avg_size, 2),
                "grouping_seconds": round(gsecs, 4),
                "split_merge_pct_of_ingest": round(overhead, 3),
                "splits": st.splits, "merges": st.merges})

    if include_value_baseline:
        vb_meta = value_based_baseline(ds.meta, ds.points)
        n_groups, avg_size = group_summary(vb_meta)
        for eps in eps_list:
            segs = ingest_local(ds.points, vb_meta, eps)
            rec = reconstruct_points_local(segs, vb_meta)
            storage_rows.append({
                "system": "value-baseline", "eps_pct": eps,
                "bytes": segments_bytes(segs),
                "avg_error_pct": actual_avg_error_pct(ds.points, rec)})
        group_rows.append({
            "system": "value-baseline", "eps_pct": None,
            "groups": n_groups, "avg_group_size": round(avg_size, 2),
            "grouping_seconds": None, "split_merge_pct_of_ingest": None,
            "splits": None, "merges": None})

    # MDB v1 baseline (per-series, PMC-MR).
    for eps in eps_list:
        segs = ingest_mdb(ds.points, ds.meta, eps)
        rec = reconstruct_points_local(segs, mdb_meta(ds.meta))
        storage_rows.append({
            "system": "MDB", "eps_pct": eps, "bytes": segments_bytes(segs),
            "avg_error_pct": actual_avg_error_pct(ds.points, rec)})

    storage = pd.DataFrame(storage_rows)
    raw_bytes = raw_rows * RAW_BITS_PER_POINT // 8
    storage["ratio_vs_raw96"] = raw_bytes / storage["bytes"]
    return storage, pd.DataFrame(usage_rows), pd.DataFrame(group_rows)


def industry_storage_table(spark: SparkSession, ds: TSDataset,
                           workdir: str) -> pd.DataFrame:
    """Lossless storage of the industry formats for the same points."""
    rows = []
    pq = os.path.join(workdir, "parquet")
    formats.write_format(spark, ds.points, ds.meta, pq, "parquet")
    rows.append({"system": "parquet", "eps_pct": 0.0,
                 "bytes": formats.dir_bytes(pq)})
    orc = os.path.join(workdir, "orc")
    formats.write_format(spark, ds.points, ds.meta, orc, "orc")
    rows.append({"system": "orc", "eps_pct": 0.0,
                 "bytes": formats.dir_bytes(orc)})
    cas = os.path.join(workdir, "cassandra")
    cassandra_sim.write(ds.points, cas)
    rows.append({"system": "cassandra", "eps_pct": 0.0,
                 "bytes": cassandra_sim.store_bytes(cas)})
    inf = os.path.join(workdir, "influx")
    influx_sim.write(ds.points, inf)
    rows.append({"system": "influx", "eps_pct": 0.0,
                 "bytes": influx_sim.store_bytes(inf)})
    out = pd.DataFrame(rows)
    raw_bytes = len(ds.points) * RAW_BITS_PER_POINT // 8
    out["avg_error_pct"] = 0.0
    out["ratio_vs_raw96"] = raw_bytes / out["bytes"]
    return out


# --------------------------------------------------------------------------
# T1: ingestion rate
# --------------------------------------------------------------------------

def ingestion_table(spark: SparkSession, ds: TSDataset,
                    workdir: str, eps: float = DEFAULT_EPS,
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
    n = len(ds.points)
    rows = []

    def run(name: str, fn: Callable[[], None]) -> None:
        t0 = time.perf_counter()
        fn()
        secs = time.perf_counter() - t0
        rows.append({"system": name, "seconds": round(secs, 3),
                     "datapoints_per_s": int(n / secs)})

    def spark_ingest_store(meta, path, model_types=None, dynamic=True):
        """Parallel GOLEMM over groups (one task per group), then store —
        the worker-parallel bulk load of Fig. 3."""
        from .core.ingest import ingest as spark_ingest
        from .core.segment import Segment

        kwargs = {"model_types": model_types} if model_types else {}
        seg_df = spark_ingest(spark, ds.to_spark(spark), meta, eps,
                              dynamic_split=dynamic, **kwargs)
        segs = [Segment(r["gid"], r["start_time"], r["end_time"], r["si"],
                        r["size"], r["mid"], r["gaps"], bytes(r["params"]))
                for r in seg_df.collect()]
        write_store(segs, meta, path)

    def local_ingest_store(meta, path, model_types=None, dynamic=True):
        kwargs = {"model_types": model_types} if model_types else {}
        segs = ingest_local(ds.points, meta, eps, dynamic_split=dynamic,
                            **kwargs)
        write_store(segs, meta, path)

    ingest_store = spark_ingest_store if parallel else local_ingest_store
    for vname, (meta, _) in build_variant_metas(ds).items():
        run(vname, lambda m=meta, v=vname: ingest_store(
            m, os.path.join(workdir, f"ing_{v}")))
    run("MDB", lambda: ingest_store(
        mdb_meta(ds.meta), os.path.join(workdir, "ing_mdb"),
        model_types=MDB_MODEL_TYPES, dynamic=False))
    run("parquet", lambda: formats.write_format(
        spark, ds.points, ds.meta, os.path.join(workdir, "ing_pq"),
        "parquet"))
    run("orc", lambda: formats.write_format(
        spark, ds.points, ds.meta, os.path.join(workdir, "ing_orc"), "orc"))
    run("cassandra", lambda: cassandra_sim.write(
        ds.points, os.path.join(workdir, "ing_cas")))
    run("influx", lambda: influx_sim.write(
        ds.points, os.path.join(workdir, "ing_inf")))

    out = pd.DataFrame(rows)
    base = out.loc[out["system"] == "MDB+GA", "datapoints_per_s"].iloc[0]
    out["speedup_of_MDB+GA"] = (base / out["datapoints_per_s"]).round(2)
    return out


def ingestion_stability(ds: TSDataset, rounds: int = 10,
                        eps: float = DEFAULT_EPS) -> pd.DataFrame:
    """Fig. 13's 1.5-day stability run, shortened: repeated ingestion of
    the (repeating) unbounded stream; rate should stay flat."""
    meta, _ = group_time_series(ds.meta, list(ds.dims), ga_clauses(ds))
    rows = []
    for r in range(rounds):
        t0 = time.perf_counter()
        ingest_local(ds.points, meta, eps)
        secs = time.perf_counter() - t0
        rows.append({"round": r, "datapoints_per_s": int(len(ds.points) / secs)})
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# T6: distance sweep
# --------------------------------------------------------------------------

def distance_table(ds: TSDataset, distances: Sequence[float],
                   eps: float = DEFAULT_EPS,
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
        segs = ingest_local(ds.points, meta, eps)
        rows.append({"distance": dist, "groups": n_groups,
                     "avg_group_size": round(avg, 2),
                     "bytes": segments_bytes(segs)})
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Store construction for the query experiments
# --------------------------------------------------------------------------

class QueryContext:
    """Builds every system's store once so T7–T10 share them."""

    def __init__(self, spark: SparkSession, ds: TSDataset, workdir: str,
                 eps: float = DEFAULT_EPS, n_workers: int = 4):
        self.spark, self.ds, self.workdir = spark, ds, workdir
        os.makedirs(workdir, exist_ok=True)
        self.metas: Dict[str, pd.DataFrame] = {}
        self.stores: Dict[str, str] = {}
        for name, (meta, _) in build_variant_metas(ds).items():
            segs = ingest_local(ds.points, meta, eps)
            path = os.path.join(workdir, f"store_{name.replace('+', '_')}")
            write_store(segs, meta, path, n_workers=n_workers)
            self.metas[name], self.stores[name] = meta, path
        self.pq = os.path.join(workdir, "parquet")
        formats.write_format(spark, ds.points, ds.meta, self.pq, "parquet")
        self.orc = os.path.join(workdir, "orc")
        formats.write_format(spark, ds.points, ds.meta, self.orc, "orc")
        self.cas = os.path.join(workdir, "cassandra")
        cassandra_sim.write(ds.points, self.cas)
        self.inf = os.path.join(workdir, "influx")
        influx_sim.write(ds.points, self.inf)

    def seg_view(self, variant: str, tids: Optional[Sequence[int]] = None):
        meta = self.metas[variant]
        gids = gids_for(meta, tids=tids) if tids is not None else None
        return segment_view(self.spark, self.stores[variant], gids=gids,
                            tids=tids)


# --------------------------------------------------------------------------
# T7: L-AGG scale-out; T8: S-AGG; T9: P/R; T10: M-AGG
# --------------------------------------------------------------------------

def l_agg_table(ctx: QueryContext, rounds: int = 3) -> pd.DataFrame:
    """Table T7 (Fig. 21): large aggregates over the full data set."""
    spark, rows = ctx.spark, []

    def add(system, method, fn):
        rows.append({"system": system, "method": method,
                     "seconds": round(time_query(fn, rounds), 3)})

    for variant in ("MDB+-G", "MDB+GB", "MDB+GA"):
        view = ctx.seg_view(variant)
        add(variant, "S", lambda v=view: simple_agg(
            v, group_cols=("tid",), aggs=("sum", "avg")).collect())
        dpv = data_point_view(spark, ctx.stores[variant])
        add(variant, "DP", lambda d=dpv: d.groupBy("tid").agg(
            F.sum("value"), F.avg("value")).collect())
    add("parquet", "F", lambda: formats.agg_query(
        spark, ctx.pq, "parquet", aggs=("sum", "avg")).collect())
    add("orc", "F", lambda: formats.agg_query(
        spark, ctx.orc, "orc", aggs=("sum", "avg")).collect())
    add("cassandra", "F", lambda: cassandra_sim.read_all(spark, ctx.cas)
        .groupBy("tid").agg(F.sum("value"), F.avg("value")).collect())
    add("influx", "J", lambda: influx_sim.read_all(spark, ctx.inf)
        .groupBy("tid").agg(F.sum("value"), F.avg("value")).collect())
    return pd.DataFrame(rows)


def scale_out_table(spark: SparkSession, ds: TSDataset, workdir: str,
                    copies: Sequence[int] = (1, 2, 4),
                    eps: float = DEFAULT_EPS, rounds: int = 3) -> pd.DataFrame:
    """Table T7b (Fig. 22): weak scaling — duplicate the data ×k with
    value jitter (as the paper does on Azure) and measure L-AGG time.
    Linear scalability ⇒ seconds grow ∝ k at fixed parallelism."""
    rng = np.random.default_rng(99)
    meta0, _ = group_time_series(ds.meta, list(ds.dims), gb_clauses(ds))
    rows = []
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
        segs = ingest_local(pts, meta, eps)
        write_store(segs, meta, path, n_workers=min(16, 4 * k))
        view = segment_view(spark, path)
        secs = time_query(lambda: simple_agg(
            view, group_cols=("tid",), aggs=("sum", "avg")).collect(), rounds)
        rows.append({"copies": k, "points": len(pts),
                     "seconds": round(secs, 3),
                     "points_per_second": int(len(pts) / secs)})
    return pd.DataFrame(rows)


def s_agg_table(ctx: QueryContext, rounds: int = 3) -> pd.DataFrame:
    """Table T8 (Figs. 23–24): small aggregates, 1 series + 5 series."""
    spark = ctx.spark
    meta = ctx.ds.meta
    one = [int(meta["tid"].iloc[len(meta) // 2])]
    five = meta["tid"].iloc[:5].astype(int).tolist()
    rows = []

    def add(system, workload, fn):
        rows.append({"system": system, "workload": workload,
                     "seconds": round(time_query(fn, rounds), 3)})

    for variant in ("MDB+-G", "MDB+GB", "MDB+GA"):
        for workload, tids in (("1-series", one), ("5-series", five)):
            view = ctx.seg_view(variant, tids=tids)
            add(variant, workload, lambda v=view: simple_agg(
                v, group_cols=("tid",), aggs=("sum", "avg")).collect())
    for fmt, path in (("parquet", ctx.pq), ("orc", ctx.orc)):
        for workload, tids in (("1-series", one), ("5-series", five)):
            add(fmt, workload, lambda f=fmt, p=path, t=tids:
                formats.agg_query(spark, p, f, tids=t,
                                  aggs=("sum", "avg")).collect())
    for workload, tids in (("1-series", one), ("5-series", five)):
        add("cassandra", workload, lambda t=tids: [
            cassandra_sim.pr_query(ctx.cas, tid, 0, 2**62)["value"].agg(
                ["sum", "mean"]) for tid in t])
        add("influx", workload, lambda t=tids: [
            influx_sim.pr_query(ctx.inf, tid, 0, 2**62)["value"].agg(
                ["sum", "mean"]) for tid in t])
    return pd.DataFrame(rows)


def pr_table(ctx: QueryContext, rounds: int = 3,
             frac: float = 0.02) -> pd.DataFrame:
    """Table T9: point/range queries (WHERE on Tid and TS)."""
    spark, ds = ctx.spark, ctx.ds
    tid = int(ds.meta["tid"].iloc[0])
    t_lo, t_hi = int(ds.points["ts"].min()), int(ds.points["ts"].max())
    span = int((t_hi - t_lo) * frac)
    lo = t_lo + (t_hi - t_lo) // 3
    hi = lo + span
    rows = []

    def add(system, fn):
        rows.append({"system": system,
                     "seconds": round(time_query(fn, rounds), 3)})

    for variant in ("MDB+-G", "MDB+GB"):
        meta = ctx.metas[variant]
        gids = gids_for(meta, tids=[tid])
        add(variant, lambda v=variant, g=gids: data_point_view(
            spark, ctx.stores[v], gids=g, tids=[tid], min_end_time=lo,
            max_start_time=hi).filter(
                (F.col("ts") >= lo) & (F.col("ts") <= hi)).collect())
    add("parquet", lambda: formats.pr_query(
        spark, ctx.pq, "parquet", tid, lo, hi).collect())
    add("orc", lambda: formats.pr_query(
        spark, ctx.orc, "orc", tid, lo, hi).collect())
    add("cassandra", lambda: cassandra_sim.pr_query(ctx.cas, tid, lo, hi))
    add("influx", lambda: influx_sim.pr_query(ctx.inf, tid, lo, hi))
    return pd.DataFrame(rows)


def m_agg_table(ctx: QueryContext, dim_col: str, rounds: int = 3
                ) -> pd.DataFrame:
    """Table T10 (Figs. 25–28): multi-dimensional aggregates — GROUP BY
    month × dimension member (M-AGG-1) and + Tid (M-AGG-2).

    MDB (v1) cannot run M-AGG (no dimensions); InfluxDB cannot either
    (no dynamically sized intervals) — both excluded as in the paper.
    """
    spark = ctx.spark
    rows = []

    def add(system, workload, fn):
        rows.append({"system": system, "workload": workload,
                     "seconds": round(time_query(fn, rounds), 3)})

    for variant in ("MDB+-G", "MDB+GB", "MDB+GA"):
        view = ctx.seg_view(variant)
        add(variant, "M-AGG-1", lambda v=view: cube_agg(
            v, "month", group_cols=(dim_col,), aggs=("sum",)).collect())
        add(variant, "M-AGG-2", lambda v=view: cube_agg(
            v, "month", group_cols=(dim_col, "tid"),
            aggs=("sum",)).collect())
    for fmt, path in (("parquet", ctx.pq), ("orc", ctx.orc)):
        df = formats.read_format(spark, path, fmt).withColumn(
            "bucket_start", F.date_trunc(
                "month", F.timestamp_millis(F.col("ts"))))
        add(fmt, "M-AGG-1", lambda d=df: d.groupBy(
            dim_col, "bucket_start").agg(F.sum("value")).collect())
        add(fmt, "M-AGG-2", lambda d=df: d.groupBy(
            dim_col, "bucket_start", "tid").agg(F.sum("value")).collect())
    def cas_magg(extra_keys):
        # The row store has no dimensions: reading it into Spark and
        # joining the Time Series metadata is part of the measured query
        # (as with the DataStax connector in the paper).
        pdf = (cassandra_sim.read_all(spark, ctx.cas).toPandas()
               .merge(ctx.ds.meta[["tid", dim_col]], on="tid"))
        pdf["bucket_start"] = (pd.to_datetime(pdf["ts"], unit="ms")
                               .dt.to_period("M").dt.start_time)
        return pdf.groupby([dim_col, "bucket_start"] + extra_keys,
                           as_index=False)["value"].sum()

    add("cassandra", "M-AGG-1", lambda: cas_magg([]))
    add("cassandra", "M-AGG-2", lambda: cas_magg(["tid"]))
    return pd.DataFrame(rows)


def query_error_table(ctx: QueryContext) -> pd.DataFrame:
    """Average aggregate query result error vs the raw data (§VII-C)."""
    truth = ctx.ds.points.groupby("tid")["value"].mean()
    rows = []
    for variant in ("MDB+-G", "MDB+GB", "MDB+GA"):
        got = simple_agg(ctx.seg_view(variant), group_cols=("tid",),
                         aggs=("avg",)).toPandas().set_index("tid")["avg_s"]
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
