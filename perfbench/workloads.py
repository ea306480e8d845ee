"""The workloads: set-up, the closed-loop operation mix, checks.

Every workload is one client in a closed loop: the next operation starts
when the previous one has returned.  Operations come in cycles (a fixed
multiset of kinds, shuffled by the seed) and a run stops at the first
cycle boundary after ``--seconds`` seconds of operation time and after
two cycles at the least, so every run measures whole cycles of the same
mix.

* ``ingest-ef``: bulk loads of EF-like data (grouping, Spark ingest with
  the segments collected, store write).
* ``query-ep``: model-based aggregates (S-AGG, L-AGG, M-AGG) and the
  Data Point View (point/range, full reconstruction) on an EP-like
  store at 10 %.
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import pandas as pd

from repro.core.ingest import ingest, ingest_local
from repro.core.segment import Segment
from repro.dims.grouping import group_summary, group_time_series
from repro.experiments import gb_clauses
from repro.query.aggregates import simple_agg
from repro.query.rewrite import gids_for
from repro.query.time_agg import cube_agg
from repro.query.views import data_point_view, segment_view
from repro.storage import segment_store

import checks
import data
import harness
import tracing

STORE_FILES = 4         # one .mdb file per (virtual) worker
AGGS = ("count", "sum", "min", "max")


@dataclass
class Op:
    kind: str
    args: dict
    latency: float = 0.0
    cpu: float = 0.0
    jit: float = 0.0
    traced: bool = False
    rows: Optional[list] = None
    df: object = None
    digest: Optional[str] = None
    sql: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    eps = 10.0

    def __init__(self, spark, seed: int, scale: float,
                 tracer: tracing.Tracer, workdir: str):
        self.spark, self.seed, self.scale = spark, seed, scale
        self.tr = tracer
        self.trace = tracer.enabled
        self.workdir = workdir
        self.store = os.path.join(workdir, "store")
        # Operation parameters use their own stream of the same seed.
        self.rng = np.random.default_rng([seed, 1])
        self.plans = tracing.PlanReader()
        self.facts: Dict[str, float] = {}      # run-level values
        self.layers: Dict[str, float] = {}     # run-level per-layer values
        self.build_layers: Dict[str, float] = {}
        self.problems: List[str] = []
        self.ds = None
        self.meta = None

    # ---------------------------------------------------------- inputs

    def generate(self):
        """The workload's seeded inputs (a ``TSDataset``)."""
        raise NotImplementedError

    # ---------------------------------------------------------- the load

    def load(self, points_df=None) -> dict:
        """Grouping, ingest, store write.

        With ``points_df`` the ingest is the Spark operator with the
        segments collected; without, it is the driver-side
        ``ingest_local`` over the generated points (same segments).
        """
        tr = self.tr
        t0 = time.perf_counter()
        seg_df = None
        with tr.span("load"):
            with tr.span("dims.group"):
                meta, _ = group_time_series(self.ds.meta, list(self.ds.dims),
                                            gb_clauses(self.ds))
            t1 = time.perf_counter()
            with tr.span("core.ingest"):
                if points_df is None:
                    segs = self.ingest_local(meta)
                else:
                    seg_df = ingest(self.spark, points_df, meta, self.eps)
                    segs = [Segment(r.gid, r.start_time, r.end_time, r.si,
                                    r.size, r.mid, r.gaps, bytes(r.params))
                            for r in seg_df.collect()]
            t2 = time.perf_counter()
            with tr.span("storage.write"):
                if os.path.isdir(self.store):
                    shutil.rmtree(self.store)
                segment_store.write_store(segs, meta, self.store,
                                          n_workers=STORE_FILES)
            t3 = time.perf_counter()
        self.meta = meta
        return {"seconds": t3 - t0, "group_s": t1 - t0, "ingest_s": t2 - t1,
                "write_s": t3 - t2, "df": seg_df}

    def ingest_local(self, meta: pd.DataFrame) -> list:
        """Driver-side GOLEMM over the generated points.  In a traced run
        it is the counted replay, whose per-layer values are kept."""
        if not self.trace:
            return ingest_local(self.ds.points, meta, self.eps)
        with self.tr.span("replay.ingest"):
            segs, layers = tracing.replay_ingest(self.ds.points, meta,
                                                 self.eps)
        self.layers.update(layers)
        return segs

    def load_layers(self, load: dict) -> Dict[str, float]:
        """Per-layer values of one load (read after it has returned);
        the Spark ingest's values only when the load used it."""
        n_groups, avg_size = group_summary(self.meta)
        out = {"dims.group_s": load["group_s"], "dims.groups": n_groups,
               "dims.avg_group_size": avg_size,
               "storage.write_s": load["write_s"]}
        if load["df"] is not None:
            out["core.ingest.load_s"] = load["ingest_s"]
            for k, v in self.plans.read(load["df"]).items():
                if k.startswith("ingest."):
                    out["core.ingest." + k[len("ingest."):]] = v
        return out

    # ---------------------------------------------------------- set-up

    def setup(self) -> Dict[str, float]:
        """Generate the inputs, then set the program up; returns the wall
        seconds of each part and the CPU seconds of the program's part.

        The program's set-up is the build (a store, or the staged points
        of ``ingest-ef``) and the warm-up operations, which pay the
        one-off costs of a fresh Spark process (Python worker start,
        first plans).  Generating the inputs is the benchmark's own work
        and is reported apart.
        """
        t0 = time.perf_counter()
        with self.tr.span("setup.generate"):
            self.ds = self.generate()
        c1, t1 = harness.tree_cpu_s()[0], time.perf_counter()
        with self.tr.span("setup.build"):
            self.build()
        t2 = time.perf_counter()
        with self.tr.span("setup.warm_up"):
            self.warm_up()
        t3, c3 = time.perf_counter(), harness.tree_cpu_s()[0]
        return {"generate_s": t1 - t0, "build_s": t2 - t1,
                "warm_up_s": t3 - t2, "cpu_s": c3 - c1}

    def build(self) -> None:
        """Stage the inputs in Spark (and build a store, if any)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed first operations (Python workers, first plans)."""
        raise NotImplementedError

    def reference(self) -> None:
        """Set up the references ``check`` compares against."""
        raise NotImplementedError

    def _check_eps(self, rec: pd.DataFrame) -> None:
        viol, avg, problem = checks.eps_check(self.ds.points, rec, self.eps)
        self.facts["eps_violations"] = viol
        self.facts["avg_error_pct"] = avg
        if problem:
            self.problems.append(problem)

    def floors(self) -> None:
        """Fixed costs: an empty Spark job and a 4-row Python DataSource."""
        import floor_source

        sc = self.spark.sparkContext
        empty = []
        for _ in range(3):
            t0 = time.perf_counter()
            sc.parallelize([], 1).count()
            empty.append(time.perf_counter() - t0)
        floor_source.register(self.spark)
        ds = []
        for _ in range(2):
            t0 = time.perf_counter()
            n = len(self.spark.read.format(floor_source.NAME).load().collect())
            ds.append(time.perf_counter() - t0)
        if n != 4:
            self.problems.append(f"floor data source returned {n} rows")
        # The first call of each is a warm-up and not counted.
        self.layers["spark.empty_job_s"] = harness.median(empty[1:])
        self.layers["storage.datasource.floor_s"] = harness.median(ds[1:])

    # ---------------------------------------------------------- the loop

    def cycle(self) -> List[Op]:
        raise NotImplementedError

    def run_op(self, op: Op) -> None:
        raise NotImplementedError

    def after_op(self, op: Op) -> None:
        """Untimed work right after an operation (both modes)."""

    def trace_op(self, op: Op) -> None:
        """Per-layer values of a traced operation (trace mode only)."""

    def measure(self, seconds: float) -> List[Op]:
        ops: List[Op] = []
        busy, n_cycle = 0.0, 0
        sc = self.spark.sparkContext
        # At least two cycles: the first after the warm-up costs more,
        # and a run must not measure it alone when a cycle outlasts
        # ``seconds``.  In a traced run every other cycle is untraced,
        # so the tracing overhead is measured within the same run.
        while busy < seconds or n_cycle < 2:
            self.tr.enabled = self.trace and n_cycle % 2 == 0
            for op in self.cycle():
                op.traced = self.tr.enabled
                self.tr.op = f"op{len(ops)}"
                if self.trace:
                    sc.setJobGroup(self.tr.op, op.kind)
                c0 = harness.tree_cpu_s()
                t0 = time.perf_counter()
                with self.tr.span("op." + op.kind):
                    self.run_op(op)
                op.latency = time.perf_counter() - t0
                c1 = harness.tree_cpu_s()
                # JIT compilation is the JVM still warming up: a
                # long-running process stops paying it, so it is kept
                # apart from the operation's CPU time.
                op.jit = c1[1] - c0[1]
                op.cpu = c1[0] - c0[0] - op.jit
                busy += op.latency
                self.after_op(op)
                if op.traced:
                    op.layers["spark.tasks"] = tracing.job_group_tasks(
                        sc, self.tr.op)
                    self.trace_op(op)
                    for name, value in op.layers.items():
                        self.tr.count(name, value)
                ops.append(op)
            n_cycle += 1
        self.tr.enabled = self.trace
        self.tr.op = None
        return ops

    def check(self, op: Op) -> Optional[str]:
        raise NotImplementedError

    def ingest_points_per_s(self, ops: List[Op]) -> float:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``reference`` opened."""


# ====================================================================== ingest

class IngestEF(Workload):
    """Bulk loads of 54 EF-like series x 32 768 points, MDB+GB, ε = 10 %."""

    name = "ingest-ef"

    def generate(self):
        return data.ef_input(self.seed, self.scale)

    def write_points(self) -> str:
        import pyarrow as pa
        import pyarrow.parquet as pq

        path = os.path.join(self.workdir, "points.parquet")
        pq.write_table(pa.Table.from_pandas(self.ds.points,
                                            preserve_index=False), path)
        return path

    def build(self) -> None:
        """Stage the points as a cached DataFrame (filled by the first load)."""
        path = self.write_points()
        self.points_df = self.spark.read.parquet(path).cache()

    def warm_up(self) -> None:
        """The first load, which also fills the cache."""
        self.load(self.points_df)

    def reference(self) -> None:
        """The ``ingest_local`` replay every load must match byte for byte."""
        segs = self.ingest_local(self.meta)
        ref = os.path.join(self.workdir, "reference")
        segment_store.write_store(segs, self.meta, ref, n_workers=STORE_FILES)
        self.ref_digest = checks.store_digest(ref)
        self._check_eps(checks.reconstruct(segs, self.meta))

    def cycle(self) -> List[Op]:
        return [Op("load", {})]

    def run_op(self, op: Op) -> None:
        op.args.update(self.load(self.points_df))

    def after_op(self, op: Op) -> None:
        op.digest = checks.store_digest(self.store)

    def trace_op(self, op: Op) -> None:
        op.layers.update(self.load_layers(op.args))

    def check(self, op: Op) -> Optional[str]:
        if op.digest != self.ref_digest:
            return "store differs from the ingest_local replay"
        return None

    def ingest_points_per_s(self, ops: List[Op]) -> float:
        return len(self.ds.points) / harness.median([o.latency for o in ops])


# ====================================================================== queries

def _random_tids(rng, meta: pd.DataFrame, k: int) -> List[int]:
    tids = meta["tid"].astype(int).to_numpy()
    return sorted(int(t) for t in rng.choice(tids, size=k, replace=False))


class QueryEP(Workload):
    """The query mix on 120 EP-like series stored as MDB+GB at ε = 10 %.

    Model-based aggregates (S-AGG over 1 and 5 series, L-AGG, M-AGG by
    month x category and day x series) plus the reconstruction path
    (Data Point View point/range query, full reconstruction aggregate).
    """

    name = "query-ep"
    oracle = None
    WINDOW = 0.02           # share of the time span a P/R query covers

    def cycle(self) -> List[Op]:
        ts = self.ds.points["ts"]
        t_lo, t_hi = int(ts.min()), int(ts.max())
        width = int((t_hi - t_lo) * self.WINDOW)
        lo = t_lo + int(self.rng.integers(0, t_hi - t_lo - width))
        ops = [Op("s_agg", {"tids": _random_tids(self.rng, self.meta, 1)}),
               Op("s_agg", {"tids": _random_tids(self.rng, self.meta, 5)}),
               Op("l_agg", {}),
               Op("m_agg", {"interval": "month",
                            "group": "measure_category"}),
               Op("m_agg", {"interval": "day", "group": "tid"}),
               Op("pr", {"tids": _random_tids(self.rng, self.meta, 1),
                         "lo": lo, "hi": lo + width}),
               Op("dp_full", {})]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def warm_up(self) -> None:
        """One operation of every kind, those over all series restricted
        to one group: the one-off costs (first plans, Python worker start
        and imports) do not grow with the data a query reads."""
        gid = int(self.meta["gid"].min())
        seen = set()
        for op in self.cycle():
            if op.kind not in seen:
                seen.add(op.kind)
                if "tids" not in op.args:
                    op.args["gids_only"] = [gid]
                self.run_op(op)
                self.after_op(op)

    def query_df(self, kind: str, gids, a: dict):
        from pyspark.sql import functions as F

        if kind == "pr":
            return data_point_view(
                self.spark, self.store, gids=gids, tids=a["tids"],
                min_end_time=a["lo"], max_start_time=a["hi"]).filter(
                    (F.col("ts") >= a["lo"]) & (F.col("ts") <= a["hi"]))
        if kind == "dp_full":
            return data_point_view(self.spark, self.store, gids=gids
                                   ).groupBy("tid").agg(
                F.count("*").alias("count_s"), F.sum("value").alias("sum_s"))
        view = segment_view(self.spark, self.store, gids=gids,
                            tids=a.get("tids"))
        if kind in ("s_agg", "l_agg"):
            return simple_agg(view, ("tid",), AGGS)
        return cube_agg(view, a["interval"], (a["group"],), AGGS)

    def expected(self, op: Op):
        a = op.args
        cols = (["count_s"], ["sum_s"], ["min_s", "max_s"])
        if op.kind == "pr":
            sql = (f"SELECT tid, ts, value FROM rec WHERE tid = {a['tids'][0]}"
                   f" AND ts BETWEEN {a['lo']} AND {a['hi']}")
            return sql, ["tid", "ts"], ["value"], [], []
        if op.kind == "dp_full":
            sql = ("SELECT tid, count(*) AS count_s, sum(value) AS sum_s, "
                   "sum(abs(value)) AS abs_s FROM rec GROUP BY tid")
            return sql, ["tid"], ["count_s"], ["sum_s"], []
        if op.kind == "m_agg":
            if a["interval"] == "month":
                bucket = "epoch_ms(date_trunc('month', epoch_ms(ts)))"
                src = "rec JOIN meta USING (tid)"
            else:
                bucket = "ts // 86400000 * 86400000"
                src = "rec"
            g = a["group"]
            sql = (f"SELECT {g}, {bucket} AS bucket_start, {checks.AGG_SQL} "
                   f"FROM {src} GROUP BY 1, 2")
            return (sql, [g, "bucket_start"]) + cols
        where = (f"WHERE tid IN ({', '.join(map(str, a['tids']))})"
                 if "tids" in a else "")
        sql = f"SELECT tid, {checks.AGG_SQL} FROM rec {where} GROUP BY tid"
        return (sql, ["tid"]) + cols


    def generate(self):
        return data.ep_input(self.seed, self.scale)

    def build(self) -> None:
        """The store, built on the driver: ``ingest-ef`` measures the
        Spark ingest, and a cold Spark load here would cost ~10 s a run."""
        self.build_load = self.load()
        if self.trace:
            self.build_layers = self.load_layers(self.build_load)

    def reference(self) -> None:
        """Driver-side reconstruction of the store, ε check, DuckDB."""
        segs = list(segment_store.read_segments(self.store))
        rec = checks.reconstruct(segs, self.meta)
        self._check_eps(rec)
        self.oracle = checks.Oracle(rec, self.meta)

    def ingest_points_per_s(self, ops: List[Op]) -> float:
        """Points per second of the driver-side store build."""
        return len(self.ds.points) / self.build_load["seconds"]

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.close()

    def run_op(self, op: Op) -> None:
        a = op.args
        with self.tr.span("query.rewrite"):
            gids = (gids_for(self.meta, tids=a["tids"]) if "tids" in a
                    else a.get("gids_only"))
        a["gids"] = gids
        with self.tr.span("query.plan"):
            df = self.query_df(op.kind, gids, a)
        with self.tr.span("spark.collect"):
            op.rows = df.collect()
        op.df = df

    def after_op(self, op: Op) -> None:
        # The Python data source's metrics accumulate over the session,
        # so a traced run reads the plan of every query, traced or not.
        if self.trace:
            op.sql = self.plans.read(op.df)

    def trace_op(self, op: Op) -> None:
        spans = [s for s in self.tr.spans if s["op"] == self.tr.op]

        def dur(name):
            return sum(s["end"] - s["start"] for s in spans
                       if s["name"] == name)

        m = op.sql
        a = op.args
        push = {"gids": a.get("gids"), "tids": a.get("tids"),
                "min_end_time": a.get("lo"), "max_start_time": a.get("hi")}
        with self.tr.span("replay.query"):
            rep = tracing.replay_query(self.store, self.meta, push,
                                       values=op.kind in ("pr", "dp_full"))
        n_rows = max(len(op.rows), 1)
        decode_s = rep.get("query.decode.values_s",
                           rep.get("query.decode.partials_s", 0.0))
        op.layers.update({
            "query.rewrite_s": dur("query.rewrite"),
            "query.plan_s": dur("query.plan"),
            "spark.exec_s": dur("spark.collect"),
            "spark.agg_ms": m.get("agg_ms", 0.0),
            "spark.shuffle_bytes": m.get("shuffle_bytes", 0.0),
            "spark.result_rows": len(op.rows),
            "storage.datasource.scan_rows": m.get("scan_rows", 0.0),
            "storage.datasource.bytes_from_python":
                m.get("scan_bytes_from_python", 0.0),
            "storage.segments_per_result_row": rep["segments_read"] / n_rows,
            "query.udf.rows_to_python": m.get("join_rows", 0.0),
            # The scan's read runs in the data source, not in MapInPandas.
            "query.udf.replay_gap_ms":
                m.get("udf.python_total_ms", 0.0) - decode_s * 1000.0,
        })
        for k in ("python_boot_ms", "python_init_ms", "python_total_ms",
                  "rows_from_python"):
            op.layers["query.udf." + k] = m.get("udf." + k, 0.0)
        if op.kind == "m_agg" and m.get("join_rows"):
            op.layers["query.time_agg.partials_per_row"] = (
                m.get("udf.rows_from_python", 0.0) / m["join_rows"])
        op.layers.update({k: v for k, v in rep.items()
                          if k != "segments_read"})

    def check(self, op: Op) -> Optional[str]:
        got = pd.DataFrame([r.asDict() for r in op.rows])
        sql, keys, exact, summed, extreme = self.expected(op)
        want = self.oracle.query(sql)
        if len(got) == 0:
            return None if len(want) == 0 else "empty result"
        return checks.compare(got, want, keys, exact, summed, extreme)


WORKLOADS = {w.name: w for w in (IngestEF, QueryEP)}

