"""Tracing for the per-layer run (``--trace 1``).

Three sources, all read from the benchmark's own files:

* **Spans** around the calls the benchmark makes into each layer's public
  functions (``dims``, ``core.ingest``, ``storage``, ``query``), kept in
  memory with name, start, end, parent and operation id, and written out
  when the run ends.
* **Spark SQL metrics** of each executed plan (Python worker time and
  bytes, scan rows, aggregation time, shuffle bytes) and the task count
  of the operation's job group.
* **Driver-side replays** of the layers that run inside Python workers:
  GOLEMM over the same points with counting model types, and the
  segment scan and per-row decoding over the rows a query read.
"""
from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from repro.core import gorilla
from repro.core import ingest as ingest_mod
from repro.core.golemm import DEFAULT_MODEL_TYPES, CompressStats
from repro.core.model_types import (MID_FALLBACK, MID_GORILLA, MID_PMC_MEAN,
                                    MID_PMC_MR, MID_SWING, ModelType)
from repro.query import decode
from repro.storage import segment_store

MODEL_KEYS = {MID_PMC_MEAN: "pmc_mean", MID_SWING: "swing",
              MID_GORILLA: "gorilla", MID_FALLBACK: "raw"}
CONSTANT_TIME_MIDS = (MID_PMC_MEAN, MID_PMC_MR, MID_SWING)


class Tracer:
    """Spans and counts in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: List[dict] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append({"name": name, "value": value, "op": self.op,
                                "span": self._stack[-1] if self._stack
                                else None})

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        children: Dict[int, List[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: Dict[str, float] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, last = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []),
                            key=lambda c: c["start"]):
                lo, hi = max(c["start"], last), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    last = hi
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + (s["end"] - s["start"]) - covered)
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "self_seconds": self.self_times(), **extra}, f)


# ------------------------------------------------------------- SQL metrics

def plan_nodes(jplan) -> Iterator:
    """Physical plan nodes of an executed (possibly adaptive) plan."""
    stack = [jplan]
    while stack:
        node = stack.pop()
        cls = node.getClass().getSimpleName()
        if cls == "AdaptiveSparkPlanExec":
            stack.append(node.executedPlan())
            continue
        if cls.endswith("QueryStageExec"):
            stack.append(node.plan())
            continue
        yield node
        kids = node.children()
        for i in range(kids.size()):
            stack.append(kids.apply(i))


def _metric(node, key: str) -> float:
    opt = node.metrics().get(key)
    return float(opt.get().value()) if opt.isDefined() else 0.0


class PlanReader:
    """Sums the SQL metrics the per-layer report needs per executed plan.

    The Python data source's custom metrics accumulate over the session,
    so they are reported as the increase since the previous plan read.
    """

    PYTHON_KEYS = (("python_boot_ms", "pythonBootTime"),
                   ("python_init_ms", "pythonInitTime"),
                   ("python_total_ms", "pythonTotalTime"),
                   ("bytes_to_python", "pythonDataSent"),
                   ("bytes_from_python", "pythonDataReceived"),
                   ("rows_from_python", "pythonNumRowsReceived"))

    def __init__(self) -> None:
        self._scan_bytes_seen = 0.0

    def read(self, df) -> Dict[str, float]:
        out: Dict[str, float] = {}

        def add(key: str, v: float) -> None:
            out[key] = out.get(key, 0.0) + v

        scan_bytes = 0.0
        for node in plan_nodes(df._jdf.queryExecution().executedPlan()):
            name = node.nodeName()
            if name in ("FlatMapGroupsInPandas", "MapInPandas"):
                prefix = "ingest." if name == "FlatMapGroupsInPandas" else "udf."
                for key, metric in self.PYTHON_KEYS:
                    add(prefix + key, _metric(node, metric))
            elif name.startswith("BatchScan"):
                add("scan_rows", _metric(node, "numOutputRows"))
                scan_bytes += _metric(node, "pythonDataReceived")
            elif name == "BroadcastHashJoin":
                add("join_rows", _metric(node, "numOutputRows"))
            elif name == "HashAggregate":
                add("agg_ms", _metric(node, "aggTime"))
            elif name == "Exchange":
                add("shuffle_bytes", _metric(node, "shuffleBytesWritten"))
        if scan_bytes:
            delta = scan_bytes - self._scan_bytes_seen
            out["scan_bytes_from_python"] = delta if delta >= 0 else scan_bytes
            self._scan_bytes_seen = scan_bytes
        return out


def job_group_tasks(sc, group: str) -> int:
    tracker = sc.statusTracker()
    tasks = 0
    for job in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(job)
        for stage in (info.stageIds if info else ()):
            sinfo = tracker.getStageInfo(stage)
            tasks += sinfo.numTasks if sinfo else 0
    return tasks


# ------------------------------------------------------------- replays

class _Counted(ModelType):
    """Delegating model type that counts and times ``fit`` calls."""

    def __init__(self, inner: ModelType):
        self.inner = inner
        self.mid, self.name, self.lossless = inner.mid, inner.name, inner.lossless
        self.calls = 0
        self.points = 0
        self.seconds = 0.0

    def fit(self, ts, V, delta, length_bound):
        t0 = time.perf_counter()
        res = self.inner.fit(ts, V, delta, length_bound)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        self.points += int(np.size(V))
        return res

    def reconstruct(self, params, ts, n_series):
        return self.inner.reconstruct(params, ts, n_series)


@contextlib.contextmanager
def patched(module, **attrs) -> Iterator[None]:
    """Replace attributes of ``module`` while the block runs."""
    old = {k: getattr(module, k) for k in attrs}
    for k, v in attrs.items():
        setattr(module, k, v)
    try:
        yield
    finally:
        for k, v in old.items():
            setattr(module, k, v)


def _timed(fn, stats: Dict[str, float], key: str, size=None):
    """``fn`` adding its seconds to ``stats[key + "_s"]`` and, given
    ``size(args)``, the values it handled to ``stats[key + "_values"]``."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stats[key + "_s"] = (stats.get(key + "_s", 0.0)
                                 + time.perf_counter() - t0)
            if size is not None:
                stats[key + "_values"] = (stats.get(key + "_values", 0)
                                          + size(args))
    return wrapper


def counted_codec(stats: Dict[str, float]):
    """Count and time ``gorilla.encode``/``decode`` while the block runs."""
    return patched(
        gorilla,
        encode=_timed(gorilla.encode, stats, "encode", lambda a: len(a[0])),
        decode=_timed(gorilla.decode, stats, "decode", lambda a: a[1]))


def replay_ingest(points: pd.DataFrame, meta: pd.DataFrame, eps_pct: float,
                  model_types: Sequence[ModelType] = DEFAULT_MODEL_TYPES
                  ) -> Tuple[list, Dict[str, float]]:
    """``ingest_local`` with counting model types and Gorilla codec and
    with its per-group pivot and compression timed.

    Returns the segments, which equal those of a plain ``ingest_local``,
    and the per-layer values of GOLEMM as it runs in the Spark ingest's
    Python workers.
    """
    counted = [_Counted(mt) for mt in model_types]
    stats = CompressStats()
    codec: Dict[str, float] = {}
    pivot: Dict[str, float] = {}
    groups: List[float] = []
    compress_group = ingest_mod.compress_group

    def compress(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return compress_group(*args, **kwargs)
        finally:
            groups.append(time.perf_counter() - t0)

    with counted_codec(codec), patched(
            ingest_mod,
            pivot_group=_timed(ingest_mod.pivot_group, pivot, "pivot"),
            compress_group=compress):
        segs = ingest_mod.ingest_local(points, meta, eps_pct,
                                       model_types=counted, stats=stats)
    pivot_s = pivot.get("pivot_s", 0.0)
    out = {
        "core.ingest.pivot_s": pivot_s,
        "core.ingest.slowest_group_share": max(groups) / sum(groups),
        "core.golemm.compress_s": sum(groups),
        "core.golemm.segments": stats.segments,
        "core.golemm.fitted_points_per_point":
            sum(c.points for c in counted) / len(points),
        "core.golemm.splits": stats.splits,
        "core.golemm.merges": stats.merges,
        "core.golemm.merge_attempts": stats.merge_attempts,
        "core.golemm.split_merge_s": stats.split_merge_seconds,
        "core.gorilla.encode_s": codec.get("encode_s", 0.0),
        "core.gorilla.encode_values": codec.get("encode_values", 0),
        "replay_ms": (pivot_s + sum(groups)) * 1000.0,
    }
    for mid, key in MODEL_KEYS.items():
        out[f"core.golemm.segments.{key}"] = stats.model_counts.get(mid, 0)
    for c in counted:
        key = MODEL_KEYS.get(c.mid, c.name)
        out[f"core.models.fit_s.{key}"] = c.seconds
        out[f"core.models.fit_calls.{key}"] = c.calls
        if c.mid == MID_GORILLA:
            out["core.models.gorilla_kept_ratio"] = (
                stats.model_counts.get(MID_GORILLA, 0) / c.calls
                if c.calls else 0.0)
    return segs, out


def view_rows(segments, meta: pd.DataFrame,
              tids: Optional[Sequence[int]] = None) -> List[tuple]:
    """Segment View rows (segment, tid, bitpos, scaling, group size) for
    the segments a scan returned, after the Tid and gap filters."""
    sizes = meta.groupby("gid").size()
    members: Dict[int, List[tuple]] = {}
    for r in meta.itertuples(index=False):
        if tids is None or int(r.tid) in tids:
            members.setdefault(int(r.gid), []).append(
                (int(r.tid), int(r.bitpos), float(r.scaling)))
    out = []
    for s in segments:
        for tid, bit, scal in members.get(s.gid, ()):
            if not (s.gaps >> bit) & 1:
                out.append((s, tid, bit, scal, int(sizes.loc[s.gid])))
    return out


def replay_query(store: str, meta: pd.DataFrame, pushdown: dict,
                 values: bool) -> Dict[str, float]:
    """Scan and per-row decoding of one query, replayed on the driver.

    ``values`` selects ``series_values`` (Data Point View) instead of
    ``series_partials`` (model-based aggregates)."""
    gids = pushdown.get("gids")
    lo, hi = pushdown.get("min_end_time"), pushdown.get("max_start_time")
    all_files = segment_store.list_files(store)
    files = segment_store.list_files(store, gids, lo, hi)
    t0 = time.perf_counter()
    segs = list(segment_store.read_segments(store, gids, lo, hi))
    read_s = time.perf_counter() - t0
    rows = view_rows(segs, meta, pushdown.get("tids"))
    codec: Dict[str, float] = {}
    t0 = time.perf_counter()
    with counted_codec(codec):
        for s, _tid, bit, scal, gsize in rows:
            args = (s.mid, s.params, s.start_time, s.end_time, s.si, s.size,
                    s.gaps, bit, gsize)
            if values:
                decode.series_values(*args)
            else:
                decode.series_partials(*args, scal)
    decode_s = time.perf_counter() - t0
    const = sum(1 for r in rows if r[0].mid in CONSTANT_TIME_MIDS)
    return {
        "storage.files_scanned": len(files),
        "storage.files_pruned": len(all_files) - len(files),
        "storage.read_s": read_s,
        "segments_read": len(segs),
        "query.view_rows": len(rows),
        "query.constant_time_share": const / len(rows) if rows else 0.0,
        "query.decode.values_s" if values else "query.decode.partials_s":
            decode_s,
        "core.gorilla.decode_s": codec.get("decode_s", 0.0),
        "core.gorilla.decode_values": codec.get("decode_values", 0),
    }
