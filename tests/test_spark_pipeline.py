"""Integration tests: ingest → .mdb store → DataSourceV2 → views → aggregates.

Every result-correctness test goes through ``repro.oracle`` (DuckDB)
over the *original* generated points, so a broken model, a wrong gap
bitmask, or a bad pushdown shows up as a wrong result — not just "it
ran".  ε = 0 makes GOLEMM lossless (modulo float32, which the
generators already emit), so exact comparison is legitimate.
"""
import json
import os
import shutil
import sys
import tempfile
import zipimport

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro import oracle
from repro.core import model_types
from repro.core.fallback import GorillaModel
from repro.core.golemm import compress_group, reconstruct_segment
from repro.core.ingest import ingest, ingest_local
from repro.core.model_types import (MID_PMC_MEAN, FitResult, ModelType,
                                    first_false, register)
from repro.core.segment import Segment
from repro.datasets import ep_like
from repro.dims.grouping import group_time_series, singleton_groups
from repro.dims.primitives import Distance, clause
from repro.query.aggregates import simple_agg
from repro.query.rewrite import gids_for
from repro.query.time_agg import cube_agg
from repro.query.views import data_point_view, segment_scan, segment_view
from repro.storage import datasource, segment_store
from repro.storage.datasource import ModelarSegmentReader
from repro.storage.segment_store import write_store
from repro.worker import trim_importer_cache
from tests.test_segment_store import bad_meta


@pytest.fixture(scope="module")
def ds():
    return ep_like(n_entities=3, n_points=256, seed=21, gap_prob=0.3)


@pytest.fixture(scope="module")
def grouped_meta(ds):
    meta, _ = group_time_series(ds.meta, list(ds.dims),
                                [clause(Distance.auto(ds.dims))])
    return meta


@pytest.fixture(scope="module")
def store(ds, grouped_meta, tmp_path_factory):
    """Lossless (ε=0) store built through driver-side ingestion."""
    path = str(tmp_path_factory.mktemp("store_eps0"))
    segs = ingest_local(ds.points, grouped_meta, eps_pct=0.0)
    write_store(segs, grouped_meta, path, n_workers=4)
    return path


def _segment_key(s):
    return s.gid, s.end_time, s.gaps


def _plan_nodes(df):
    """Nodes of a DataFrame's executed plan, inside AQE's query stages."""
    stack = [df._jdf.queryExecution().executedPlan()]
    while stack:
        node = stack.pop()
        cls = node.getClass().getSimpleName()
        if cls == "AdaptiveSparkPlanExec":
            stack.append(node.executedPlan())
        elif cls.endswith("QueryStageExec"):
            stack.append(node.plan())
        else:
            yield node
            kids = node.children()
            stack.extend(kids.apply(i) for i in range(kids.size()))


class TestSparkIngest:
    def test_spark_and_local_ingestion_agree(self, spark):
        """The Spark ingest stores exactly the driver-side segments, after
        one shuffle into ``min(#groups, defaultParallelism)`` tasks that
        moves one block per Gid and input partition, not one row per
        point.  ``ingest`` turns off Spark's Arrow size probe, and the
        record bound still cuts every batch sent to Python."""
        n_cores = spark.sparkContext.defaultParallelism
        ds = ep_like(n_entities=n_cores // 5 + 2, n_points=256, seed=21,
                     gap_prob=0.3)
        singletons = singleton_groups(ds.meta)
        one_group = singletons.assign(gid=1, bitpos=np.argsort(np.argsort(
            singletons["tid"].to_numpy())))
        points = ds.to_spark(spark)
        n_parts = points.rdd.getNumPartitions()
        for meta in (singletons, one_group):
            n_groups = meta["gid"].nunique()
            for eps in (0.0, 5.0):
                seg_df = ingest(spark, points, meta, eps)
                via_spark = [Segment(*r) for r in seg_df.collect()]
                local = ingest_local(ds.points, meta, eps)
                assert (sorted(via_spark, key=_segment_key)
                        == sorted(local, key=_segment_key)), (n_groups, eps)
                shuffles = [n for n in _plan_nodes(seg_df)
                            if n.nodeName() == "Exchange"]
                assert len(shuffles) == 1
                assert (shuffles[0].outputPartitioning().numPartitions()
                        == min(n_groups, n_cores))
                records = shuffles[0].metrics().get(
                    "shuffleRecordsWritten").get().value()
                assert 0 < records <= n_parts * n_groups < len(ds.points)
        assert len(singletons) > n_cores
        assert spark.conf.get(
            "spark.sql.execution.arrow.maxBytesPerBatch") == "2147483647"
        key, limit = "spark.sql.execution.arrow.maxRecordsPerBatch", 100
        default = spark.conf.get(key)
        spark.conf.set(key, str(limit))
        try:
            rows = points.mapInArrow(lambda batches: (
                pa.RecordBatch.from_pydict({"n": [b.num_rows]})
                for b in batches), "n long").toPandas()["n"]
        finally:
            spark.conf.set(key, default)
        assert rows.max() == limit and rows.sum() == len(ds.points)

    def test_group_split_across_input_partitions(self, spark):
        """Blocks of one group from several input partitions, one of them
        empty, give the driver-side segments, and ``pivot_group`` still
        sees the whole group: a repeated point or an off-grid timestamp
        in another partition fails the load naming the Gid."""
        ds = ep_like(n_entities=2, n_points=128, seed=5, gap_prob=0.2)
        meta, _ = group_time_series(ds.meta, list(ds.dims),
                                    [clause(Distance.auto(ds.dims))])
        points = ds.to_spark(spark).repartition(7).where(
            F.spark_partition_id() != 3)
        placed = points.select(
            "tid", F.spark_partition_id().alias("part")).toPandas()
        assert sorted(placed["part"].unique()) == [0, 1, 2, 4, 5, 6]
        assert points.rdd.getNumPartitions() == 7
        gid_of = meta.set_index("tid")["gid"]
        assert (placed.groupby(placed["tid"].map(gid_of))["part"].nunique()
                > 1).all()
        kept = points.toPandas()
        for eps in (0.0, 5.0):
            via_spark = [Segment(*r) for r in
                         ingest(spark, points, meta, eps).collect()]
            assert (sorted(via_spark, key=_segment_key)
                    == sorted(ingest_local(kept, meta, eps),
                              key=_segment_key)), eps
        row = kept.iloc[[0]]
        gid = int(gid_of[row["tid"].iloc[0]])
        for bad, error in ((row, "repeated"),
                           (row.assign(ts=row["ts"] + 1), "off the SI")):
            extra = spark.createDataFrame(bad, points.schema).coalesce(1)
            with pytest.raises(PythonException,
                               match=f"group {gid}: .*{error}"):
                ingest(spark, points.union(extra), meta, 0.0).collect()

    def test_column_types_give_the_same_segments(self, spark):
        """Points as ``tid bigint, ts bigint, value double`` give the
        segments of ``tid int, value float``: the doubles round to
        float32 as ``pivot_group`` rounds them."""
        ds = ep_like(n_entities=1, n_points=128, seed=8, gap_prob=0.2)
        meta = singleton_groups(ds.meta)
        wide = ds.points.astype({"tid": np.int64, "ts": np.int64,
                                 "value": np.float64})
        wide["value"] *= 1 + np.random.default_rng(8).uniform(
            -1e-4, 1e-4, len(wide))
        narrow = wide.astype({"tid": np.int32, "value": np.float32})
        assert (narrow["value"].to_numpy(np.float64)
                != wide["value"].to_numpy()).mean() > 0.9
        frames = {"wide": spark.createDataFrame(wide),
                  "narrow": spark.createDataFrame(narrow)}
        assert frames["wide"].dtypes == [
            ("tid", "bigint"), ("ts", "bigint"), ("value", "double")]
        assert frames["narrow"].dtypes == [
            ("tid", "int"), ("ts", "bigint"), ("value", "float")]
        for eps in (0.0, 5.0):
            local = sorted(ingest_local(wide, meta, eps), key=_segment_key)
            for name, frame in frames.items():
                via_spark = [Segment(*r) for r in
                             ingest(spark, frame, meta, eps).collect()]
                assert sorted(via_spark, key=_segment_key) == local, (
                    name, eps)

    def test_gap_in_series_64_through_spark(self, spark, tmp_path):
        """A 64-series group whose last series has a gap sets bit 63 of
        the gap mask, the sign bit of Spark's long: both the Spark ingest
        and the DataSource must carry it."""
        n, tids = 120, np.arange(1, 65)
        rng = np.random.default_rng(64)
        walk = np.cumsum(rng.normal(0, 1, (n, 1)), axis=0) + 100
        V = (walk + rng.normal(0, 0.1, (n, 64))).astype(np.float32)
        pts = pd.DataFrame({"tid": np.repeat(tids, n),
                            "ts": np.tile(np.arange(n) * 100, 64),
                            "value": V.T.ravel()})
        pts = pts[~((pts["tid"] == 64) & pts["ts"].between(4000, 7900))]
        meta = pd.DataFrame({"tid": tids, "gid": 1, "bitpos": tids - 1,
                             "scaling": 1.0, "si": 100})
        local = ingest_local(pts, meta, 0.0)
        assert any(s.gaps >> 63 for s in local)
        via_spark = [Segment(*r) for r in
                     ingest(spark, spark.createDataFrame(pts), meta,
                            0.0).collect()]
        assert (sorted(via_spark, key=_segment_key)
                == sorted(local, key=_segment_key))
        stores = {}
        for name, segs in (("spark", via_spark), ("local", local)):
            stores[name] = str(tmp_path / name)
            write_store(segs, meta, stores[name])
        got = data_point_view(spark, stores["spark"])
        oracle.assert_equivalent(
            got, "SELECT tid, ts, value FROM pts",
            pts=data_point_view(spark, stores["local"]))
        # ε = 0 is lossless: every value, series 64's included, is the
        # ingested one, so a wrong column for bit 63 cannot pass.
        oracle.assert_equivalent(got, "SELECT tid, ts, value FROM pts",
                                 pts=pts)
        assert got.count() == len(pts)

    def test_spark_ingest_rejects_points_of_a_tid_not_in_meta(self, spark):
        """An inner join would drop that tid's points unseen."""
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        meta = singleton_groups(ds.meta)
        unknown = int(meta["tid"].max())
        with pytest.raises(PythonException,
                           match=rf"tids \[{unknown}\] have no gid"):
            ingest(spark, ds.to_spark(spark),
                   meta[meta["tid"] != unknown], 0.0).collect()

    def test_spark_ingest_rejects_points_of_a_null_tid(self, spark):
        """``pack`` names a null tid beside an unknown one."""
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        meta = singleton_groups(ds.meta)
        first, unknown = int(meta["tid"].min()), int(meta["tid"].max())
        points = ds.to_spark(spark).coalesce(1).withColumn(
            "tid", F.when(F.col("tid") != first, F.col("tid")))
        with pytest.raises(PythonException,
                           match=rf"tids \[null, {unknown}\] have no gid"):
            ingest(spark, points, meta[meta["tid"] != unknown],
                   0.0).collect()

    def test_spark_ingest_rejects_a_nan_value(self, spark):
        """``pack`` names its tid and timestamp, as ``ingest_local`` does."""
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        pts = ds.points.reset_index(drop=True)
        tid, ts = (int(pts.loc[7, c]) for c in ("tid", "ts"))
        pts.loc[7, "value"] = np.nan
        with pytest.raises(PythonException,
                           match=f"tid {tid} at ts {ts} has a NaN"):
            ingest(spark, spark.createDataFrame(pts),
                   singleton_groups(ds.meta), 0.0).collect()

    @pytest.mark.parametrize("kind", ["bitpos", "tid"])
    def test_spark_ingest_rejects_bad_meta(self, spark, kind):
        """bitpos [0, 5] stored without error; a tid listed twice sent
        its points to one of its Gids and stored nothing for the other."""
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        meta, error = bad_meta(singleton_groups(ds.meta), kind)
        with pytest.raises(ValueError, match=error):
            ingest(spark, ds.to_spark(spark), meta, 0.0).collect()

    def test_ingestion_covers_every_point(self, ds, grouped_meta):
        segs = ingest_local(ds.points, grouped_meta, eps_pct=0.0)
        per_series = sum(s.size * bin(~s.gaps & ((1 << 64) - 1)).count("1")
                         for s in segs)
        # Points per segment × present series must equal the raw count.
        sizes = grouped_meta.groupby("gid").size()
        total = 0
        for s in segs:
            n_present = int(sizes.loc[s.gid]) - bin(
                s.gaps & ((1 << int(sizes.loc[s.gid])) - 1)).count("1")
            total += s.size * n_present
        assert total == len(ds.points)


@st.composite
def _groups(draw):
    """Points and ``meta`` of 1–3 groups, the first of up to 64 series:
    random bitpos permutations, scalings, SIs and gaps."""
    sizes = [draw(st.integers(1, 64) | st.just(64))] + draw(
        st.lists(st.integers(1, 6), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = draw(st.sampled_from([0.0, 0.1, 0.4]))
    tids = rng.permutation(sum(sizes)) + 1
    metas, frames = [], []
    for gid, n in enumerate(sizes, start=1):
        tid, tids = tids[:n], tids[n:]
        si = int(rng.choice([100, 60_000, 7_200_000]))
        metas.append(pd.DataFrame({
            "tid": tid, "gid": gid, "bitpos": rng.permutation(n),
            "scaling": rng.choice([0.5, 1.0, 4.0], n), "si": si}))
        n_t = int(rng.integers(20, 120))
        walk = 50 + np.cumsum(rng.normal(0, 0.5, (n_t, 1)), axis=0)
        V = np.round(walk + rng.normal(0, 0.05, (n_t, n)), 3)
        row, col = np.nonzero(rng.random((n_t, n)) >= gap)
        frames.append(pd.DataFrame({
            "tid": tid[col], "ts": int(rng.integers(0, 10**9)) + si * row,
            "value": V[row, col]}))
    return pd.concat(metas, ignore_index=True), pd.concat(frames)


def _reference_segments(points, meta, eps):
    """``compress_group`` on each group's values placed by ``bitpos`` and
    divided by its scaling: what ingest must store, without its code."""
    out = []
    for gid, g in meta.groupby("gid"):
        g = g.set_index("tid")
        pts = points[points["tid"].isin(g.index)]
        if pts.empty:
            continue
        si, t_lo = int(g["si"].iloc[0]), int(pts["ts"].min())
        rows = (pts["ts"].to_numpy() - t_lo) // si
        V = np.full((rows.max() + 1, len(g)), np.nan, np.float32)
        V[rows, g.loc[pts["tid"], "bitpos"]] = pts["value"].to_numpy(
            np.float32)
        scaling = g.sort_values("bitpos")["scaling"].to_numpy(np.float32)
        out += compress_group(t_lo + si * np.arange(len(V)),
                              V / scaling[None, :], eps, gid=gid, si=si)
    return sorted(out, key=_segment_key)


class TestRandomIngest:
    @settings(max_examples=15, deadline=None)
    @given(data=_groups(), n_parts=st.integers(1, 7), seed=st.integers(),
           tid=st.sampled_from([np.int32, np.int64]),
           value=st.sampled_from([np.float32, np.float64]),
           eps=st.sampled_from([0.0, 1.0, 10.0]))
    def test_spark_ingest_equals_driver_ingest(self, spark, data, n_parts,
                                               seed, tid, value, eps):
        """``ingest`` stores ``ingest_local``'s segments, and both store
        those of the groups' values placed by ``bitpos``, whatever the
        input partitions (some empty) and column types."""
        meta, pts = data
        pts = pts.astype({"tid": tid, "value": value})
        empty = np.random.default_rng(seed % 2**32).permutation(n_parts)[1:]
        points = spark.createDataFrame(pts).repartition(n_parts).where(
            ~F.spark_partition_id().isin(empty[:len(empty) // 2].tolist()))
        kept = points.toPandas()
        local = sorted(ingest_local(kept, meta, eps), key=_segment_key)
        via_spark = [Segment(*r) for r in
                     ingest(spark, points, meta, eps).collect()]
        assert sorted(via_spark, key=_segment_key) == local
        assert local == _reference_segments(kept, meta, eps)


#: 2021-02-01 00:00 UTC in ms: drawn segment ends lie within 3 days of it.
_MONTH_END = 1_612_137_600_000
_DAY = 86_400_000


@st.composite
def _stored_groups(draw):
    """``meta`` and segments of 1–4 groups of 1, 5 or 64 series: gap
    masks up to bit 63, sizes from 1, SIs up to two hours, ends across a
    month end and 1–64 B of parameters; unique in (gid, end_time, gaps)."""
    gids = draw(st.lists(st.integers(1, 2**31 - 1), min_size=1, max_size=4,
                         unique=True))
    metas, segs = [], []
    for gid in gids:
        n, si = (draw(st.sampled_from(c)) for c in (
            [1, 5, 64], [1, 100, 60_000, 3_600_001, 7_200_000]))
        metas.append(pd.DataFrame({"tid": len(metas) * 64 + np.arange(n),
                                   "gid": gid, "bitpos": np.arange(n),
                                   "scaling": 1.0, "si": si}))
        for _ in range(draw(st.integers(0, 6))):
            size = draw(st.just(1) | st.integers(1, 50))
            end = _MONTH_END + draw(st.integers(-3 * _DAY, 3 * _DAY))
            segs.append(Segment(
                gid, end - (size - 1) * si, end, si, size,
                draw(st.integers(0, 255)),
                draw(st.just((1 << n) - 1) | st.integers(0, (1 << n) - 1)),
                draw(st.binary(min_size=1, max_size=64))))
    unique = {_segment_key(s): s for s in segs}
    return pd.concat(metas, ignore_index=True), list(unique.values())


def _predicate(data, segs):
    """Random Gids (``[]`` and absent Gids included) and time bounds,
    often at a segment's own end or start time."""
    gids = st.sampled_from(sorted({s.gid for s in segs}) + [0])
    times = st.integers(_MONTH_END - 4 * _DAY, _MONTH_END + 4 * _DAY)
    if segs:
        ends = st.sampled_from([s.end_time for s in segs])
        starts = st.sampled_from([s.start_time for s in segs])
        times = times | ends | starts
    return (data.draw(st.none() | st.lists(gids, max_size=3)),
            data.draw(st.none() | times), data.draw(st.none() | times))


class TestRandomStore:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), groups=_stored_groups(),
           n_workers=st.integers(1, 5))
    def test_store_returns_what_it_was_given(self, spark, data, groups,
                                             n_workers):
        """``read_segments`` and the ``modelardb`` scan return the
        stored segments that a brute-force filter keeps, and the same
        segments, in any order, give the same ``.mdb`` bytes."""
        meta, segs = groups
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            write_store(segs, meta, path, n_workers)
            write_store(segs[::-1], meta, again, n_workers)
            for name in os.listdir(os.path.join(path, "segments")):
                with open(os.path.join(path, "segments", name), "rb") as f, \
                        open(os.path.join(again, "segments", name),
                             "rb") as g:
                    assert f.read() == g.read(), name
            got = segment_store.read_segments(path)
            assert sorted(got, key=_segment_key) == sorted(
                segs, key=_segment_key)
            for i in range(3):
                gids, lo, hi = _predicate(data, segs)
                want = sorted((s for s in segs
                               if (gids is None or s.gid in gids)
                               and (lo is None or s.end_time >= lo)
                               and (hi is None or s.start_time <= hi)),
                              key=_segment_key)
                got = segment_store.read_segments(path, gids, lo, hi)
                assert sorted(got, key=_segment_key) == want
                if i < 2:
                    scan = segment_scan(spark, path, gids, lo, hi)
                    assert sorted((Segment(*r) for r in scan.collect()),
                                  key=_segment_key) == want


class TestStoreAndDataSource:
    def test_store_roundtrip(self, ds, grouped_meta, store):
        segs = list(segment_store.read_segments(store))
        assert len(segs) > 0
        assert segment_store.store_bytes(store) > 0

    def test_footer_pruning_by_gid(self, store, grouped_meta):
        gid = int(grouped_meta["gid"].iloc[0])
        all_files = segment_store.list_files(store)
        pruned = segment_store.list_files(store, gids=[gid])
        assert 1 <= len(pruned) <= len(all_files)

    def test_datasource_scan_matches_direct_read(self, spark, store):
        df = segment_scan(spark, store)
        direct = list(segment_store.read_segments(store))
        assert df.count() == len(direct)
        assert df.agg(F.sum("size")).first()[0] == sum(s.size for s in direct)

    def test_datasource_gid_pushdown(self, spark, store, grouped_meta):
        gid = int(grouped_meta["gid"].iloc[0])
        df = segment_scan(spark, store, gids=[gid])
        gids = {r["gid"] for r in df.select("gid").distinct().collect()}
        assert gids == {gid}

    def test_datasource_time_pushdown(self, spark, store, ds):
        mid_ts = int(ds.points["ts"].median())
        df = segment_scan(spark, store, min_end_time=mid_ts)
        assert df.agg(F.min("end_time")).first()[0] >= mid_ts

    def test_upper_time_bound_skips_later_file(self, spark, tmp_path):
        meta = pd.DataFrame({"tid": [1, 2], "gid": [1, 2], "bitpos": 0,
                             "scaling": 1.0, "si": 100})
        segs = [Segment(gid, t0, t0 + 900, 100, 10, MID_PMC_MEAN, 0,
                        b"\0\0\x80?")
                for gid, t0 in ((1, 0), (1, 1000), (2, 5000), (2, 6000))]
        path = str(tmp_path / "two_files")
        write_store(segs, meta, path, n_workers=2)
        assert len(segment_store.list_files(path)) == 2
        (early,) = segment_store.list_files(path, max_start_time=4000)
        assert set(segment_store.read_file(early)["gid"].to_pylist()) == {1}
        reader = ModelarSegmentReader({"path": path,
                                       "max_start_time": "4000"})
        assert [p.value for p in reader.partitions()] == [[early]]
        scan = segment_scan(spark, path, max_start_time=4000)
        assert sorted(r["start_time"] for r in scan.collect()) == [0, 1000]

    def test_empty_store_scans_empty(self, spark, tmp_path, grouped_meta):
        path = str(tmp_path / "empty")
        write_store([], grouped_meta, path, n_workers=2)
        assert segment_scan(spark, path).count() == 0
        (part,) = ModelarSegmentReader({"path": path}).partitions()
        assert part.value == []

    def test_empty_gid_list_selects_no_group(self, spark, store):
        assert segment_scan(spark, store, gids=[]).count() == 0
        (part,) = ModelarSegmentReader({"path": store,
                                        "gids": ""}).partitions()
        assert part.value == []

    def test_small_store_scans_in_one_partition(self, spark, store):
        assert len(segment_store.list_files(store)) == 4
        assert segment_scan(spark, store).rdd.getNumPartitions() == 1

    def test_partitions_pack_files_by_segment_count(self, store,
                                                    monkeypatch):
        counts = {f: footer["count"]
                  for f, footer in segment_store.list_footers(store)}
        first = counts[min(counts)]
        for per_partition in (1, first, first + 1, sum(counts.values()),
                              10 ** 9):
            monkeypatch.setattr(datasource, "SEGMENTS_PER_PARTITION",
                                per_partition)
            parts = [p.value for p in
                     ModelarSegmentReader({"path": store}).partitions()]
            assert [f for paths in parts for f in paths] == sorted(counts)
            for paths in parts[:-1]:
                total = sum(counts[f] for f in paths)
                assert total >= per_partition
                assert total - counts[paths[-1]] < per_partition
            assert sum(counts[f] for f in parts[-1]) > 0

    def test_large_store_scans_in_several_partitions(self, spark, tmp_path):
        n = datasource.SEGMENTS_PER_PARTITION + 100
        meta = pd.DataFrame({"tid": [1, 2], "gid": [1, 2], "bitpos": 0,
                             "scaling": 1.0, "si": 100})
        segs = [Segment(gid, t, t, 100, 1, MID_PMC_MEAN, 0, b"\0\0\x80?")
                for gid in (1, 2) for t in range(0, 100 * n, 100)]
        path = str(tmp_path / "large")
        write_store(segs, meta, path, n_workers=2)
        assert len(segment_store.list_files(path)) == 2
        scan = segment_scan(spark, path)
        assert scan.rdd.getNumPartitions() >= 2
        direct = list(segment_store.read_segments(path))
        assert scan.count() == len(direct) == 2 * n
        assert (scan.agg(F.sum("size")).first()[0]
                == sum(s.size for s in direct))


class TestViews:
    def test_segment_view_excludes_gap_tids(self, spark, store, grouped_meta):
        view = segment_view(spark, store)
        bad = view.filter(
            F.expr("(shiftright(gaps, bitpos) & 1) != 0")).count()
        assert bad == 0

    def test_views_check_the_model_table(self, spark, store, tmp_path):
        """A stored Mid that maps to another type name, or that the
        registry lacks, fails both views before any segment decodes."""
        path = str(tmp_path / "store")
        shutil.copytree(store, path)
        with open(os.path.join(path, "model.json")) as f:
            table = json.load(f)
        swapped = {**table, "1": table["2"], "2": table["1"]}
        for bad, mid in ((swapped, 1), ({**table, "99": "Lost"}, 99)):
            with open(os.path.join(path, "model.json"), "w") as f:
                json.dump(bad, f)
            for view in (segment_view, data_point_view):
                with pytest.raises(ValueError, match=f"Mid {mid} "):
                    view(spark, path)

    def test_data_point_view_reconstructs_exactly_at_eps0(self, spark, store, ds):
        got = (data_point_view(spark, store).toPandas()
               .sort_values(["tid", "ts"]).reset_index(drop=True))
        want = (ds.points.sort_values(["tid", "ts"]).reset_index(drop=True))
        assert len(got) == len(want)
        assert (got["tid"].to_numpy() == want["tid"].to_numpy()).all()
        assert (got["ts"].to_numpy() == want["ts"].to_numpy()).all()
        np.testing.assert_allclose(got["value"], want["value"],
                                   rtol=1e-5, atol=1e-4)

    def test_data_point_view_oracle_aggregate(self, spark, store, ds):
        dpv = data_point_view(spark, store)
        res = dpv.groupBy("tid").agg(
            F.count("*").alias("c"),
            F.round(F.min("value"), 3).alias("mn"),
            F.round(F.max("value"), 3).alias("mx"))
        oracle.assert_equivalent(
            res,
            "SELECT tid, COUNT(*) AS c, ROUND(MIN(value), 3) AS mn, "
            "ROUND(MAX(value), 3) AS mx FROM pts GROUP BY tid",
            pts=ds.points)

    def test_data_point_view_supports_sql(self, spark, store, ds):
        dpv = data_point_view(spark, store, with_dims=True)
        dpv.createOrReplaceTempView("dp")
        res = spark.sql(
            "SELECT measure_category, COUNT(*) AS c FROM dp "
            "GROUP BY measure_category ORDER BY measure_category")
        pts = ds.points.merge(
            ds.meta[["tid", "measure_category"]], on="tid")
        oracle.assert_equivalent(
            res,
            "SELECT measure_category, COUNT(*) AS c FROM pts "
            "GROUP BY measure_category ORDER BY measure_category",
            pts=pts)


class TestPythonWorkers:
    def test_worker_keeps_no_zip_importer(self, spark, store, ds):
        """After the trim a reused Python worker has no archive for
        PySpark's per-task ``invalidate_caches()`` to re-read, and the
        Data Point View it feeds still rebuilds every point."""
        points = data_point_view(spark, store)
        oracle.assert_equivalent(points, "SELECT tid, ts, value FROM pts",
                                 pts=ds.points)

        def zip_importers(batches):
            trim_importer_cache()
            n = sum(isinstance(v, zipimport.zipimporter)
                    for v in sys.path_importer_cache.values())
            for _ in batches:
                pass
            yield pd.DataFrame({"n": [n]})

        counts = points.mapInPandas(zip_importers, "n long").collect()
        assert counts and all(r.n == 0 for r in counts)


class TestSimpleAggregates:
    def test_count_min_max_vs_oracle(self, spark, store, ds):
        view = segment_view(spark, store)
        res = simple_agg(view, group_cols=("tid",),
                         aggs=("count", "min", "max"))
        res = res.select("tid", "count_s",
                         F.round("min_s", 3).alias("min_s"),
                         F.round("max_s", 3).alias("max_s"))
        oracle.assert_equivalent(
            res,
            "SELECT tid, COUNT(*) AS count_s, "
            "ROUND(MIN(value), 3) AS min_s, ROUND(MAX(value), 3) AS max_s "
            "FROM pts GROUP BY tid",
            pts=ds.points)

    def test_sum_avg_close_to_truth(self, spark, store, ds):
        view = segment_view(spark, store)
        got = simple_agg(view, group_cols=("tid",),
                         aggs=("sum", "avg")).toPandas().set_index("tid")
        want = ds.points.groupby("tid")["value"].agg(["sum", "mean"])
        for tid in want.index:
            assert got.loc[tid, "sum_s"] == pytest.approx(
                want.loc[tid, "sum"], rel=1e-5)
            assert got.loc[tid, "avg_s"] == pytest.approx(
                want.loc[tid, "mean"], rel=1e-5)

    def test_group_by_dimension(self, spark, store, ds):
        view = segment_view(spark, store)
        res = simple_agg(view, group_cols=("measure_category",),
                         aggs=("count",))
        pts = ds.points.merge(ds.meta[["tid", "measure_category"]], on="tid")
        oracle.assert_equivalent(
            res,
            "SELECT measure_category, COUNT(*) AS count_s FROM pts "
            "GROUP BY measure_category",
            pts=pts)

    def test_full_dataset_aggregate(self, spark, store, ds):
        view = segment_view(spark, store)
        got = simple_agg(view, group_cols=(), aggs=("count",)).first()
        assert got["count_s"] == len(ds.points)

    def test_lossy_aggregate_within_error_bound(self, spark, ds, grouped_meta,
                                                tmp_path):
        path = str(tmp_path / "lossy")
        segs = ingest_local(ds.points, grouped_meta, eps_pct=10.0)
        write_store(segs, grouped_meta, path)
        view = segment_view(spark, path)
        got = simple_agg(view, group_cols=("tid",),
                         aggs=("avg",)).toPandas().set_index("tid")
        want = ds.points.groupby("tid")["value"].mean()
        for tid in want.index:
            assert got.loc[tid, "avg_s"] == pytest.approx(
                want.loc[tid], rel=0.1)


class TestRewriting:
    def test_gids_for_tids(self, grouped_meta):
        tid = int(grouped_meta["tid"].iloc[0])
        gid = int(grouped_meta["gid"].iloc[0])
        assert gids_for(grouped_meta, tids=[tid]) == [gid]

    def test_gids_for_members(self, grouped_meta):
        gids = gids_for(grouped_meta,
                        members={"measure_category": "Weather"})
        want = set(grouped_meta.loc[
            grouped_meta["measure_category"] == "Weather", "gid"])
        assert set(gids) == want
        assert gids_for(grouped_meta) == sorted(set(grouped_meta["gid"]))

    def test_pushed_query_equals_unpushed(self, spark, store, grouped_meta,
                                          ds):
        tids = grouped_meta["tid"].iloc[:2].astype(int).tolist()
        gids = gids_for(grouped_meta, tids=tids)
        pushed = simple_agg(
            segment_view(spark, store, gids=gids, tids=tids),
            group_cols=("tid",), aggs=("count",)).toPandas()
        truth = (ds.points[ds.points["tid"].isin(tids)]
                 .groupby("tid").size())
        got = pushed.set_index("tid")["count_s"]
        for tid in tids:
            assert got.loc[tid] == truth.loc[tid]


class TestTimeAggregates:
    def test_cube_count_sum_hour_vs_oracle(self, spark, store, ds):
        view = segment_view(spark, store)
        res = cube_agg(view, "hour", group_cols=("tid",),
                       aggs=("count", "sum"))
        res = res.select("tid", "bucket_start", "count_s",
                         F.round("sum_s", 2).alias("sum_s"))
        pts = ds.points.copy()
        pts["bucket_start"] = (pts["ts"] // 3_600_000) * 3_600_000
        oracle.assert_equivalent(
            res,
            "SELECT tid, bucket_start, COUNT(*) AS count_s, "
            "ROUND(SUM(value), 2) AS sum_s "
            "FROM pts GROUP BY tid, bucket_start",
            pts=pts)

    def test_cube_min_max_day(self, spark, store, ds):
        view = segment_view(spark, store)
        res = cube_agg(view, "day", group_cols=("tid",),
                       aggs=("min", "max"))
        res = res.select("tid", "bucket_start",
                         F.round("min_s", 3).alias("mn"),
                         F.round("max_s", 3).alias("mx"))
        pts = ds.points.copy()
        pts["bucket_start"] = (pts["ts"] // 86_400_000) * 86_400_000
        oracle.assert_equivalent(
            res,
            "SELECT tid, bucket_start, ROUND(MIN(value), 3) AS mn, "
            "ROUND(MAX(value), 3) AS mx FROM pts GROUP BY tid, bucket_start",
            pts=pts)

    def test_cube_month_group_by_dimension(self, spark, store, ds):
        view = segment_view(spark, store)
        res = cube_agg(view, "month", group_cols=("measure_category",),
                       aggs=("count",))
        pts = ds.points.merge(ds.meta[["tid", "measure_category"]], on="tid")
        months = (pd.to_datetime(pts["ts"], unit="ms")
                  .dt.to_period("M").dt.start_time)
        pts["bucket_start"] = months.astype(np.int64) // 1_000_000
        oracle.assert_equivalent(
            res,
            "SELECT measure_category, bucket_start, COUNT(*) AS count_s "
            "FROM pts GROUP BY measure_category, bucket_start",
            pts=pts)

    @pytest.mark.parametrize("empty", [False, True])
    def test_unsupported_interval_rejected_on_call(self, spark, store,
                                                   grouped_meta, tmp_path,
                                                   empty):
        if empty:
            store = str(tmp_path / "empty")
            write_store([], grouped_meta, store, n_workers=2)
        with pytest.raises(ValueError, match="unsupported interval"):
            cube_agg(segment_view(spark, store), "week")


class TestUngroupedStore:
    def test_singleton_pipeline(self, spark, ds, tmp_path):
        meta = singleton_groups(ds.meta)
        segs = ingest_local(ds.points, meta, eps_pct=0.0)
        path = str(tmp_path / "nogroup")
        write_store(segs, meta, path)
        got = simple_agg(segment_view(spark, path), group_cols=("tid",),
                         aggs=("count",)).toPandas()
        want = ds.points.groupby("tid").size()
        assert (got.set_index("tid")["count_s"].sort_index()
                == want.sort_index()).all()


class TestUserModelType:
    def test_registered_type_queried_through_both_views(
            self, spark, tmp_path, monkeypatch):
        """A model type with only fit and reconstruct, registered on the
        driver, answers aggregates and data points like a built-in."""

        class Sixteenths(ModelType):
            """Every value rounded to a multiple of 1/16."""

            mid = 42
            name = "Sixteenths"

            def fit(self, ts, V, delta, length_bound):
                q = np.round(V * 16.0) / 16.0
                n = first_false((np.abs(q - V) <= delta).all(axis=1))
                n = min(n, length_bound)
                return FitResult(n, q[:n].astype("<f4").tobytes() if n
                                 else None)

            def reconstruct(self, params, ts, n_series):
                return np.frombuffer(params, "<f4").reshape(len(ts),
                                                            n_series)

        monkeypatch.setattr(model_types, "_REGISTRY",
                            dict(model_types._REGISTRY))
        register(Sixteenths())
        ds = ep_like(n_entities=1, n_points=3000, si=1_200_000, seed=22,
                     gap_prob=0.3)      # 41.7 days: crosses a month end
        meta, _ = group_time_series(ds.meta, list(ds.dims),
                                    [clause(Distance.auto(ds.dims))])
        segs = ingest_local(ds.points, meta, 1.0,
                            model_types=(Sixteenths(),))
        assert any(s.mid == Sixteenths.mid for s in segs)
        path = str(tmp_path / "user_type")
        write_store(segs, meta, path)

        # Driver-side reference: every point rebuilt by reconstruct_segment.
        rows = []
        for gid, g in meta.groupby("gid"):
            g = g.sort_values("bitpos")
            for s in (s for s in segs if s.gid == gid):
                ts, cols, V = reconstruct_segment(s, len(g))
                for j, c in enumerate(cols):
                    rows.append(pd.DataFrame({
                        "tid": int(g["tid"].iloc[c]), "ts": ts,
                        "value": V[:, j].astype(np.float64)
                        * float(g["scaling"].iloc[c])}))
        ref = pd.concat(rows, ignore_index=True)

        got = (data_point_view(spark, path).toPandas()
               .sort_values(["tid", "ts"]).reset_index(drop=True))
        want = ref.sort_values(["tid", "ts"]).reset_index(drop=True)
        np.testing.assert_array_equal(got["tid"], want["tid"])
        np.testing.assert_array_equal(got["ts"], want["ts"])
        np.testing.assert_array_equal(got["value"],
                                      want["value"].astype(np.float32))

        view = segment_view(spark, path)
        ref["month"] = (pd.to_datetime(ref["ts"], unit="ms").dt
                        .to_period("M").dt.start_time.astype(np.int64)
                        // 1_000_000)
        ref["hour"] = ref["ts"] // 3_600_000 * 3_600_000
        for res, keys in ((simple_agg(view), ["tid"]),
                          (cube_agg(view, "hour"), ["tid", "hour"]),
                          (cube_agg(view, "month"), ["tid", "month"])):
            res = res.toPandas().rename(
                columns={"bucket_start": keys[-1]}).set_index(keys)
            agg = ref.groupby(keys)["value"].agg(
                ["count", "sum", "mean", "min", "max"])
            assert sorted(res.index) == sorted(agg.index)
            res = res.loc[agg.index]
            np.testing.assert_array_equal(res["count_s"], agg["count"])
            for col, ref_col in (("sum_s", "sum"), ("avg_s", "mean"),
                                 ("min_s", "min"), ("max_s", "max")):
                np.testing.assert_allclose(res[col], agg[ref_col],
                                           rtol=1e-12)
