"""Integration tests: ingest → .mdb store → DataSourceV2 → views → aggregates.

Every result-correctness test goes through ``repro.oracle`` (DuckDB)
over the *original* generated points, so a broken model, a wrong gap
bitmask, or a bad pushdown shows up as a wrong result — not just "it
ran".  ε = 0 makes GOLEMM lossless (modulo float32, which the
generators already emit), so exact comparison is legitimate.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import oracle
from repro.core import model_types
from repro.core.fallback import GorillaModel
from repro.core.golemm import reconstruct_segment
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


class TestSparkIngest:
    def test_spark_and_local_ingestion_agree(self, spark, ds, grouped_meta):
        seg_df = ingest(spark, ds.to_spark(spark), grouped_meta, eps_pct=0.0)
        via_spark = seg_df.groupBy().agg(
            F.count("*").alias("n"), F.sum("size").alias("points")).first()
        local = ingest_local(ds.points, grouped_meta, eps_pct=0.0)
        assert via_spark["n"] == len(local)
        assert via_spark["points"] == sum(s.size for s in local)

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
        via_spark = [Segment(*r[:7], bytes(r["params"])) for r in
                     ingest(spark, spark.createDataFrame(pts), meta,
                            0.0).collect()]
        def key(s):
            return s.end_time, s.gaps
        assert sorted(via_spark, key=key) == sorted(local, key=key)
        stores = {}
        for name, segs in (("spark", via_spark), ("local", local)):
            stores[name] = str(tmp_path / name)
            write_store(segs, meta, stores[name])
        got = data_point_view(spark, stores["spark"])
        oracle.assert_equivalent(
            got, "SELECT tid, ts, value FROM pts",
            pts=data_point_view(spark, stores["local"]))
        assert got.count() == len(pts)

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
        assert {s.gid for s in segment_store.read_file(early)} == {1}
        reader = ModelarSegmentReader({"path": path,
                                       "max_start_time": "4000"})
        assert [p.paths for p in reader.partitions()] == [[early]]
        scan = segment_scan(spark, path, max_start_time=4000)
        assert sorted(r["start_time"] for r in scan.collect()) == [0, 1000]

    def test_empty_store_scans_empty(self, spark, tmp_path, grouped_meta):
        path = str(tmp_path / "empty")
        write_store([], grouped_meta, path, n_workers=2)
        assert segment_scan(spark, path).count() == 0
        (part,) = ModelarSegmentReader({"path": path}).partitions()
        assert part.paths == []

    def test_empty_gid_list_selects_no_group(self, spark, store):
        assert segment_scan(spark, store, gids=[]).count() == 0
        (part,) = ModelarSegmentReader({"path": store,
                                        "gids": ""}).partitions()
        assert part.paths == []

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
            parts = [p.paths for p in
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
