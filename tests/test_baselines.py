"""Tests for the baseline systems: formats, Cassandra-sim, InfluxDB-sim, MDB."""
import os
import struct
import zlib

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import oracle
from repro.baselines import cassandra_sim, formats, influx_sim
from repro.baselines.mdb import MDB_MODEL_TYPES, ingest_mdb, mdb_meta
from repro.core.model_types import MID_PMC_MR
from repro.datasets import ep_like


@pytest.fixture(scope="module")
def ds():
    return ep_like(n_entities=2, n_points=192, seed=33, gap_prob=0.2)


class TestFormats:
    @pytest.mark.parametrize("fmt", ["parquet", "orc"])
    def test_write_read_roundtrip(self, spark, ds, tmp_path_factory, fmt):
        path = str(tmp_path_factory.mktemp(fmt))
        formats.write_format(spark, ds.points, ds.meta, path, fmt)
        assert formats.dir_bytes(path) > 0
        df = formats.read_format(spark, path, fmt)
        assert df.count() == len(ds.points)

    def test_agg_query_vs_oracle(self, spark, ds, tmp_path):
        path = str(tmp_path / "pq")
        formats.write_format(spark, ds.points, ds.meta, path, "parquet")
        res = formats.agg_query(spark, path, "parquet", aggs=("count",))
        oracle.assert_equivalent(
            res, "SELECT tid, COUNT(*) AS count_s FROM pts GROUP BY tid",
            pts=ds.points)

    def test_pr_query(self, spark, ds, tmp_path):
        path = str(tmp_path / "pq2")
        formats.write_format(spark, ds.points, ds.meta, path, "parquet")
        tid = int(ds.points["tid"].iloc[0])
        sub = ds.points[ds.points["tid"] == tid]
        lo, hi = int(sub["ts"].quantile(0.25)), int(sub["ts"].quantile(0.75))
        got = formats.pr_query(spark, path, "parquet", tid, lo, hi).count()
        want = ((sub["ts"] >= lo) & (sub["ts"] <= hi)).sum()
        assert got == want


class TestCassandraSim:
    def test_roundtrip(self, spark, ds, tmp_path):
        path = str(tmp_path / "cas")
        cassandra_sim.write(ds.points, path)
        assert cassandra_sim.store_bytes(path) > 0
        df = cassandra_sim.read_all(spark, path)
        assert df.count() == len(ds.points)

    def test_values_preserved(self, spark, ds, tmp_path):
        path = str(tmp_path / "cas2")
        cassandra_sim.write(ds.points, path)
        got = (cassandra_sim.read_all(spark, path).toPandas()
               .sort_values(["tid", "ts"]).reset_index(drop=True))
        want = ds.points.sort_values(["tid", "ts"]).reset_index(drop=True)
        np.testing.assert_array_equal(got["value"].to_numpy(np.float32),
                                      want["value"].to_numpy(np.float32))

    def test_pr_query_pruned(self, ds, tmp_path):
        path = str(tmp_path / "cas3")
        cassandra_sim.write(ds.points, path)
        tid = int(ds.points["tid"].max())
        sub = ds.points[ds.points["tid"] == tid]
        lo, hi = int(sub["ts"].min()), int(sub["ts"].median())
        got = cassandra_sim.pr_query(path, tid, lo, hi)
        want = sub[(sub["ts"] >= lo) & (sub["ts"] <= hi)]
        assert len(got) == len(want)

    def test_compresses_vs_raw_rows(self, ds, tmp_path):
        path = str(tmp_path / "cas4")
        cassandra_sim.write(ds.points, path)
        raw = len(ds.points) * 16  # 4 + 8 + 4 bytes per row
        assert cassandra_sim.store_bytes(path) < raw

    def test_rows_match_struct_reference(self, ds, tmp_path, monkeypatch):
        # data.bin is zlib-1 chunks of struct "<iqf" rows in (tid, ts) order.
        monkeypatch.setattr(cassandra_sim, "CHUNK_ROWS", 100)
        path = str(tmp_path / "cas5")
        cassandra_sim.write(ds.points.sample(frac=1.0, random_state=3), path)
        rows = ds.points.sort_values(["tid", "ts"])
        rec = struct.Struct("<iqf")
        recs = [rec.pack(int(t), int(s), float(v)) for t, s, v in zip(
            rows["tid"], rows["ts"], rows["value"].to_numpy(np.float32))]
        want = b"".join(zlib.compress(b"".join(recs[i:i + 100]), 1)
                        for i in range(0, len(recs), 100))
        with open(os.path.join(path, "data.bin"), "rb") as f:
            assert f.read() == want

    @pytest.mark.parametrize("tid, lo, hi, n_read", [
        (1, 250, 349, 2),      # one tid's chunks 2–3 of 0–9
        (None, 0, 40, 2),      # chunk 2 (tid 2 only) starts after hi
    ])
    def test_pr_query_prunes_both_time_bounds(self, tmp_path, monkeypatch,
                                              tid, lo, hi, n_read):
        monkeypatch.setattr(cassandra_sim, "CHUNK_ROWS", 100)
        n = 1000 if tid is not None else 150
        tids = [1] if tid is not None else [1, 2]
        pts = pd.DataFrame({"tid": np.repeat(tids, n),
                            "ts": np.tile(np.arange(n) * 100, len(tids)),
                            "value": np.arange(n * len(tids), dtype=float)})
        path = str(tmp_path / "cas6")
        cassandra_sim.write(pts, path)
        lo, hi = lo * 100, hi * 100
        chunks = list(cassandra_sim._iter_chunks(path, tid, lo, hi))
        assert len(chunks) == n_read
        got = cassandra_sim.pr_query(path, tid, lo, hi)
        sel = pts["ts"].between(lo, hi)
        if tid is not None:
            sel &= pts["tid"] == tid
        assert len(got) == sel.sum()


class TestInfluxSim:
    def test_roundtrip(self, spark, ds, tmp_path):
        path = str(tmp_path / "inf")
        influx_sim.write(ds.points, path)
        assert influx_sim.store_bytes(path) > 0
        df = influx_sim.read_all(spark, path)
        assert df.count() == len(ds.points)

    def test_lossless_values(self, spark, ds, tmp_path):
        path = str(tmp_path / "inf2")
        influx_sim.write(ds.points, path)
        got = (influx_sim.read_all(spark, path).toPandas()
               .sort_values(["tid", "ts"]).reset_index(drop=True))
        want = ds.points.sort_values(["tid", "ts"]).reset_index(drop=True)
        np.testing.assert_array_equal(got["ts"].to_numpy(), want["ts"].to_numpy())
        np.testing.assert_array_equal(got["value"].to_numpy(np.float32),
                                      want["value"].to_numpy(np.float32))

    def test_pr_query(self, ds, tmp_path):
        path = str(tmp_path / "inf3")
        influx_sim.write(ds.points, path)
        tid = int(ds.points["tid"].iloc[0])
        sub = ds.points[ds.points["tid"] == tid]
        lo, hi = int(sub["ts"].quantile(0.4)), int(sub["ts"].quantile(0.6))
        got = influx_sim.pr_query(path, tid, lo, hi)
        want = sub[(sub["ts"] >= lo) & (sub["ts"] <= hi)]
        assert len(got) == len(want)
        np.testing.assert_array_equal(
            np.sort(got["ts"].to_numpy()), np.sort(want["ts"].to_numpy()))

    def test_timestamp_codec_regular_series_tiny(self):
        ts = np.arange(0, 1024 * 100, 100, dtype=np.int64)
        enc = influx_sim._encode_timestamps(ts)
        # Regular SI → delta-of-delta 0 after the first two: ~1 byte each.
        assert len(enc) < 1100
        np.testing.assert_array_equal(
            influx_sim._decode_timestamps(enc, len(ts)), ts)

    def test_zigzag_roundtrip(self):
        for n in (0, 1, -1, 63, -64, 2**40, -2**40):
            assert influx_sim._unzigzag(influx_sim._zigzag(n)) == n


class TestMDBBaseline:
    def test_uses_pmc_mr(self, ds):
        segs = ingest_mdb(ds.points, ds.meta, eps_pct=10.0)
        mids = {s.mid for s in segs}
        assert MID_PMC_MR in mids

    def test_all_groups_singletons(self, ds):
        meta = mdb_meta(ds.meta)
        assert meta["gid"].nunique() == len(meta)

    def test_covers_all_points(self, ds):
        segs = ingest_mdb(ds.points, ds.meta, eps_pct=0.0)
        assert sum(s.size for s in segs) == len(ds.points)

    def test_model_type_lineup(self):
        names = [m.name for m in MDB_MODEL_TYPES]
        assert names == ["PMC-MR", "Swing", "Gorilla"]
