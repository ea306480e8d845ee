"""Non-Spark tests: segment binary format, store layout, footer pruning."""
import os
import struct

import numpy as np
import pandas as pd
import pytest

from repro.core.segment import HEADER_BYTES, Segment, pack, unpack
from repro.experiments import (actual_avg_error_pct, reconstruct_points,
                               segments_bytes)
from repro.core.ingest import ingest_local, pivot_group
from repro.core.model_types import MID_PMC_MEAN
from repro.datasets import ep_like
from repro.dims.grouping import singleton_groups
from repro.storage import segment_store


def seg(gid=1, start=0, si=100, size=5, mid=MID_PMC_MEAN, gaps=0,
        params=None):
    params = params if params is not None else struct.pack("<f", 1.5)
    return Segment(gid, start, start + (size - 1) * si, si, size, mid,
                   gaps, params)


class TestSegmentBinary:
    def test_pack_unpack_roundtrip(self):
        segs = [seg(gid=g, start=g * 1000) for g in range(1, 6)]
        out = list(unpack(pack(segs)))
        assert out == segs

    def test_start_time_derived_from_end(self):
        s = seg(start=500, si=100, size=4)
        (out,) = unpack(pack([s]))
        assert out.start_time == 500 and out.end_time == 800

    def test_header_overhead_constant(self):
        s = seg()
        assert s.byte_size == HEADER_BYTES + 4

    def test_large_gaps_bitmask(self):
        s = seg(gaps=(1 << 63) | 0b101)
        (out,) = unpack(pack([s]))
        assert out.gaps == (1 << 63) | 0b101

    def test_timestamps_regular(self):
        s = seg(start=1000, si=250, size=4)
        np.testing.assert_array_equal(s.timestamps(),
                                      [1000, 1250, 1500, 1750])

    def test_empty_pack(self):
        assert list(unpack(pack([]))) == []

    def test_pack_rejects_inconsistent_start_time(self):
        # start_time is derived from end_time on read, so it must agree;
        # an assert would vanish under python -O.
        bad = Segment(1, 1, 1000, 100, 5, MID_PMC_MEAN, 0, b"\0\0\0\0")
        with pytest.raises(ValueError, match="inconsistent"):
            pack([seg(), bad])


class TestStoreLayout:
    @pytest.fixture
    def store(self, tmp_path):
        ds = ep_like(n_entities=2, n_points=128, seed=40, gap_prob=0.0)
        meta = singleton_groups(ds.meta)
        segs = ingest_local(ds.points, meta, 10.0)
        path = str(tmp_path / "store")
        segment_store.write_store(segs, meta, path, n_workers=3)
        return path, segs, meta

    def test_file_per_worker(self, store):
        path, _, _ = store
        files = [f for f in os.listdir(os.path.join(path, "segments"))
                 if f.endswith(".mdb")]
        assert len(files) == 3

    def test_bytes_match_sum(self, store):
        path, segs, _ = store
        assert segment_store.store_bytes(path) == segments_bytes(segs)

    def test_read_all_segments(self, store):
        path, segs, _ = store
        got = sorted(segment_store.read_segments(path),
                     key=lambda s: (s.gid, s.end_time))
        want = sorted(segs, key=lambda s: (s.gid, s.end_time))
        assert got == want

    def test_gid_filter_exact(self, store):
        path, segs, _ = store
        gid = segs[0].gid
        got = list(segment_store.read_segments(path, gids=[gid]))
        assert all(s.gid == gid for s in got)
        assert len(got) == sum(1 for s in segs if s.gid == gid)

    def test_time_filter(self, store):
        path, segs, _ = store
        cut = int(np.median([s.end_time for s in segs]))
        got = list(segment_store.read_segments(path, min_end_time=cut))
        assert all(s.end_time >= cut for s in got)

    def test_tsmeta_roundtrip(self, store):
        path, _, meta = store
        got = segment_store.read_tsmeta(path)
        assert set(got["tid"]) == set(meta["tid"])
        assert "gid" in got.columns


class TestPivot:
    def test_pivot_reintroduces_gaps_as_nan(self):
        pdf = pd.DataFrame({"tid": [1, 1, 2], "ts": [0, 200, 0],
                            "value": [1.0, 2.0, 3.0]})
        ts, V = pivot_group(pdf, [1, 2], si=100)
        assert list(ts) == [0, 100, 200]
        assert np.isnan(V[1, 0]) and np.isnan(V[1:, 1]).all()
        assert V[0, 1] == 3.0

    def test_pivot_column_order_is_tid_order(self):
        pdf = pd.DataFrame({"tid": [9, 3], "ts": [0, 0],
                            "value": [9.0, 3.0]})
        _, V = pivot_group(pdf, [3, 9], si=100)
        assert V[0, 0] == 3.0 and V[0, 1] == 9.0


class TestErrorMetric:
    def test_zero_error_when_identical(self):
        pts = pd.DataFrame({"tid": [1, 1], "ts": [0, 100],
                            "value": [1.0, 2.0]})
        assert actual_avg_error_pct(pts, pts.copy()) == 0.0

    def test_formula(self):
        pts = pd.DataFrame({"tid": [1, 1], "ts": [0, 100],
                            "value": [10.0, 10.0]})
        rec = pd.DataFrame({"tid": [1, 1], "ts": [0, 100],
                            "value": [11.0, 9.0]})
        # (1 + 1) / (10 + 10) × 100 = 10 %.
        assert actual_avg_error_pct(pts, rec) == pytest.approx(10.0)

    def test_reconstruct_points_matches_ingest(self):
        ds = ep_like(n_entities=2, n_points=96, seed=41, gap_prob=0.2)
        meta = singleton_groups(ds.meta)
        segs = ingest_local(ds.points, meta, 0.0)
        rec = reconstruct_points(segs, meta)
        assert len(rec) == len(ds.points)
        assert actual_avg_error_pct(ds.points, rec) < 1e-4
