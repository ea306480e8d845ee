"""Non-Spark tests: segment file format, store layout, footer pruning."""
import json
import os
import struct
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.segment import HEADER_BYTES, Segment
from repro.experiments import (actual_avg_error_pct, reconstruct_points,
                               segments_bytes)
from repro.core.ingest import ingest_local, pivot_group
from repro.core.model_types import MID_PMC_MEAN
from repro.datasets import ep_like
from repro.dims.grouping import singleton_groups
from repro.storage import segment_store
from repro.storage.schema import (FILE_SCHEMA, SEGMENT_SCHEMA,
                                  from_file_bytes, segment_columns,
                                  to_file_bytes)


def seg(gid=1, start=0, si=100, size=5, mid=MID_PMC_MEAN, gaps=0,
        params=None):
    params = params if params is not None else struct.pack("<f", 1.5)
    return Segment(gid, start, start + (size - 1) * si, si, size, mid,
                   gaps, params)


def meta_of(segs) -> pd.DataFrame:
    """Time Series table of one series per Gid of ``segs`` (Gid 1 if none)."""
    gids = sorted({s.gid for s in segs}) or [1]
    return pd.DataFrame({"tid": gids, "gid": gids, "bitpos": 0,
                         "scaling": 1.0, "si": 100})


class TestSegmentBinary:
    """Packing segments into ``.mdb`` files with ``write_store`` and
    unpacking them with ``read_file`` and ``read_segments``."""

    @staticmethod
    def roundtrip(segs, tmp_path):
        path = str(tmp_path / "store")
        segment_store.write_store(segs, meta_of(segs), path, n_workers=2)
        return list(segment_store.read_segments(path))

    @staticmethod
    def rewrite_file(tmp_path, edit):
        """A one-file store of two segments whose inflated bytes are
        ``edit``ed, then compressed again into a valid zlib stream."""
        segs = [seg(gid=1), seg(gid=2)]
        path = str(tmp_path / "store")
        segment_store.write_store(segs, meta_of(segs), path, n_workers=1)
        (fname,) = segment_store.list_files(path)
        with open(fname, "rb") as f:
            data = zlib.decompress(f.read())
        with open(fname, "wb") as f:
            f.write(zlib.compress(edit(bytearray(data))))
        return path

    def test_pack_unpack_roundtrip(self, tmp_path):
        segs = [seg(gid=g, start=g * 1000) for g in range(1, 6)]
        assert sorted(self.roundtrip(segs, tmp_path),
                      key=lambda s: s.gid) == segs

    def test_start_time_derived_from_end(self, tmp_path):
        s = seg(start=500, si=100, size=4)
        (out,) = self.roundtrip([s], tmp_path)
        assert out.start_time == 500 and out.end_time == 800

    def test_header_overhead_constant(self):
        s = seg()
        assert s.byte_size == HEADER_BYTES + 4
        # The fixed-width columns, and the params column's 4-byte offset.
        assert HEADER_BYTES == 4 + sum(
            f.type.bit_width // 8 for f in FILE_SCHEMA
            if not pa.types.is_binary(f.type))
        # A file adds its row count and its first params offset.
        assert len(to_file_bytes(segment_columns([s, s]))) == (
            8 + 2 * s.byte_size)

    def test_large_gaps_bitmask(self, tmp_path):
        s = seg(gaps=(1 << 63) | 0b101)
        (out,) = self.roundtrip([s], tmp_path)
        assert out.gaps == (1 << 63) | 0b101

    def test_timestamps_regular(self):
        s = seg(start=1000, si=250, size=4)
        np.testing.assert_array_equal(s.timestamps(),
                                      [1000, 1250, 1500, 1750])

    def test_empty_pack(self, tmp_path):
        """An empty file is its row count 0 and its first params offset
        0, and reads as no rows."""
        assert self.roundtrip([], tmp_path) == []
        fname = tmp_path / "store" / "segments" / "part-00000.mdb"
        assert zlib.decompress(fname.read_bytes()) == bytes(8)
        table = segment_store.read_file(str(fname))
        assert table.num_rows == 0
        assert table.schema.names == [
            "gid", "start_time", "end_time", "si", "size", "mid", "gaps",
            "params"]

    @pytest.mark.parametrize("cut", [1, 4, HEADER_BYTES + 3])
    def test_unpack_rejects_truncated_record(self, tmp_path, cut):
        """A valid zlib stream over a file that ends early: in the last
        segment's parameters, or in the fixed-width columns."""
        path = self.rewrite_file(tmp_path, lambda data: data[:-cut])
        left = 8 + 2 * (HEADER_BYTES + 4) - cut
        with pytest.raises(ValueError, match=f"^{left} bytes are not a "
                           "whole segment file of 2 rows$"):
            list(segment_store.read_segments(path))

    def test_unpack_rejects_every_cut_of_the_file(self):
        data = to_file_bytes(segment_columns([seg(gid=1), seg(gid=2)]))
        for bad in (*(data[:cut] for cut in range(len(data))),
                    data + b"\0"):
            with pytest.raises(ValueError, match="^{} bytes are not a "
                               "whole segment file ".format(len(bad))):
                from_file_bytes(bad)
        assert from_file_bytes(data).num_rows == 2

    def test_unpack_rejects_params_offsets_out_of_order(self, tmp_path):
        """Offsets 0, 9, 8 have the right length, but the first segment's
        parameters would end after the second's."""
        def edit(data):
            at = 8 + 2 * (HEADER_BYTES - 4)  # the middle of 3 offsets
            data[at:at + 4] = (9).to_bytes(4, "little")
            return bytes(data)

        path = self.rewrite_file(tmp_path, edit)
        with pytest.raises(ValueError, match="[Oo]ffset"):
            list(segment_store.read_segments(path))

    def test_pack_rejects_inconsistent_start_time(self, tmp_path):
        # start_time is derived from end_time on read, so it must agree;
        # an assert would vanish under python -O.
        bad = Segment(1, 1, 1000, 100, 5, MID_PMC_MEAN, 0, b"\0\0\0\0")
        with pytest.raises(ValueError, match="inconsistent"):
            self.roundtrip([seg(), bad], tmp_path)

    def test_pack_rejects_gid_not_in_meta(self, tmp_path):
        """File 0 stored it, and every view dropped it: the views join
        the Time Series table."""
        path = str(tmp_path / "store")
        with pytest.raises(ValueError,
                           match=r"Gid not in meta: Segment\(gid=7,"):
            segment_store.write_store([seg(gid=1), seg(gid=7)],
                                      meta_of([seg(gid=1)]), path)


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

    def test_files_are_zlib_packed_segments(self, store):
        # Each file inflates to exactly to_file_bytes() of its segments
        # in key order, 8 bytes more than their logical bytes, and reads
        # back as their stored columns; store_bytes counts the
        # compressed files.
        path, segs, _ = store
        seg_dir = os.path.join(path, "segments")
        total, n_stored = 0, 0
        for name in sorted(os.listdir(seg_dir)):
            if not name.endswith(".mdb"):
                continue
            with open(os.path.join(seg_dir, name[:-4] + ".json")) as f:
                gids = json.load(f)["gids"]
            mine = sorted((s for s in segs if s.gid in gids),
                          key=lambda s: (s.gid, s.end_time, s.gaps))
            with open(os.path.join(seg_dir, name), "rb") as f:
                raw = f.read()
            want = segment_columns(mine)
            data = zlib.decompress(raw)
            assert data == to_file_bytes(want)
            assert len(data) == 8 + segments_bytes(mine)
            stored = from_file_bytes(data)
            assert stored.to_pydict() == {n: want[n].tolist()
                                          for n in SEGMENT_SCHEMA.names}
            total += len(raw)
            n_stored += len(mine)
        assert n_stored == len(segs)
        assert segment_store.store_bytes(path) == total
        assert total < segments_bytes(segs)

    def test_corrupted_file_raises(self, store):
        # A cut, an appended byte, and each one-byte flip of a whole file.
        path, _, _ = store
        fname = segment_store.list_files(path)[0]
        with open(fname, "rb") as f:
            good = f.read()
        for bad in (good[:-1], good + b"\0",
                    *(good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1:]
                      for i in range(len(good)))):
            with open(fname, "wb") as f:
                f.write(bad)
            with pytest.raises((ValueError, zlib.error)):
                list(segment_store.read_segments(path))

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


def bad_meta(meta: pd.DataFrame, kind: str):
    """Singleton ``meta`` made bad, and the error it must raise: tid 2
    joins group 1 at bitpos 5, or tid 2 is also listed in a new group."""
    meta = meta.copy()
    if kind == "bitpos":
        meta.loc[meta["tid"] == 2, ["gid", "bitpos"]] = [1, 5]
        return meta, "group 1: bitpos"
    extra = meta[meta["tid"] == 2].assign(gid=meta["gid"].max() + 1)
    return pd.concat([meta, extra]), "tid 2 is listed more than once"


class TestPivot:
    def test_pivot_reintroduces_gaps_as_nan(self):
        ts, V = pivot_group(np.array([0, 0, 1]), np.array([0, 200, 0]),
                            np.array([1.0, 2.0, 3.0]), 2, si=100, gid=1)
        assert list(ts) == [0, 100, 200]
        assert np.isnan(V[1, 0]) and np.isnan(V[1:, 1]).all()
        assert V[0, 1] == 3.0

    def test_pivot_column_is_the_gap_mask_bit(self):
        _, V = pivot_group(np.array([1, 0]), np.array([0, 0]),
                           np.array([9.0, 3.0]), 2, si=100, gid=1)
        assert V[0, 0] == 3.0 and V[0, 1] == 9.0

    def test_pivot_rejects_timestamp_off_the_grid(self):
        """ts 250 with SI 100 would land in the slot of 200."""
        with pytest.raises(ValueError, match="group 7.*SI 100"):
            pivot_group(np.array([0, 0, 0]), np.array([0, 100, 250]),
                        np.array([1.0, 2.0, 3.0]), 1, si=100, gid=7)

    def test_pivot_rejects_repeated_point(self):
        """Only the last of two (tid, ts) points would be kept."""
        with pytest.raises(ValueError, match="group 7.*repeated"):
            pivot_group(np.array([0, 1, 0]), np.array([0, 0, 0]),
                        np.array([1.0, 2.0, 3.0]), 2, si=100, gid=7)

    def test_ingest_names_the_group_with_wrong_input(self):
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        pts = pd.concat([ds.points, ds.points.iloc[[5]]])
        meta = singleton_groups(ds.meta)
        gid = int(meta.loc[meta["tid"] == pts["tid"].iloc[-1], "gid"].iloc[0])
        with pytest.raises(ValueError, match=f"group {gid}: .*repeated"):
            ingest_local(pts, meta, 0.0)

    def test_ingest_rejects_points_of_a_tid_not_in_meta(self):
        """Grouping by a NaN gid would drop that tid's points unseen."""
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        meta = singleton_groups(ds.meta)
        unknown = int(meta["tid"].max())
        with pytest.raises(ValueError,
                           match=rf"tids \[{unknown}\] have no gid"):
            ingest_local(ds.points, meta[meta["tid"] != unknown], 0.0)
        with pytest.raises(ValueError, match=r"tids \[1, 2, 3, 4, 5\]"):
            ingest_local(ds.points, meta.iloc[:0], 0.0)
        assert ingest_local(ds.points.iloc[:0], meta.iloc[:0], 0.0) == []

    @pytest.mark.parametrize("eps", [0.0, 10.0])
    def test_ingest_rejects_a_nan_value(self, eps):
        """It was stored as a gap: 19 of the 20 points, without an error."""
        pts = pd.DataFrame({"tid": np.repeat([1, 2], 10),
                            "ts": np.tile(np.arange(10) * 100, 2),
                            "value": np.arange(20.0)})
        pts.loc[13, "value"] = np.nan
        meta = pd.DataFrame({"tid": [1, 2], "gid": 1, "bitpos": [0, 1],
                             "scaling": 1.0, "si": 100})
        with pytest.raises(ValueError, match="tid 2 at ts 300 has a NaN"):
            ingest_local(pts, meta, eps)

    @pytest.mark.parametrize("kind", ["bitpos", "tid"])
    def test_ingest_rejects_bad_meta(self, kind):
        """bitpos [0, 5] stored without error, and every query of its
        group then failed; a tid listed twice raised pandas'
        ``InvalidIndexError``."""
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        meta, error = bad_meta(singleton_groups(ds.meta), kind)
        with pytest.raises(ValueError, match=error):
            ingest_local(ds.points, meta, 0.0)

    @pytest.mark.parametrize("dtype", ["Int64", "float64"])
    def test_ingest_rejects_points_of_a_null_tid(self, dtype):
        ds = ep_like(n_entities=1, n_points=50, seed=3)
        pts = ds.points.astype({"tid": dtype})
        pts.loc[pts.index[:3], "tid"] = None
        with pytest.raises(ValueError, match=r"tids \[null\] have no gid"):
            ingest_local(pts, singleton_groups(ds.meta), 0.0)


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
