"""Unit tests for the GOLEMM compressor (core/golemm.py)."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.baselines.mdb import ingest_mdb
from repro.core import gorilla, split_merge
from repro.core.golemm import (DEFAULT_MODEL_TYPES, CompressStats,
                               compress_chunk, compress_group,
                               reconstruct_segment)
from repro.core.ingest import ingest_local
from repro.core.model_types import (MID_GORILLA, MID_PMC_MEAN, MID_SWING,
                                    ModelType)


def reconstruct_all(segments, n_series, n_t, ts0=0, si=100):
    """Rebuild the full (n_t, n_series) matrix from emitted segments."""
    out = np.full((n_t, n_series), np.nan, dtype=np.float32)
    for seg in segments:
        t, cols, V = reconstruct_segment(seg, n_series)
        idx = ((t - ts0) // si).astype(np.int64)
        for j, c in enumerate(cols):
            out[idx, c] = V[:, j]
    return out


class TestCompressChunk:
    def test_constant_single_pmc_segment(self):
        ts = np.arange(100, dtype=np.int64) * 100
        V = np.full((100, 2), 3.0, dtype=np.float32)
        segs = compress_chunk(ts, V, np.zeros_like(V))
        assert len(segs) == 1
        assert segs[0].mid == MID_PMC_MEAN
        assert segs[0].length == 100

    def test_linear_single_swing_segment(self):
        ts = np.arange(100, dtype=np.int64) * 100
        V = (0.5 * np.arange(100, dtype=np.float64))[:, None].astype(np.float32)
        segs = compress_chunk(ts, V, np.abs(V) * 0.01)
        assert len(segs) == 1
        assert segs[0].mid == MID_SWING

    def test_random_data_uses_gorilla(self):
        g = np.random.default_rng(0)
        ts = np.arange(120, dtype=np.int64) * 100
        V = g.normal(0, 100, (120, 1)).astype(np.float32)
        segs = compress_chunk(ts, V, np.zeros_like(V))
        assert all(s.mid == MID_GORILLA for s in segs)
        # Length bound 50 caps lossless segments.
        assert max(s.length for s in segs) <= 50

    def test_mixed_regimes_use_multiple_types(self):
        g = np.random.default_rng(1)
        const = np.full(60, 10.0)
        lin = 10.0 + 0.5 * np.arange(60)
        noise = g.normal(0, 50, 60)
        V = np.concatenate([const, lin, noise])[:, None].astype(np.float32)
        ts = np.arange(len(V), dtype=np.int64) * 100
        segs = compress_chunk(ts, V, np.abs(V) * 0.01)
        mids = {s.mid for s in segs}
        assert MID_PMC_MEAN in mids and MID_GORILLA in mids

    def test_disconnected_segments_cover_chunk_exactly(self):
        g = np.random.default_rng(2)
        ts = np.arange(200, dtype=np.int64) * 100
        V = np.cumsum(g.normal(0, 1, (200, 3)), axis=0).astype(np.float32)
        segs = compress_chunk(ts, V, np.abs(V) * 0.05)
        covered = sorted((s.offset, s.offset + s.length) for s in segs
                         if len(s.series) == 3)
        # With no split, segments tile [0, 200) without overlap.
        pos = 0
        for a, b in covered:
            assert a == pos
            pos = b
        assert pos == 200

    def test_stats_recorded(self):
        st = CompressStats()
        ts = np.arange(50, dtype=np.int64) * 100
        V = np.full((50, 1), 1.0, dtype=np.float32)
        compress_chunk(ts, V, np.zeros_like(V), stats=st)
        assert st.segments == 1
        assert st.model_counts == {MID_PMC_MEAN: 1}
        assert st.total_seconds > 0


class _Counting(ModelType):
    """Delegating model type that counts ``fit`` calls and the values
    passed to them."""

    def __init__(self, inner):
        self.inner = inner
        self.mid, self.lossless = inner.mid, inner.lossless
        self.calls = self.points = 0

    def fit(self, ts, V, delta, length_bound):
        self.calls += 1
        self.points += V.size
        return self.inner.fit(ts, V, delta, length_bound)


def _walk(n_t, n_series, seed):
    rng = np.random.default_rng(seed)
    walk = 100 + np.cumsum(rng.normal(0, 0.3, n_t))
    return (walk[:, None] + rng.normal(0, 0.05, (n_t, n_series))
            ).astype(np.float32)


class TestLinearWork:
    def test_fitted_points_linear_in_chunk_length(self):
        """Refitting the rest of a 65 536-timestamp chunk at every
        emission passed ~900× its points to ``fit``; windowed fits pass
        a small multiple."""
        V = _walk(65_536, 2, seed=7)
        ts = np.arange(len(V), dtype=np.int64) * 100
        counted = [_Counting(mt) for mt in DEFAULT_MODEL_TYPES]
        segs = compress_chunk(ts, V, np.abs(V) * 0.05, model_types=counted)
        assert sum(s.length * len(s.series) for s in segs) == V.size
        assert sum(c.points for c in counted) <= 10 * V.size

    def test_gorilla_runs_one_field_pass_per_candidate(self, monkeypatch):
        """A Gorilla fit is encoded at most once, also when it loses: its
        size is its blob's length, and a winner keeps the blob it was
        sized by."""
        calls = {"encode": [], "fields": 0}

        def encode(values):
            calls["encode"].append(len(values))
            return real_encode(values)

        def fields(values):
            calls["fields"] += 1
            return real_fields(values)

        real_encode, real_fields = gorilla.encode, gorilla._fields
        monkeypatch.setattr(gorilla, "encode", encode)
        monkeypatch.setattr(gorilla, "_fields", fields)
        V = _walk(4096, 3, seed=8)
        counted = [_Counting(mt) for mt in DEFAULT_MODEL_TYPES]
        segs = compress_group(np.arange(len(V), dtype=np.int64) * 100, V,
                              0.3, gid=1, si=100, model_types=counted)
        won = [s for s in segs if s.mid == MID_GORILLA]
        encoded = calls["encode"]
        assert 0 < len(won) < len(encoded) <= counted[2].calls
        assert calls["fields"] == len(encoded)
        assert not Counter(s.size * 3 for s in won) - Counter(encoded)


class TestErrorBound:
    @pytest.mark.parametrize("eps", [0.0, 1.0, 5.0, 10.0])
    def test_reconstruction_within_relative_bound(self, eps):
        g = np.random.default_rng(3)
        n = 400
        base = 50 + np.cumsum(g.normal(0, 0.2, n))
        V = np.stack([base, base * 1.001, base * 0.999], axis=1).astype(np.float32)
        ts = np.arange(n, dtype=np.int64) * 1000
        segs = compress_group(ts, V, eps, gid=1, si=1000)
        rec = reconstruct_all(segs, 3, n, si=1000)
        assert not np.isnan(rec).any()
        tol = np.abs(V) * (eps / 100.0) + np.abs(V) * 1e-5 + 1e-3
        assert np.all(np.abs(rec - V) <= tol)

    def test_zero_bound_is_lossless(self):
        g = np.random.default_rng(4)
        n = 150
        V = g.normal(0, 10, (n, 2)).astype(np.float32)
        ts = np.arange(n, dtype=np.int64) * 100
        segs = compress_group(ts, V, 0.0, gid=1, si=100)
        rec = reconstruct_all(segs, 2, n)
        np.testing.assert_array_equal(rec, V)

    def test_larger_bound_fewer_bytes(self):
        g = np.random.default_rng(5)
        n = 1000
        base = 100 + np.cumsum(g.normal(0, 0.05, n))
        V = base[:, None].astype(np.float32)
        ts = np.arange(n, dtype=np.int64) * 100
        sizes = {}
        for eps in (0.0, 1.0, 10.0):
            segs = compress_group(ts, V, eps, gid=1, si=100)
            sizes[eps] = sum(s.byte_size for s in segs)
        assert sizes[10.0] <= sizes[1.0] <= sizes[0.0]


class TestGaps:
    def test_gap_forces_segment_boundary(self):
        n = 60
        V = np.full((n, 2), 5.0, dtype=np.float32)
        V[20:30, 1] = np.nan  # series 1 has a gap
        ts = np.arange(n, dtype=np.int64) * 100
        segs = compress_group(ts, V, 0.0, gid=7, si=100)
        # Three chunks: both present / only series 0 / both present.
        masks = sorted({s.gaps for s in segs})
        assert masks == [0, 0b10]
        gap_segs = [s for s in segs if s.gaps == 0b10]
        assert all(s.start_time >= 2000 and s.end_time <= 2900 for s in gap_segs)

    def test_all_series_gap_stores_nothing(self):
        n = 30
        V = np.full((n, 2), 1.0, dtype=np.float32)
        V[10:20, :] = np.nan
        ts = np.arange(n, dtype=np.int64) * 100
        segs = compress_group(ts, V, 0.0, gid=1, si=100)
        for s in segs:
            # No segment may overlap the all-series gap at [1000, 1900].
            assert s.end_time < 1000 or s.start_time > 1900

    def test_reconstruction_skips_gaps(self):
        n = 50
        g = np.random.default_rng(6)
        V = g.normal(0, 1, (n, 3)).astype(np.float32)
        V[5:15, 0] = np.nan
        V[30:40, 2] = np.nan
        ts = np.arange(n, dtype=np.int64) * 100
        segs = compress_group(ts, V, 0.0, gid=1, si=100)
        rec = reconstruct_all(segs, 3, n)
        present = ~np.isnan(V)
        np.testing.assert_array_equal(rec[present], V[present])
        assert np.isnan(rec[~present]).all()

    def test_group_size_limit(self):
        V = np.zeros((10, 65), dtype=np.float32)
        ts = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError):
            compress_group(ts, V, 0.0, gid=1, si=1)


class TestSplitMerge:
    def _decorrelating_group(self, n=600):
        """Two series equal, then one diverges wildly, then equal again."""
        g = np.random.default_rng(7)
        base = 100 + np.cumsum(g.normal(0, 0.01, n))
        a = base.copy()
        b = base.copy()
        b[200:400] = g.normal(0, 500, 200)  # uncorrelated burst
        return np.stack([a, b], axis=1).astype(np.float32)

    def test_split_occurs_and_improves_compression(self, monkeypatch):
        V = self._decorrelating_group()
        ts = np.arange(len(V), dtype=np.int64) * 100
        st_split = CompressStats()
        segs_split = compress_group(ts, V, 10.0, gid=1, si=100,
                                    stats=st_split)
        # No-split reference: every split attempt finds one cluster.
        monkeypatch.setattr(split_merge, "cluster_within_double_bound",
                            lambda V, delta, series: [series])
        st_no = CompressStats()
        segs_no = compress_group(ts, V, 10.0, gid=1, si=100, stats=st_no)
        assert st_split.splits >= 1 and st_no.splits == 0
        assert (sum(s.byte_size for s in segs_split)
                <= sum(s.byte_size for s in segs_no))

    def test_split_segments_reconstruct_correctly(self):
        V = self._decorrelating_group()
        ts = np.arange(len(V), dtype=np.int64) * 100
        segs = compress_group(ts, V, 10.0, gid=1, si=100)
        rec = reconstruct_all(segs, 2, len(V))
        assert not np.isnan(rec).any()
        tol = np.abs(V) * 0.10 + 1e-2
        assert np.all(np.abs(rec - V) <= tol)

    def test_merge_attempted_after_split(self):
        V = self._decorrelating_group()
        ts = np.arange(len(V), dtype=np.int64) * 100
        st = CompressStats()
        compress_group(ts, V, 10.0, gid=1, si=100, stats=st)
        assert st.merge_attempts >= 1

    def test_nested_split_of_non_first_subgroup(self):
        """Regression: a split of a sub-group that is not at the head of
        the sub-group list must not compare ndarray fields (the old
        dataclass __eq__ made list.remove raise)."""
        g = np.random.default_rng(11)
        n = 1200
        base = 100 + np.cumsum(g.normal(0, 0.01, n))
        a = base.copy()
        b = base.copy()
        c = base.copy()
        c[100:1100] = g.normal(0, 500, 1000)   # C splits off early
        b[400:900] = g.normal(5000, 300, 500)  # then B splits from A
        V = np.stack([a, b, c], axis=1).astype(np.float32)
        ts = np.arange(n, dtype=np.int64) * 100
        st = CompressStats()
        segs = compress_group(ts, V, 10.0, gid=1, si=100, stats=st)
        assert st.splits >= 1
        rec = reconstruct_all(segs, 3, n)
        assert not np.isnan(rec).any()

    def test_mdb_never_splits_or_merges(self):
        """MDB's singleton groups leave split/merge nothing to do, while
        the same two series as one group do split."""
        V = self._decorrelating_group()
        n = len(V)
        points = pd.DataFrame({"tid": np.repeat([1, 2], n),
                               "ts": np.tile(np.arange(n) * 100, 2),
                               "value": V.T.ravel()})
        meta = pd.DataFrame({"tid": [1, 2], "gid": 1, "bitpos": [0, 1],
                             "scaling": 1.0, "si": 100})
        grouped = CompressStats()
        ingest_local(points, meta, 10.0, stats=grouped)
        assert grouped.splits >= 1
        st = CompressStats()
        segs = ingest_mdb(points, meta, 10.0, stats=st)
        assert st.splits == st.merge_attempts == 0
        assert sum(s.size for s in segs) == 2 * n

    def test_subgroup_removal_uses_identity(self):
        """list.remove on a non-head sub-group must not invoke ndarray
        equality (the exact failure mode of the old dataclass __eq__)."""
        from repro.core.golemm import _SubGroup
        a = _SubGroup(np.array([0, 1]), 0)
        b = _SubGroup(np.array([0, 1]), 0)
        lst = [a, b]
        lst.remove(b)  # raised ValueError before the eq=False fix
        assert lst == [a]

    def test_overhead_instrumented(self):
        V = self._decorrelating_group()
        ts = np.arange(len(V), dtype=np.int64) * 100
        st = CompressStats()
        compress_group(ts, V, 10.0, gid=1, si=100, stats=st)
        assert 0 <= st.split_merge_seconds < st.total_seconds


class TestGroupingBenefit:
    def test_grouped_smaller_than_separate(self):
        """§V glimpse: correlated series compress better together."""
        g = np.random.default_rng(8)
        n = 2000
        base = 50 + np.cumsum(g.normal(0, 0.02, n))
        series = [base + g.normal(0, 0.01, n) for _ in range(7)]
        V = np.stack(series, axis=1).astype(np.float32)
        ts = np.arange(n, dtype=np.int64) * 100
        grouped = sum(s.byte_size
                      for s in compress_group(ts, V, 1.0, gid=1, si=100))
        separate = sum(
            s.byte_size
            for j in range(7)
            for s in compress_group(ts, V[:, [j]], 1.0, gid=j, si=100))
        assert grouped < separate
