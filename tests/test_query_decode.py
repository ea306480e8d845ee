"""Unit tests for per-Tid model decoding (query/decode.py)."""
import struct

import numpy as np
import pandas as pd
import pytest

from repro.core import gorilla
from repro.core.model_types import (MID_FALLBACK, MID_GORILLA, MID_PMC_MEAN,
                                    MID_PMC_MR, MID_SWING, Columns, by_mid)
from repro.core.segment import gap_mask, gap_rank, series_present
from repro.query.decode import (cut, series_partials, series_values,
                                view_columns)

BIT63 = -(1 << 63)  # bit 63 alone, as Spark's signed long holds it


class TestGapMask:
    @pytest.mark.parametrize("gaps,positions,below", [
        (0, [5], [0]),                    # no gaps: 5 of 5 series stored
        (0b101, [5], [2]),                # bits 0, 2 absent: 3 of 5 stored
        (0, [0, 1, 2, 3], [0, 0, 0, 0]),  # no gaps: bit i is column i
        (0b0101, [1, 3], [1, 2]),         # bit 1 → column 0, bit 3 → 1
        (BIT63 | 0b1, [63, 64], [1, 2]),  # signed mask, last two positions
        (-1, [0, 1, 63, 64], [0, 1, 63, 64]),
        (0b111, [0], [0]),
    ], ids=["present-count-no-gaps", "present-count-with-gaps",
            "column-rank-no-gaps", "column-rank-skips-gap-bits",
            "bit63-signed-positions-63-64", "all-gaps-signed", "position-0"])
    def test_gap_rank(self, gaps, positions, below):
        unsigned = gaps & ((1 << 64) - 1)
        assert below == [sum((unsigned >> i) & 1 for i in range(p))
                         for p in positions]
        words = np.full(len(positions), unsigned, np.uint64)
        for masks in (words, words.view(np.int64)):  # unsigned, Spark's long
            assert gap_rank(masks, positions).tolist() == below

    @pytest.mark.parametrize("gaps", [0, 0b0101, BIT63 | 0b1, -1],
                             ids=["none", "bits-0-2", "bits-0-63", "all"])
    def test_series_present(self, gaps):
        unsigned = gaps & ((1 << 64) - 1)
        got = series_present(np.full(64, gaps, np.int64), np.arange(64))
        assert got.tolist() == [not (unsigned >> b) & 1 for b in range(64)]

    def test_view_columns_series_count_and_column(self):
        rows = [(0, 0, 5), (0b101, 1, 5), (0, 3, 4), (0b0101, 1, 4),
                (0b0101, 3, 4), (BIT63 | 0b1, 63, 64)]
        gaps, bitpos, group_size = map(list, zip(*rows))
        n = len(rows)
        cols = view_columns({
            "mid": [MID_PMC_MEAN] * n, "params": [b""] * n,
            "start_time": [0] * n, "si": [1] * n, "size": [1] * n,
            "gaps": gaps, "bitpos": bitpos, "group_size": group_size,
            "scaling": [1.0] * n})
        assert cols.n_series.tolist() == [5, 3, 4, 2, 2, 62]
        assert cols.col.tolist() == [0, 0, 3, 0, 1, 62]

    def test_gap_mask_sets_the_absent_bits(self):
        assert gap_mask([1, 3], 5) == 0b10101
        assert gap_mask(range(63), 64) == 1 << 63
        assert gap_mask([], 64) == (1 << 64) - 1

    @pytest.mark.parametrize("gaps,pos", [
        (np.array([1.0]), [0]), (np.array([0]), [65]),
        (np.array([0]), [-1])], ids=["float-mask", "position-65", "negative"])
    def test_gap_rank_rejects_bad_input(self, gaps, pos):
        with pytest.raises(ValueError):
            gap_rank(gaps, pos)


class TestSeriesValues:
    def test_pmc_constant(self):
        p = struct.pack("<f", 4.5)
        out = series_values(MID_PMC_MEAN, p, 0, 400, 100, 5, 0, 0, 3)
        np.testing.assert_array_equal(out, np.full(5, 4.5, dtype=np.float32))

    def test_swing_linear(self):
        p = struct.pack("<ff", 0.0, 8.0)
        out = series_values(MID_SWING, p, 0, 800, 100, 9, 0, 0, 1)
        np.testing.assert_allclose(out, np.arange(9, dtype=np.float32),
                                   atol=1e-5)

    def test_swing_single_point(self):
        p = struct.pack("<ff", 3.0, 3.0)
        out = series_values(MID_SWING, p, 0, 0, 100, 1, 0, 0, 1)
        assert out[0] == pytest.approx(3.0)

    def test_gorilla_extracts_right_column(self):
        V = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]],
                     dtype=np.float32)
        params = gorilla.encode(V.ravel())
        col1 = series_values(MID_GORILLA, params, 0, 200, 100, 3, 0, 1, 2)
        np.testing.assert_array_equal(col1, V[:, 1])

    def test_gorilla_with_gap_bit(self):
        """Group of 3 where bit 1 is absent: matrix has 2 columns."""
        V = np.array([[1.0, 5.0], [2.0, 6.0]], dtype=np.float32)
        params = gorilla.encode(V.ravel())
        out = series_values(MID_GORILLA, params, 0, 100, 100, 2,
                            gaps=0b010, bitpos=2, group_size=3)
        np.testing.assert_array_equal(out, V[:, 1])


class TestSeriesPartials:
    def test_pmc_partials_constant_time(self):
        p = struct.pack("<f", 2.0)
        cnt, s, lo, hi = series_partials(MID_PMC_MEAN, p, 0, 900, 100, 10,
                                         0, 0, 1, scaling=3.0)
        assert cnt == 10 and s == pytest.approx(60.0)
        assert lo == hi == pytest.approx(6.0)

    def test_swing_partials_negative_scaling_flips_minmax(self):
        p = struct.pack("<ff", 1.0, 5.0)
        cnt, s, lo, hi = series_partials(MID_SWING, p, 0, 400, 100, 5,
                                         0, 0, 1, scaling=-1.0)
        assert lo == pytest.approx(-5.0) and hi == pytest.approx(-1.0)
        assert s == pytest.approx(-15.0)

    def test_gorilla_partials_match_decode(self):
        vals = np.array([3.0, -1.0, 7.0], dtype=np.float32)
        params = gorilla.encode(vals)
        cnt, s, lo, hi = series_partials(MID_GORILLA, params, 0, 200, 100,
                                         3, 0, 0, 1, scaling=2.0)
        assert cnt == 3
        assert s == pytest.approx(18.0)
        assert lo == pytest.approx(-2.0) and hi == pytest.approx(14.0)


# Partials are float64 sums over at most a few hundred values; the
# closed forms add in another order than the per-point reference, each
# addition rounding by at most 2^-53 of the running sum of magnitudes.
REL_TOL = 1024 * np.finfo(np.float64).eps

JAN_31 = 1_548_892_800_000            # 2019-01-31T00:00Z
HOUR = 3_600_000


def _random_params(mid, rng, size, n_series):
    if mid in (MID_PMC_MEAN, MID_PMC_MR):
        return struct.pack("<f", rng.normal(20, 10))
    if mid == MID_SWING:
        return struct.pack("<ff", *rng.normal(20, 10, 2))
    V = rng.normal(20, 10, (size, n_series)).astype(np.float32)
    if mid == MID_GORILLA:
        return gorilla.encode(V.ravel())
    return V.astype("<f4").tobytes()


def _model_values(mid, cols, i):
    """Per-point float64 model values of column i (the reference)."""
    size, p = int(cols.size[i]), cols.params[i]
    if mid in (MID_PMC_MEAN, MID_PMC_MR):
        return np.full(size, struct.unpack("<f", p)[0])
    if mid == MID_SWING:
        v_s, v_e = struct.unpack("<ff", p)
        return v_s + (v_e - v_s) * np.arange(size) / max(size - 1, 1)
    return by_mid(mid).column(cols, i).astype(np.float64)


def _columns(mid, rng):
    """Random columns of ``mid`` segments, plus the edge cases: single
    points, a segment crossing a month boundary and SIs longer than an
    hour."""
    shapes = [(JAN_31 + int(rng.integers(0, 48)) * 600_000,
               int(rng.choice([60_000, 600_000, 1_200_000, 2 * HOUR])),
               int(rng.integers(1, 60))) for _ in range(40)]
    shapes += [(JAN_31, 60_000, 1), (JAN_31 + 23 * HOUR, 1_200_000, 10),
               (JAN_31 + 5 * HOUR + 1, 2 * HOUR + 7, 12),
               (JAN_31 + 30 * 60_000, 3 * HOUR, 1)]
    rows = []
    for start, si, size in shapes:
        n_series = int(rng.integers(1, 4))
        rows.append((start, si, size, n_series,
                     int(rng.integers(0, n_series)),
                     _random_params(mid, rng, size, n_series),
                     float(rng.choice([1.0, 2.5, -0.75]))))
    start, si, size, n_series, col, params, scaling = zip(*rows)
    return Columns(np.full(len(rows), mid), np.array(params, dtype=object),
                   np.array(start), np.array(si), np.array(size),
                   np.array(n_series), np.array(col), np.array(scaling))


def _reference(mid, cols, interval):
    """(row, bucket start) → (count, sum, min, max), point by point."""
    frames = []
    for i in range(len(cols.size)):
        ts = cols.start[i] + cols.si[i] * np.arange(cols.size[i])
        if interval == "month":
            bucket = (pd.to_datetime(ts, unit="ms").to_period("M")
                      .start_time.asi8 // 1_000_000)
        else:
            width = {"hour": HOUR, "day": 24 * HOUR}[interval]
            bucket = ts // width * width
        frames.append(pd.DataFrame({
            "row": i, "bucket": bucket,
            "v": _model_values(mid, cols, i) * cols.scaling[i]}))
    pts = pd.concat(frames)
    pts["abs"] = pts["v"].abs()
    return pts.groupby(["row", "bucket"]).agg(
        count=("v", "size"), sum=("v", "sum"), min=("v", "min"),
        max=("v", "max"), abs=("abs", "sum"))


class TestPartials:
    @pytest.mark.parametrize("mid", [MID_PMC_MEAN, MID_PMC_MR, MID_SWING,
                                     MID_GORILLA, MID_FALLBACK])
    @pytest.mark.parametrize("interval", ["hour", "day", "month"])
    def test_partials_match_per_point_reference(self, mid, interval):
        cols = _columns(mid, np.random.default_rng(mid))
        row, first, count, bucket = cut(cols, interval)
        total, lo, hi = by_mid(mid).partials(cols, row, first, count)
        want = _reference(mid, cols, interval)
        assert list(zip(row, bucket)) == list(want.index)
        np.testing.assert_array_equal(count, want["count"])
        np.testing.assert_array_less(np.abs(total - want["sum"]),
                                     REL_TOL * want["abs"] + 1e-300)
        for got, ref in ((lo, want["min"]), (hi, want["max"])):
            np.testing.assert_array_less(np.abs(got - ref),
                                         REL_TOL * np.abs(ref) + 1e-300)

    def test_si_longer_than_interval_drops_empty_intervals(self):
        cols = _columns(MID_PMC_MEAN, np.random.default_rng(0))
        i = len(cols.size) - 1              # 3-hour SI, one point
        row, first, count, _ = cut(cols, "hour")
        assert (row == i).sum() == 1
        i = len(cols.size) - 2              # 12 points, 2-hour SI
        assert (row == i).sum() == 12 and (count[row == i] == 1).all()
