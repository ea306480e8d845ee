"""Unit tests for PMC-Mean / PMC-MR / Swing / fallback model types."""
import struct

import numpy as np
import pytest

from repro.core.fallback import GorillaModel, RawFallback
from repro.core.model_types import (Columns, FitResult, by_mid, first_false,
                                    registry)
from repro.core.pmc_mean import PMCMean, PMCMidrange
from repro.core.swing import Swing


def mk(ts_n=10, series=1, si=100):
    return np.arange(ts_n, dtype=np.int64) * si


def delta_for(V, eps_pct):
    return np.abs(V) * (eps_pct / 100.0)


def whole_columns(mt, params, ts, n_series, scaling=1.0):
    """Partials of every column of one segment of ``mk`` timestamps."""
    n = n_series
    cols = Columns(np.full(n, mt.mid), np.array([params] * n, dtype=object),
                   np.zeros(n, np.int64), np.full(n, 100),
                   np.full(n, len(ts)), np.full(n, n), np.arange(n),
                   np.full(n, scaling))
    return mt.partials(cols, np.arange(n), np.zeros(n, np.int64), cols.size)


class TestFirstFalse:
    def test_all_true(self):
        assert first_false(np.array([True, True])) == 2

    def test_first_false(self):
        assert first_false(np.array([False, True])) == 0

    def test_middle(self):
        assert first_false(np.array([True, True, False, True])) == 2


class TestPMCMean:
    def test_constant_series_fits_fully(self):
        ts = mk(50)
        V = np.full((50, 1), 5.0, dtype=np.float32)
        res = PMCMean().fit(ts, V, delta_for(V, 0.0), 50)
        assert res.length == 50
        assert struct.unpack("<f", res.params)[0] == pytest.approx(5.0)

    def test_zero_error_bound_breaks_on_change(self):
        ts = mk(5)
        V = np.array([[1.0], [1.0], [1.0], [2.0], [2.0]], dtype=np.float32)
        res = PMCMean().fit(ts, V, delta_for(V, 0.0), 50)
        assert res.length == 3

    def test_within_bound_accepts_noise(self):
        ts = mk(20)
        g = np.random.default_rng(0)
        V = (10.0 + g.uniform(-0.05, 0.05, (20, 1))).astype(np.float32)
        res = PMCMean().fit(ts, V, delta_for(V, 10.0), 50)
        assert res.length == 20

    def test_mean_within_bound_of_every_value(self):
        ts = mk(30)
        g = np.random.default_rng(1)
        V = (100.0 + g.uniform(-3, 3, (30, 2))).astype(np.float32)
        d = delta_for(V, 5.0)
        res = PMCMean().fit(ts, V, d, 50)
        c = struct.unpack("<f", res.params)[0]
        sl = slice(0, res.length)
        assert np.all(np.abs(V[sl] - c) <= d[sl] + 1e-4)

    def test_group_spread_beyond_bound_rejects(self):
        ts = mk(3)
        V = np.array([[1.0, 100.0]] * 3, dtype=np.float32)
        res = PMCMean().fit(ts, V, delta_for(V, 1.0), 50)
        assert res.length == 0

    def test_group_tight_spread_fits(self):
        ts = mk(10)
        V = np.stack([np.full(10, 9.9), np.full(10, 10.1)], axis=1).astype(np.float32)
        res = PMCMean().fit(ts, V, delta_for(V, 5.0), 50)
        assert res.length == 10
        assert struct.unpack("<f", res.params)[0] == pytest.approx(10.0, abs=1e-3)

    def test_reconstruct_shape_and_value(self):
        m = PMCMean()
        p = struct.pack("<f", 7.0)
        out = m.reconstruct(p, mk(4), 3)
        assert out.shape == (4, 3)
        assert np.all(out == np.float32(7.0))

    def test_aggregates_constant_time(self):
        p = struct.pack("<f", 2.5)
        s, lo, hi = whole_columns(PMCMean(), p, mk(10), 4, scaling=2.0)
        np.testing.assert_array_equal(s, np.full(4, 50.0))
        np.testing.assert_array_equal(lo, np.full(4, 5.0))
        np.testing.assert_array_equal(hi, np.full(4, 5.0))


class TestPMCMidrange:
    def test_longer_than_pmc_mean_on_drift(self):
        """PMC-MR only needs a non-empty [L, H]; mean constraint is stricter."""
        ts = mk(40)
        # Values drifting from 10 to 11 with eps 5% (delta ~0.5): midrange
        # survives the whole run, the running mean falls out earlier.
        V = np.linspace(10, 11.05, 40, dtype=np.float32)[:, None]
        d = delta_for(V, 5.0)
        mr = PMCMidrange().fit(ts, V, d, 50)
        pm = PMCMean().fit(ts, V, d, 50)
        assert mr.length >= pm.length

    def test_midrange_within_bounds(self):
        ts = mk(10)
        g = np.random.default_rng(3)
        V = (50 + g.uniform(-2, 2, (10, 1))).astype(np.float32)
        d = delta_for(V, 5.0)
        res = PMCMidrange().fit(ts, V, d, 50)
        c = struct.unpack("<f", res.params)[0]
        assert np.all(np.abs(V[:res.length, 0] - c) <= d[:res.length, 0] + 1e-4)


class TestSwing:
    def test_exact_linear_zero_bound(self):
        ts = mk(20)
        V = (0.5 * np.arange(20, dtype=np.float64) + 3)[:, None].astype(np.float32)
        res = Swing().fit(ts, V.astype(np.float32), np.zeros_like(V, dtype=np.float32), 50)
        assert res.length == 20

    def test_reconstruct_linear(self):
        ts = mk(10)
        V = (2.0 * np.arange(10) + 1)[:, None].astype(np.float32)
        res = Swing().fit(ts, V, np.zeros_like(V), 50)
        out = Swing().reconstruct(res.params, ts, 1)
        np.testing.assert_allclose(out, V, rtol=1e-5, atol=1e-4)

    def test_breaks_at_slope_change(self):
        ts = mk(10)
        up = np.arange(5, dtype=np.float64)
        down = np.arange(5, dtype=np.float64)[::-1] + 3
        V = np.concatenate([up, down])[:, None].astype(np.float32)
        res = Swing().fit(ts, V, np.zeros_like(V), 50)
        assert res.length < 10

    def test_single_point(self):
        ts = mk(1)
        V = np.array([[4.0]], dtype=np.float32)
        res = Swing().fit(ts, V, np.zeros_like(V), 50)
        assert res.length == 1
        out = Swing().reconstruct(res.params, ts, 1)
        assert out[0, 0] == pytest.approx(4.0)

    def test_group_anchor_uses_mean_of_first_values(self):
        ts = mk(10)
        base = 0.1 * np.arange(10, dtype=np.float64)
        V = np.stack([base + 10.0, base + 10.2], axis=1).astype(np.float32)
        d = delta_for(V, 5.0)
        res = Swing().fit(ts, V, d, 50)
        assert res.length == 10
        v_s, _ = struct.unpack("<ff", res.params)
        assert v_s == pytest.approx(10.1, abs=1e-3)

    def test_group_spread_first_values_reject(self):
        ts = mk(5)
        V = np.stack([np.arange(5.0), np.arange(5.0) + 50], axis=1).astype(np.float32)
        res = Swing().fit(ts, V, delta_for(V, 1.0), 50)
        assert res.length == 0

    def test_noisy_linear_within_bound(self):
        ts = mk(50)
        g = np.random.default_rng(4)
        base = 100 + 0.5 * np.arange(50)
        V = (base + g.uniform(-0.5, 0.5, 50))[:, None].astype(np.float32)
        d = delta_for(V, 5.0)
        res = Swing().fit(ts, V, d, 50)
        assert res.length == 50
        rec = Swing().reconstruct(res.params, ts, 1)
        assert np.all(np.abs(rec - V) <= d + 1e-2)

    def test_aggregates_match_reconstruction(self):
        ts = mk(20)
        V = (3.0 + 0.25 * np.arange(20))[:, None].astype(np.float32)
        res = Swing().fit(ts, V, np.zeros_like(V), 50)
        (s,), (lo,), (hi,) = whole_columns(Swing(), res.params, ts, 1)
        rec = Swing().reconstruct(res.params, ts, 1)
        assert s == pytest.approx(rec.sum(), rel=1e-5)
        assert lo == pytest.approx(rec.min(), abs=1e-4)
        assert hi == pytest.approx(rec.max(), abs=1e-4)


class TestLossless:
    def test_gorilla_model_roundtrip_group(self):
        ts = mk(30)
        g = np.random.default_rng(5)
        V = g.normal(0, 1, (30, 3)).astype(np.float32)
        res = GorillaModel().fit(ts, V, np.zeros_like(V), 50)
        assert res.length == 30
        out = GorillaModel().reconstruct(res.params, ts, 3)
        np.testing.assert_array_equal(out, V)

    def test_gorilla_respects_length_bound(self):
        ts = mk(100)
        V = np.zeros((100, 2), dtype=np.float32)
        res = GorillaModel().fit(ts, V, V, 50)
        assert res.length == 50

    def test_raw_fallback_roundtrip(self):
        ts = mk(10)
        V = np.arange(20, dtype=np.float32).reshape(10, 2)
        res = RawFallback().fit(ts, V, np.zeros_like(V), 50)
        out = RawFallback().reconstruct(res.params, ts, 2)
        np.testing.assert_array_equal(out, V)
        assert len(res.params) == 10 * 2 * 4

    def test_registry_lookup(self):
        import repro.core  # noqa: F401 — registers built-ins
        from repro.core.model_types import MID_GORILLA, MID_PMC_MEAN, MID_SWING
        assert by_mid(MID_PMC_MEAN).name == "PMC-Mean"
        assert by_mid(MID_SWING).name == "Swing"
        assert by_mid(MID_GORILLA).lossless


class TestSizeContract:
    """GOLEMM ranks candidates by ``FitResult.size``, the blob's length,
    and skips one whose ``min_size`` cannot win, so the bound must hold
    for every type."""

    @pytest.mark.parametrize("kind", ["noise", "walk", "runs", "constant"])
    @pytest.mark.parametrize("seed", range(4))
    def test_lower_bound_and_exact_size(self, kind, seed):
        import repro.core  # noqa: F401 — registers built-ins
        g = np.random.default_rng(seed)
        n_t, n_s = int(g.integers(1, 80)), int(g.integers(1, 5))
        if kind == "noise":
            V = g.normal(0, 100, (n_t, n_s))
        elif kind == "walk":
            V = 50 + np.cumsum(g.normal(0, 0.5, (n_t, 1)), axis=0) \
                + g.normal(0, 0.01, (n_t, n_s))
        elif kind == "runs":    # many zero XORs
            V = g.choice([1.5, 2.0, -3.25], size=(n_t, 1)).repeat(n_s, 1)
        else:                   # all XORs zero: Gorilla meets its bound
            V = np.full((n_t, n_s), g.normal(0, 100))
        V = V.astype(np.float32)
        ts = mk(n_t)
        fitted = 0
        for mt in registry().values():
            for eps in (0.0, 1.0, 10.0):
                res = mt.fit(ts, V, delta_for(V, eps), 50)
                if res.length == 0:
                    continue
                fitted += 1
                assert res.min_size <= res.size == len(res.params), mt.name
                out = mt.reconstruct(res.params, ts[:res.length], n_s)
                assert out.shape == (res.length, n_s)
        assert fitted >= len(registry())

    def test_eager_result_keeps_length_and_params(self):
        res = FitResult(3, b"abcd")
        assert (res.length, res.params, res.size, res.min_size) == (
            3, b"abcd", 4, 4)
        assert res == FitResult(3, b"abcd") != FitResult(2, b"abcd")

    def test_lazy_result_encodes_once_on_demand(self):
        calls = []

        def encode():
            calls.append(1)
            return b"xyz"

        res = FitResult(5, encode=encode, min_size=1)
        assert (res.length, res.min_size, calls) == (5, 1, [])
        assert res.size == 3 and res.params == res.params == b"xyz"
        assert calls == [1]
