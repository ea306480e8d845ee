"""Property-based tests (hypothesis) for the compression invariants.

The error-bound guarantee is the paper's core contract: every value a
model represents is within ε of the original.  These properties fuzz the
fitting paths with arbitrary series shapes.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.golemm import compress_group
from repro.core.model_types import by_mid, first_false
from repro.core.pmc_mean import PMCMean, PMCMidrange
from repro.core.split_merge import cluster_within_double_bound
from repro.core.swing import Swing

finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False,
                     min_value=-1e6, max_value=1e6)


def _fit_inputs(values, eps_pct):
    V = np.asarray(values, dtype=np.float32)[:, None]
    delta = np.abs(V) * (eps_pct / 100.0)
    ts = np.arange(len(V), dtype=np.int64) * 100
    return ts, V, delta


class TestPMCProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite32, min_size=1, max_size=60),
           st.sampled_from([0.0, 1.0, 5.0, 10.0]))
    def test_mean_within_bound_of_prefix(self, vals, eps):
        ts, V, d = _fit_inputs(vals, eps)
        res = PMCMean().fit(ts, V, d, 100)
        if res.length:
            rec = PMCMean().reconstruct(res.params, ts[:res.length], 1)
            # float32 storage of the mean costs at most a few ulp.
            slack = np.abs(V[:res.length]) * 1e-5 + 1e-3
            assert np.all(np.abs(rec - V[:res.length])
                          <= d[:res.length] + slack)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite32, min_size=1, max_size=60))
    def test_midrange_never_shorter_prefix_possible(self, vals):
        """PMC-MR accepts at least as long a run as PMC-Mean."""
        ts, V, d = _fit_inputs(vals, 5.0)
        assert (PMCMidrange().fit(ts, V, d, 100).length
                >= PMCMean().fit(ts, V, d, 100).length)


class TestSwingProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite32, min_size=2, max_size=60),
           st.sampled_from([1.0, 5.0, 10.0]))
    def test_line_within_bound_of_prefix(self, vals, eps):
        ts, V, d = _fit_inputs(vals, eps)
        res = Swing().fit(ts, V, d, 100)
        if res.length >= 2:
            rec = Swing().reconstruct(res.params, ts[:res.length], 1)
            slack = np.abs(V[:res.length]) * 2e-5 + 2e-3
            assert np.all(np.abs(rec - V[:res.length])
                          <= d[:res.length] + slack)


class TestGolemmProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(5, 80),
           st.sampled_from([0.0, 5.0]), st.integers(0, 10_000))
    def test_reconstruction_within_bound(self, n_series, n_t, eps, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(50, 10) + np.cumsum(rng.normal(0, 0.5, n_t))
        V = np.stack([base + rng.normal(0, 0.05, n_t)
                      for _ in range(n_series)], axis=1).astype(np.float32)
        ts = np.arange(n_t, dtype=np.int64) * 100
        segs = compress_group(ts, V, eps, gid=1, si=100)
        total = sum(s.size * (n_series - bin(s.gaps).count("1"))
                    for s in segs)
        assert total == n_t * n_series  # disconnected, complete cover
        for s in segs:
            t = s.timestamps()
            cols = [i for i in range(n_series) if not (s.gaps >> i) & 1]
            rec = by_mid(s.mid).reconstruct(s.params, t, len(cols))
            idx = (t // 100).astype(np.int64)
            orig = V[idx][:, cols]
            tol = np.abs(orig) * (eps / 100.0 + 2e-5) + 2e-3
            assert np.all(np.abs(rec - orig) <= tol)


class TestClusterProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 20), st.integers(0, 9999))
    def test_cluster_is_partition(self, n_series, window, seed):
        rng = np.random.default_rng(seed)
        V = rng.normal(0, 1, (window, n_series)).astype(np.float32)
        delta = np.abs(V) * 0.05
        series = np.arange(n_series)
        clusters = cluster_within_double_bound(V, delta, series)
        flat = sorted(int(x) for c in clusters for x in c)
        assert flat == list(range(n_series))

    def test_infinite_seed_still_clustered(self):
        """inf - inf is NaN, so the seed's comparison with itself fails;
        the seed must still join its own cluster (it looped forever)."""
        V = np.array([[np.inf, 1.0], [np.inf, 2.0]], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            clusters = cluster_within_double_bound(V, np.abs(V) * 0.1,
                                                   np.arange(2))
        assert sorted(int(x) for c in clusters for x in c) == [0, 1]

    def test_identical_series_single_cluster(self):
        V = np.ones((10, 5), dtype=np.float32)
        clusters = cluster_within_double_bound(V, V * 0.01, np.arange(5))
        assert len(clusters) == 1


class TestFirstFalseProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_matches_python_scan(self, bools):
        arr = np.array(bools)
        want = next((i for i, b in enumerate(bools) if not b), len(bools))
        assert first_false(arr) == want
