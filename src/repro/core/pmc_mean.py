"""Constant models: PMC-Mean (MDB+) and PMC-MR (MDB baseline), group-extended.

PMC-Mean (Lazaridis & Mehrotra, ICDE 2003) represents a run of values by
their mean, valid while the mean stays within the error bound of every
value.  The paper's group extension (§V) needs no structural change: per
timestamp the group contributes its min/max/avg, and the running
constraints fold across both time and series.  A segment costs 32 bits
(one float32) regardless of length.

PMC-MR uses the mid-range ``(lo+hi)/2`` instead of the mean; it accepts
strictly longer runs (only the range constraint must hold) but has a
higher average error — ModelarDB+ replaced it with PMC-Mean (Table I),
and the original ModelarDB baseline keeps it.

Fitting is vectorised: with per-value bounds ``delta``, a constant ``c``
represents the prefix of length ``k`` iff
``max_i(v_i - d_i) <= c <= min_i(v_i + d_i)`` for all values in the
prefix; running ``cummax``/``cummin``/``cumsum`` give the longest valid
prefix in one pass.
"""
from __future__ import annotations

import struct

import numpy as np

from .model_types import (MID_PMC_MEAN, MID_PMC_MR, FitResult, ModelType,
                          first_false)


def _prefix_bounds(V: np.ndarray, delta: np.ndarray):
    """Per-timestamp group reductions folded cumulatively over time.

    Returns (L, H, mean): running lower bound ``cummax(v - d)``, upper
    bound ``cummin(v + d)`` and running mean, all of shape (n_t,).
    """
    lo_t = (V - delta).max(axis=1)
    hi_t = (V + delta).min(axis=1)
    L = np.maximum.accumulate(lo_t)
    H = np.minimum.accumulate(hi_t)
    csum = np.cumsum(V.sum(axis=1))
    ccnt = np.arange(1, len(V) + 1) * V.shape[1]
    mean = csum / ccnt
    return L, H, mean


class PMCMean(ModelType):
    """Constant model using the running mean as representative."""

    mid = MID_PMC_MEAN
    name = "PMC-Mean"

    def fit(self, ts, V, delta, length_bound):
        L, H, mean = _prefix_bounds(V, delta)
        valid = (L <= mean) & (mean <= H)
        n = first_false(valid)
        if n == 0:
            return FitResult(0, None)
        return FitResult(n, struct.pack("<f", float(mean[n - 1])))

    def reconstruct(self, params, ts, n_series):
        (c,) = struct.unpack("<f", params)
        return np.full((len(ts), n_series), c, dtype=np.float32)

    def partials(self, cols, row, first, count):
        v = (np.frombuffer(b"".join(cols.params[row]), dtype="<f4")
             * cols.scaling[row])
        return v * count, v, v


class PMCMidrange(PMCMean):
    """PMC-MR: mid-range representative; longer runs, larger avg error."""

    mid = MID_PMC_MR
    name = "PMC-MR"

    def fit(self, ts, V, delta, length_bound):
        L, H, _ = _prefix_bounds(V, delta)
        valid = L <= H
        n = first_false(valid)
        if n == 0:
            return FitResult(0, None)
        c = (L[n - 1] + H[n - 1]) / 2.0
        return FitResult(n, struct.pack("<f", float(c)))
