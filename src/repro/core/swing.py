"""Swing: linear model with slope filtering, group-extended (paper §V).

Swing (Elmeleegy et al., PVLDB 2009) fits a line anchored at the first
value; each subsequent value narrows the feasible slope interval and the
model fails when the interval empties.  A segment costs 64 bits (two
float32: the value at the segment's first and last timestamp).

Group extension per the paper: the anchor value for the first timestamp
is computed with PMC-Mean (the mean of the group's first values, which
must itself be within the error bound of each of them); subsequent
values from *all* series narrow the slope interval one timestamp at a
time.

Fitting is vectorised: for timestamp ``t_i`` (i >= 2) every active
series contributes the slope interval
``[(v - d - v1)/(t_i - t1), (v + d - v1)/(t_i - t1)]``; cumulative
max/min over the per-timestamp group reductions yield the running
feasible interval, and the longest prefix with a non-empty interval is
the fit length.  The emitted slope is the interval midpoint.
"""
from __future__ import annotations

import struct

import numpy as np

from .model_types import MID_SWING, FitResult, ModelType, first_false


class Swing(ModelType):
    mid = MID_SWING
    name = "Swing"

    def fit(self, ts, V, delta, length_bound):
        n_t = len(ts)
        if n_t == 0:
            return FitResult(0, None)
        v1 = float(V[0].mean())
        if not (((V[0] - delta[0]) <= v1) & (v1 <= (V[0] + delta[0]))).all():
            return FitResult(0, None)
        dt = (ts[1:] - ts[0]).astype(np.float64)[:, None]
        # float64: in float32, ``v - v1`` loses up to half an ulp of v1,
        # which exceeds the bound of a small v after a large anchor.
        rise = np.subtract(V[1:], v1, dtype=np.float64)
        hi_t = ((rise + delta[1:]) / dt).min(axis=1)
        lo_t = ((rise - delta[1:]) / dt).max(axis=1)
        UP = np.minimum.accumulate(hi_t)
        LO = np.maximum.accumulate(lo_t)
        valid = LO <= UP
        k = first_false(valid)
        if k == 0:  # also one timestamp: no slope interval at all
            p = struct.pack("<ff", v1, v1)
            return FitResult(1, p)
        slope = (LO[k - 1] + UP[k - 1]) / 2.0
        v_end = v1 + slope * float(ts[k] - ts[0])
        return FitResult(k + 1, struct.pack("<ff", v1, float(v_end)))

    def reconstruct(self, params, ts, n_series):
        v_s, v_e = struct.unpack("<ff", params)
        if len(ts) == 1:
            vals = np.array([v_s], dtype=np.float64)
        else:
            span = float(ts[-1] - ts[0])
            slope = (v_e - v_s) / span if span else 0.0
            vals = v_s + slope * (ts - ts[0]).astype(np.float64)
        return np.repeat(vals.astype(np.float32)[:, None], n_series, axis=1)

    def partials(self, cols, row, first, count):
        ends = np.frombuffer(b"".join(cols.params[row]), dtype="<f4"
                             ).reshape(-1, 2).astype(np.float64)
        span = np.maximum(cols.size[row] - 1, 1)
        scaling = cols.scaling[row]

        def value(i):
            f = i / span  # exactly 0 and 1 at the segment's ends
            return (ends[:, 0] * (1.0 - f) + ends[:, 1] * f) * scaling

        # Values are linear in time, so a run's end values give its sum
        # (an arithmetic series), min and max in constant time (§VI-A).
        a, b = value(first), value(first + count - 1)
        return (a + b) / 2.0 * count, np.minimum(a, b), np.maximum(a, b)
