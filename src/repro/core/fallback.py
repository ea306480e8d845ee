"""Lossless model types over raw bit patterns: Gorilla and the fallback.

``GorillaModel`` wraps the Gorilla XOR codec (``core/gorilla.py``) as a
model type.  Per the paper (§III-B) lossless types are limited by a
user-configurable *length bound* instead of the error bound — they can
always represent the values, so without a bound a segment would never
end.  Group layout (§V): values are stored time-major
(``v(t1,s1), v(t1,s2), …``) so correlated series produce small XORs.

``RawFallback`` stores raw float32 values; it is only used for buffers
no other configured model type can represent (§III-A).
"""
from __future__ import annotations

import numpy as np

from . import gorilla
from .model_types import MID_FALLBACK, MID_GORILLA, FitResult, ModelType


class GorillaModel(ModelType):
    mid = MID_GORILLA
    name = "Gorilla"
    lossless = True

    def fit(self, ts, V, delta, length_bound):
        n = min(len(ts), length_bound)
        if n == 0:
            return FitResult(0, None)
        flat = np.ascontiguousarray(V[:n], dtype=np.float32).ravel()
        # Encoded only if this segment may win.  At least 32 bits for the
        # first value and one for each other value.
        return FitResult(n, encode=lambda: gorilla.encode(flat),
                         min_size=-(-(31 + len(flat)) // 8))

    def reconstruct(self, params, ts, n_series):
        flat = gorilla.decode(params, len(ts) * n_series)
        return flat.reshape(len(ts), n_series)


class RawFallback(ModelType):
    mid = MID_FALLBACK
    name = "Raw"
    lossless = True

    def fit(self, ts, V, delta, length_bound):
        n = min(len(ts), length_bound)
        if n == 0:
            return FitResult(0, None)
        return FitResult(n, np.ascontiguousarray(V[:n], dtype="<f4").tobytes())

    def reconstruct(self, params, ts, n_series):
        flat = np.frombuffer(params, dtype="<f4")
        return flat.reshape(len(ts), n_series).astype(np.float32)
