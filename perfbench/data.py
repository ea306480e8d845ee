"""Seeded inputs of the workloads.

The program under test receives only what these functions return: the
long-format points and the series metadata with its dimensions.

Both data sets start from the ``repro.datasets`` generator at its own
default seed, which fixes the latent signals (the regimes every series
of a cluster follows).  The workload seed then draws measurement noise
and extra gaps on top.  The latent random walks drift through zero,
and there the relative error bound forces Gorilla, so with the latent
signals drawn from the workload seed, stored bytes per point spread
0.54 over seeds 1-10 for the EF-like data and 0.12 for the EP-like data
(quartile distance over median); GOLEMM seconds on EF spread 0.31.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.datasets import TSDataset, ef_like, ep_like

#: The generators' own default seeds; they fix the latent signals.
EF_LATENT_SEED = 13
EP_LATENT_SEED = 11
EF_POINTS = 32768       # per series; 54 series
EP_POINTS = 8192        # per series; 120 series
EP_ENTITIES = 24


def _perturb(base: TSDataset, seed: int, gaps_per_series: float
             ) -> TSDataset:
    """``base`` with seeded relative noise (1e-4) and extra gaps."""
    rng = np.random.default_rng(seed)
    pts = base.points
    v = pts["value"].to_numpy(np.float64)
    noisy = (v * (1.0 + rng.normal(0.0, 1e-4, len(v)))).astype(np.float32)
    keep = np.ones(len(pts), dtype=bool)
    ts = pts["ts"].to_numpy(np.int64)
    si = int(base.meta["si"].iloc[0])
    t0, t1 = int(ts.min()), int(ts.max())
    tid_col = pts["tid"].to_numpy()
    for tid in np.unique(tid_col):
        for _ in range(rng.poisson(gaps_per_series)):
            start = t0 + si * int(rng.integers(0, (t1 - t0) // si))
            length = si * max(2, int(rng.geometric(1 / 20)))
            keep &= ~((tid_col == tid) & (ts >= start) & (ts < start + length))
    points = pd.DataFrame({"tid": tid_col[keep], "ts": ts[keep],
                           "value": noisy[keep]})
    return TSDataset(base.name, base.meta, points, base.dims)


def ef_input(seed: int, scale: float = 1.0) -> TSDataset:
    """54 series (3 parks x 3 turbines x 6 measures)."""
    base = ef_like(n_parks=3, n_turbines=3,
                   n_points=max(256, int(EF_POINTS * scale)),
                   seed=EF_LATENT_SEED)
    return _perturb(base, seed, 0.45)       # ~ ef_like's own gap rate


def ep_input(seed: int, scale: float = 1.0) -> TSDataset:
    """120 series (24 entities x 5 measures)."""
    base = ep_like(n_entities=EP_ENTITIES,
                   n_points=max(256, int(EP_POINTS * scale)),
                   seed=EP_LATENT_SEED)
    return _perturb(base, seed, 0.6)        # ~ ep_like's own gap rate
