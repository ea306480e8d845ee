"""Synthetic stand-ins for the paper's EP / EF / HD data sets (§VII-B).

The real data sets are proprietary (EP, EF) or external (HD,
histdata.com) and hundreds of GiB; per DESIGN.md they are replaced by
deterministic generators that preserve the three properties the
evaluation depends on:

1. **Cluster correlation** — series sharing a latent signal (same
   entity+category for EP, same park+measure for EF, same pair for HD)
   are near-identical up to small noise, so group compression pays off.
2. **Regime mixture** — the latent signals switch between constant,
   linear and noisy regimes so all three model types are exercised
   (paper Figs. 17–19).
3. **Dimension hierarchies predicting correlation** — the paper's exact
   dimensions (Production/Measure, Location/Measure, Forex) are
   attached, so dimension-based grouping can discover the clusters.

HD deliberately uses *looser* intra-cluster correlation (distinct
price concretes of one pair differ by spreads larger than the error
bound) — the paper found grouping *hurts* storage on HD, and the
generator preserves that property.

All generators are deterministic in ``seed``.  Timestamps are int64
epoch milliseconds; values are float32-representable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from .dims.dimensions import Dimension

EPOCH_MS = 1_546_300_800_000  # 2019-01-01, keeps timestamps realistic


@dataclass
class TSDataset:
    """A generated data set: metadata, long-format points, dimensions."""

    name: str
    meta: pd.DataFrame        # tid, source, si, scaling, <dimension columns>
    points: pd.DataFrame      # tid, ts, value (gaps = absent rows)
    dims: Tuple[Dimension, ...]

    @property
    def n_series(self) -> int:
        return len(self.meta)

    def to_spark(self, spark):
        return spark.createDataFrame(self.points)


def regime_signal(rng: np.random.Generator, n: int, base: float = 50.0,
                  noise_frac: float = 0.25) -> np.ndarray:
    """Latent regime-switching signal: constant / linear / noisy pieces
    of 60 points on average.

    ``noise_frac`` is the probability of a noisy (random-walk) regime;
    the rest splits evenly between constant holds and linear ramps.
    """
    out = np.empty(n, dtype=np.float64)
    pos = 0
    level = base
    while pos < n:
        length = min(n - pos, max(2, int(rng.geometric(1.0 / 60))))
        r = rng.random()
        if r < (1 - noise_frac) / 2:          # constant hold
            out[pos:pos + length] = level
        elif r < 1 - noise_frac:              # linear ramp
            slope = rng.uniform(-0.02, 0.02) * base
            seg = level + slope * np.arange(length)
            out[pos:pos + length] = seg
            level = seg[-1]
        else:                                 # noisy random walk
            steps = rng.normal(0, 0.01 * base, length)
            seg = level + np.cumsum(steps)
            out[pos:pos + length] = seg
            level = seg[-1]
        pos += length
    return out


def _inject_gaps(rng: np.random.Generator, n: int, gap_prob: float
                 ) -> np.ndarray:
    """Boolean present-mask with a few gaps of 20 SIs on average (paper
    §II)."""
    present = np.ones(n, dtype=bool)
    if gap_prob <= 0:
        return present
    n_gaps = rng.poisson(gap_prob * 3)
    for _ in range(n_gaps):
        start = int(rng.integers(0, max(1, n - 2)))
        length = max(2, int(rng.geometric(1.0 / 20)))
        present[start:start + length] = False
    return present


def _build(name: str, rng: np.random.Generator, clusters: List[dict],
           n_points: int, si: int, dims: Tuple[Dimension, ...],
           noise_rel: float, gap_prob: float) -> TSDataset:
    """Shared assembly: one latent signal per cluster, per-series noise."""
    meta_rows, frames = [], []
    tid = 0
    ts = EPOCH_MS + si * np.arange(n_points, dtype=np.int64)
    for cluster in clusters:
        base = cluster.get("base", 50.0)
        latent = regime_signal(rng, n_points, base=base,
                               noise_frac=cluster.get("noise_frac", 0.25))
        for series in cluster["series"]:
            tid += 1
            spread = series.get("spread", noise_rel)
            offset = series.get("offset", 0.0)
            vals = (latent + offset
                    + rng.normal(0, abs(base) * spread, n_points))
            present = _inject_gaps(rng, n_points, gap_prob)
            frames.append(pd.DataFrame({
                "tid": np.int32(tid),
                "ts": ts[present],
                "value": vals[present].astype(np.float32),
            }))
            meta_rows.append({"tid": tid, "source": series["source"],
                              "si": si, "scaling": 1.0, **series["dims"]})
    meta = pd.DataFrame(meta_rows)
    points = pd.concat(frames, ignore_index=True)
    return TSDataset(name, meta, points, dims)


EP_DIMS = (Dimension("Production", ("production_type", "production_entity")),
           Dimension("Measure", ("measure_category", "measure_concrete")))

EF_DIMS = (Dimension("Location", ("country", "park", "entity")),
           Dimension("Measure", ("measure_category", "measure_concrete")))

HD_DIMS = (Dimension("Forex", ("pair", "forex_category", "forex_concrete")),)


def ep_like(*, n_entities: int = 8, n_points: int = 512, si: int = 60_000,
            seed: int = 11, gap_prob: float = 0.2) -> TSDataset:
    """EP-like: many short series from energy-production entities.

    Two dimensions as in the paper: Production (Entity → Type) and
    Measure (Concrete → Category).  Series of the same entity and
    measure category share a latent signal; the paper's +GB primitive
    (``Production 0, Measure 1 ProductionMWh``) maps onto this layout.
    """
    rng = np.random.default_rng(seed)
    categories = {  # category → its concrete measures
        "ProductionMWh": ["ProductionMWhA", "ProductionMWhB"],
        "Weather": ["WindSpeed", "Humidity"],
        "Grid": ["Frequency"],
    }
    types = ["Wind", "Solar"]
    clusters = []
    for e in range(n_entities):
        etype = types[e % len(types)]
        for cat, concretes in categories.items():
            base = {"ProductionMWh": 120.0, "Weather": 12.0,
                    "Grid": 50.0}[cat]
            series = [{
                "source": f"entity{e}_{c}.gz",
                "dims": {"production_entity": f"entity{e}",
                         "production_type": etype,
                         "measure_concrete": c,
                         "measure_category": cat},
            } for c in concretes]
            clusters.append({"base": base, "series": series})
    return _build("EP", rng, clusters, n_points, si, EP_DIMS,
                  noise_rel=0.002, gap_prob=gap_prob)


def ef_like(*, n_parks: int = 3, n_turbines: int = 4, n_points: int = 2048,
            si: int = 200, seed: int = 13, gap_prob: float = 0.15) -> TSDataset:
    """EF-like: few long high-frequency series from wind parks.

    Dimensions Location (Entity → Park → Country) and Measure.  The
    same measurement across one park's turbines is tightly correlated
    (co-located turbines see the same wind), which is what the paper's
    distance 0.4166667 groups.
    """
    rng = np.random.default_rng(seed)
    # Two concretes per category: distance 1/6 (auto) groups one concrete
    # across a park's turbines, 0.4166667 groups the whole category — the
    # paper's +GA vs +GB gap on EF.
    measures = {"Speed": ["RotorRPM", "GeneratorRPM"],
                "Temp": ["NacelleTemp", "GearboxTemp"],
                "Power": ["ActivePower", "ReactivePower"]}
    countries = ["DK", "DE"]
    clusters = []
    for p in range(n_parks):
        country = countries[p % len(countries)]
        for cat, concretes in measures.items():
            base = {"Speed": 14.0, "Temp": 35.0, "Power": 800.0}[cat]
            series = []
            for t in range(n_turbines):
                for k, c in enumerate(concretes):
                    series.append({
                        "source": f"park{p}_t{t}_{c}.gz",
                        # Concretes in a category track each other with a
                        # small systematic offset (e.g. generator vs rotor
                        # RPM) — still within moderate error bounds, so
                        # category-wide groups (+GB) compress best.
                        "offset": k * 0.005 * base,
                        "dims": {"entity": f"p{p}t{t}",
                                 "park": f"park{p}",
                                 "country": country,
                                 "measure_concrete": c,
                                 "measure_category": cat},
                    })
            clusters.append({"base": base, "series": series})
    return _build("EF", rng, clusters, n_points, si, EF_DIMS,
                  noise_rel=0.002, gap_prob=gap_prob)


def hd_like(*, n_pairs: int = 6, n_points: int = 1024, si: int = 60_000,
            seed: int = 17, gap_prob: float = 0.1) -> TSDataset:
    """HD-like: financial series, one dimension Forex
    (Concrete → Category → Pair).

    Within a pair the concretes (bid/ask/mid prices) are correlated but
    separated by spreads *larger* than typical error bounds, so grouping
    them forces Gorilla and hurts storage — matching the paper's HD
    result where -G beats +GA.
    """
    rng = np.random.default_rng(seed)
    pairs = [("EURUSD", "Major"), ("GBPUSD", "Major"), ("USDJPY", "Major"),
             ("XAUUSD", "Commodity"), ("WTIUSD", "Commodity"),
             ("SPXUSD", "Index")][:n_pairs]
    clusters = []
    for pair, cat in pairs:
        base = {"Major": 1.2, "Commodity": 60.0, "Index": 2800.0}[cat]
        series = []
        for k, concrete in enumerate(["Bid", "Ask", "Mid"]):
            series.append({
                "source": f"{pair}_{concrete}.gz",
                # Spread offsets ~2% of base: correlated, but outside
                # typical ε when compressed jointly.
                "offset": (k - 1) * 0.02 * base,
                "spread": 0.004,
                "dims": {"forex_concrete": f"{pair}{concrete}",
                         "forex_category": cat,
                         "pair": pair},
            })
        clusters.append({"base": base, "noise_frac": 0.5, "series": series})
    return _build("HD", rng, clusters, n_points, si, HD_DIMS,
                  noise_rel=0.004, gap_prob=gap_prob)
