"""Shared helpers for the spark-submit job entrypoints.

Each ``jobs/t*.py`` reproduces one table of the paper's evaluation
(DESIGN.md §5) and prints its rows; run them as
``python jobs/tN_… .py`` (no install needed), or as
``PYTHONPATH=src spark-submit --driver-memory … jobs/tN_… .py``.
"""
from __future__ import annotations

import os
import sys
import tempfile

import pandas as pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# Sets PYTHONPATH for Spark's Python workers and the driver heap.
from repro.session import spark_session as get_spark  # noqa: E402,F401


def workdir(name: str) -> str:
    d = os.path.join(tempfile.gettempdir(), f"repro_{name}")
    os.makedirs(d, exist_ok=True)
    return d


def show(title: str, df: pd.DataFrame) -> None:
    print(f"\n=== {title} ===")
    print(df.to_string(index=False))


# Job-scale data set parameters: ~2M points for EP/EF so the raw-format
# baselines are scan-bound (the regime the paper evaluates) while the
# suite still finishes in minutes.  Scale the point counts via
# REPRO_SCALE for quick runs.
_SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))


def ep_job(**kw):
    from repro.datasets import ep_like

    kw.setdefault("n_entities", 24)            # 120 series
    kw.setdefault("n_points", int(16384 * _SCALE))
    return ep_like(**kw)


def ef_job(**kw):
    from repro.datasets import ef_like

    kw.setdefault("n_parks", 3)
    kw.setdefault("n_turbines", 3)             # 54 series
    kw.setdefault("n_points", int(32768 * _SCALE))
    return ef_like(**kw)


def hd_job(**kw):
    from repro.datasets import hd_like

    kw.setdefault("n_pairs", 6)                # 18 series
    kw.setdefault("n_points", int(16384 * _SCALE))
    return hd_like(**kw)
