"""Shared helpers for the spark-submit job entrypoints.

Each ``jobs/t*.py`` reproduces one table of the paper's evaluation
(DESIGN.md §5) and prints its rows; run them as
``spark-submit jobs/tN_… .py`` or ``python jobs/tN_… .py``.
"""
from __future__ import annotations

import os
import sys
import tempfile

import pandas as pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2..8 g (the tier-1 rule)."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(max(g, 2), 8)}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def get_spark(app: str):
    # spark.driver.memory is read at JVM launch, so it must be in
    # PYSPARK_SUBMIT_ARGS before pyspark is imported (the job-scale data
    # sets OOM the 1g default heap otherwise).
    mem = os.environ.get("SPARK_DRIVER_MEM") or driver_memory()
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (SparkSession.builder.appName(app)
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .getOrCreate())


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
