"""The one way the tests and the ``jobs/`` entry points start Spark.

Two things are read when the driver JVM and its Python workers are
launched, not from the session's settings, so :func:`prepare_environment`
puts them in the environment first:

* ``PYTHONPATH`` starts with this checkout's ``src``, so Spark's Python
  workers import ``repro`` without an install;
* ``PYSPARK_SUBMIT_ARGS``, unless already set, carries the master
  (``SPARK_MASTER``, default ``local[*]``) and the driver heap
  (``SPARK_DRIVER_MEM``, else :func:`driver_memory`'s rule).

The benchmark (``perfbench/harness.py``) keeps a launcher of its own.
"""
from __future__ import annotations

import os
from typing import Mapping, Optional

SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM``, else half of MemTotal in GiB clamped to 2..8 g.

    The job-scale data sets exhaust Spark's default 1g heap.
    """
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(max(g, 2), 8)}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def prepare_environment() -> None:
    """Set what the JVM and Spark's Python workers read at launch."""
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p and p != SRC]
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + rest)
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell")


def spark_session(app: str, conf: Optional[Mapping[str, object]] = None):
    """A SparkSession with 64 shuffle partitions, Arrow enabled and
    ``conf`` on top."""
    prepare_environment()
    from pyspark.sql import SparkSession

    builder = (SparkSession.builder.appName(app)
               .config("spark.sql.shuffle.partitions", "64")
               .config("spark.sql.execution.arrow.pyspark.enabled", "true"))
    for key, value in (conf or {}).items():
        builder = builder.config(key, value)
    return builder.getOrCreate()
