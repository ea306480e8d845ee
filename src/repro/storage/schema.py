"""Spark schemas for the ModelarDB+ storage layout (paper §III-C, Fig. 6).

Three logical tables:

* **Time Series** — per-Tid metadata: SI, scaling constant, assigned
  Gid, bit position in the group's gap mask, and the denormalised
  user-defined dimensions.  Stored as Parquet next to the segment files.
* **Model** — Mid → model-type name (the paper maps Mids to Java
  classpaths; here to the Python registry in ``repro.core``).
* **Segment** — the compressed segments; stored in the custom ``.mdb``
  format (``segment_store.py``: ``core.segment.pack`` records, zlib level
  1 per file like the Cassandra stand-in; GOLEMM still costs segments by
  ``HEADER_BYTES``) and scanned through the ``modelardb`` DataSourceV2.
  ``StartTime`` is derived from ``EndTime``, ``Size`` and ``SI`` on read,
  exactly as the paper's Cassandra schema does.

The Spark ingest and the ``modelardb`` DataSource both emit Segment
rows built by :func:`segment_columns`.
"""
from typing import Dict, Sequence

import numpy as np
from pyspark.sql.types import (BinaryType, IntegerType, LongType,
                               StructField, StructType)

from ..core.segment import Segment

SEGMENT_SCHEMA = StructType([
    StructField("gid", IntegerType()),
    StructField("start_time", LongType()),
    StructField("end_time", LongType()),
    StructField("si", IntegerType()),
    StructField("size", IntegerType()),
    StructField("mid", IntegerType()),
    StructField("gaps", LongType()),
    StructField("params", BinaryType()),
])


def segment_columns(segments: Sequence[Segment]) -> Dict[str, np.ndarray]:
    """The columns of :data:`SEGMENT_SCHEMA` for ``segments``.

    Spark has no unsigned long, so bit 63 of the gap mask becomes the
    sign bit of ``gaps``; :class:`Segment` masks it back to unsigned.
    """
    def col(name: str, dtype) -> np.ndarray:
        return np.array([getattr(s, name) for s in segments], dtype)

    return {
        "gid": col("gid", np.int32),
        "start_time": col("start_time", np.int64),
        "end_time": col("end_time", np.int64),
        "si": col("si", np.int32),
        "size": col("size", np.int32),
        "mid": col("mid", np.int32),
        "gaps": col("gaps", np.uint64).view(np.int64),
        "params": col("params", object),
    }
