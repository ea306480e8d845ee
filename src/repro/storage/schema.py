"""Schemas for the ModelarDB+ storage layout (paper §III-C, Fig. 6).

Three logical tables:

* **Time Series** — per-Tid metadata: SI, scaling constant, assigned
  Gid, bit position in the group's gap mask, and the denormalised
  user-defined dimensions.  Stored as Parquet next to the segment files.
* **Model** — Mid → model-type name (the paper maps Mids to Java
  classpaths; here to the Python registry in ``repro.core``).
* **Segment** — the compressed segments, one :data:`SEGMENT_SCHEMA` row
  each, scanned through the ``modelardb`` DataSourceV2.  A ``.mdb`` file
  holds the count and the Arrow column buffers of its :data:`FILE_SCHEMA`
  rows, not Arrow IPC metadata: the schema and the count fix the rest.
  ``StartTime`` is not stored but derived from ``EndTime``, ``Size`` and
  ``SI``, exactly as in the paper's Cassandra schema.

This module is the one place that knows the Segment row format:
:func:`segment_columns` builds its columns for the Spark ingest and the
file writer, and :func:`from_file_bytes` reads a file's rows back.
"""
from typing import Dict, Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql.pandas.types import to_arrow_schema
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
_SEGMENT_ARROW = to_arrow_schema(SEGMENT_SCHEMA)

#: The stored columns: no ``start_time``, and a 1-byte Mid, so a segment
#: costs ``core.segment.HEADER_BYTES`` + its parameters before compression,
#: and a file of them 8 bytes more (the count and the first params offset).
FILE_SCHEMA = _SEGMENT_ARROW.remove(1).set(4, pa.field("mid", pa.uint8()))
_FIXED = list(FILE_SCHEMA)[:-1]  # all but params, the last column


def segment_columns(segments: Sequence[Segment]) -> Dict[str, np.ndarray]:
    """The columns of :data:`SEGMENT_SCHEMA` for ``segments``.

    Spark has no unsigned long, so bit 63 of the gap mask becomes the
    sign bit of ``gaps``; :class:`Segment` masks it back to unsigned.
    """
    def col(name: str, dtype) -> np.ndarray:
        return np.array([getattr(s, name) for s in segments], dtype)

    return {f.name: col(f.name, np.uint64).view(np.int64) if f.name == "gaps"
            else col(f.name, f.type.to_pandas_dtype()) for f in _SEGMENT_ARROW}


def to_file_bytes(columns: Dict[str, np.ndarray]) -> bytes:
    """The ``.mdb`` bytes of :func:`segment_columns`' ``columns``: their
    row count *n* as a little-endian ``uint32``, then the Arrow data
    buffer of each :data:`FILE_SCHEMA` column in order, for ``params`` its
    *n* + 1 ``int32`` offsets and its bytes."""
    batch = pa.record_batch([pa.array(columns[f.name], f.type)
                             for f in FILE_SCHEMA], schema=FILE_SCHEMA)
    return batch.num_rows.to_bytes(4, "little") + b"".join(
        bytes(buf) for col in batch.columns for buf in col.buffers()[1:])


def from_file_bytes(data: bytes) -> pa.Table:
    """The :data:`SEGMENT_SCHEMA` table of :func:`to_file_bytes`' bytes.
    Bytes cut short or followed by more, or ``params`` offsets out of
    order, raise ``ValueError``."""
    n, buf = int.from_bytes(data[:4], "little"), pa.py_buffer(data)
    ends = (4 + np.cumsum([f.type.bit_width // 8 * n for f in _FIXED]
                          + [4 * (n + 1)])).tolist()
    n_params = int.from_bytes(data[ends[-1] - 4:ends[-1]], "little")
    if len(data) != ends[-1] + n_params:
        raise ValueError(f"{len(data)} bytes are not a whole segment file "
                         f"of {n} rows")
    arrays = [pa.Array.from_buffers(f.type, n, [None, buf[a:b]]) for f, a, b
              in zip(_FIXED, [4, *ends[:-2]], ends[:-1])]
    params = pa.Array.from_buffers(pa.binary(), n, [
        None, buf[ends[-2]:ends[-1]], buf[ends[-1]:]])
    params.validate(full=True)  # offsets in order, within the bytes
    stored = pa.Table.from_arrays(arrays + [params], schema=FILE_SCHEMA)
    end, size, si = (stored.column(name).to_numpy().astype(np.int64)
                     for name in ("end_time", "size", "si"))
    return stored.add_column(1, "start_time", pa.array(
        end - (size - 1) * si)).cast(_SEGMENT_ARROW)
