"""Cassandra stand-in: a compressed row store keyed by (Tid, TS).

The paper's Cassandra baseline stores one row per data point with
primary key ``(Tid, TS, Value)`` and LZ4-compressed SSTables.  This
simulator reproduces the storage/access structure over the local
filesystem (DESIGN.md §2): rows sorted by (tid, ts) are packed into
fixed-size chunks (``<i4 tid, i8 ts, f4 value>`` records, i.e. an
uncompressed row layout), each chunk zlib-compressed (level 1 ≈ LZ4's
ratio class — a fast general-purpose byte compressor over rows), with a
JSON index of per-chunk (tid, ts) ranges standing in for the partition
index.  Point/range reads prune chunks via the index; analytical reads
scan everything into Spark, as the DataStax connector does.
"""
from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Iterator, Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_REC = struct.Struct("<iqf")
CHUNK_ROWS = 65_536


def write(points: pd.DataFrame, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    rows = points.sort_values(["tid", "ts"]).reset_index(drop=True)
    tids = rows["tid"].to_numpy(np.int32)
    ts = rows["ts"].to_numpy(np.int64)
    vals = rows["value"].to_numpy(np.float32)
    index = []
    with open(os.path.join(path, "data.bin"), "wb") as f:
        for start in range(0, len(rows), CHUNK_ROWS):
            end = min(start + CHUNK_ROWS, len(rows))
            buf = bytearray()
            for i in range(start, end):
                buf += _REC.pack(int(tids[i]), int(ts[i]), float(vals[i]))
            comp = zlib.compress(bytes(buf), 1)
            index.append({
                "offset": f.tell(), "length": len(comp), "rows": end - start,
                "tid_min": int(tids[start]), "tid_max": int(tids[end - 1]),
                "ts_min": int(ts[start:end].min()),
                "ts_max": int(ts[start:end].max()),
            })
            f.write(comp)
    with open(os.path.join(path, "index.json"), "w") as f:
        json.dump(index, f)


def store_bytes(path: str) -> int:
    return os.path.getsize(os.path.join(path, "data.bin"))


def _iter_chunks(path: str, tid: Optional[int] = None,
                 ts_min: Optional[int] = None,
                 ts_max: Optional[int] = None) -> Iterator[pd.DataFrame]:
    with open(os.path.join(path, "index.json")) as f:
        index = json.load(f)
    with open(os.path.join(path, "data.bin"), "rb") as f:
        for entry in index:
            if tid is not None and not (entry["tid_min"] <= tid
                                        <= entry["tid_max"]):
                continue
            if ts_min is not None and entry["ts_max"] < ts_min \
                    and entry["tid_min"] == entry["tid_max"]:
                continue
            f.seek(entry["offset"])
            raw = zlib.decompress(f.read(entry["length"]))
            arr = np.frombuffer(raw, dtype=[("tid", "<i4"), ("ts", "<i8"),
                                            ("value", "<f4")])
            yield pd.DataFrame({"tid": arr["tid"], "ts": arr["ts"],
                                "value": arr["value"]})


def read_all(spark: SparkSession, path: str) -> DataFrame:
    pdf = pd.concat(list(_iter_chunks(path)), ignore_index=True)
    return spark.createDataFrame(pdf)


def pr_query(path: str, tid: Optional[int], ts_min: int,
             ts_max: int) -> pd.DataFrame:
    """Index-pruned point/range read (Cassandra's strong suit)."""
    frames = []
    for chunk in _iter_chunks(path, tid, ts_min, ts_max):
        sel = (chunk["ts"] >= ts_min) & (chunk["ts"] <= ts_max)
        if tid is not None:
            sel &= chunk["tid"] == tid
        if sel.any():
            frames.append(chunk[sel])
    if not frames:
        return pd.DataFrame({"tid": [], "ts": [], "value": []})
    return pd.concat(frames, ignore_index=True)
