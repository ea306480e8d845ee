"""The on-disk segment group store: custom ``.mdb`` files (DESIGN.md §2).

Replaces the paper's Cassandra segment table.  Layout of a store
directory::

    store/
      tsmeta.parquet        # Time Series table (tid, gid, bitpos, scaling,
                            #   si, <dimension columns>)
      model.json            # Model table: mid → model-type name, checked
                            #   against the registry (check_models)
      segments/
        part-00000.mdb      # zlib level 1 over the Arrow columns of
                            #   its schema.FILE_SCHEMA rows, in (gid,
                            #   end_time, gaps) order, and their count
        part-00000.json     # footer: count, Gids, min start_time,
                            #   max end_time

Segments are partitioned across ``.mdb`` files by the worker assignment
from ``dims/partitioner.py`` — one file per (virtual) worker, mirroring
the paper's one-node-per-group placement.  The JSON footers provide the
pruning statistics Cassandra's primary-key index gives ModelarDB+:
reads with Gid or time predicates skip whole files, and
:func:`read_file` filters the rows of the files that remain.  Files
are the unit of pruning, not of scan parallelism: the ``modelardb``
reader packs the files that remain into partitions by their footers'
segment counts (``datasource.py``).

Each ``.mdb`` file is compressed whole with zlib at level 1, as the
Cassandra stand-in compresses its chunks (``baselines/cassandra_sim.py``):
Cassandra compresses its SSTables with LZ4, and zlib level 1 is in LZ4's
ratio class.  The zlib stream's Adler-32 check makes a corrupted or
truncated file raise on read, and ``schema.from_file_bytes`` a cut one.
"""
from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.model_types import by_mid, registered_mids
from ..core.segment import Segment
from ..dims.partitioner import partition_groups
from .schema import from_file_bytes, segment_columns, to_file_bytes

#: zlib level of the ``.mdb`` files: the Cassandra stand-in's level.
ZLIB_LEVEL = 1


def _model_table() -> Dict[str, str]:
    """The registry as the Model table: Mid (a JSON key) → type name."""
    return {str(m): by_mid(m).name for m in registered_mids()}


def write_store(segments: Sequence[Segment], meta: pd.DataFrame, path: str,
                n_workers: int = 4) -> None:
    """Persist segments + time series metadata as a store directory.  A
    segment of a Gid not in ``meta`` (no view shows it), or whose
    ``start_time`` is not ``end_time - (size - 1) * si``, raises ValueError."""
    cols = segment_columns(segments)
    gid, start, end = cols["gid"], cols["start_time"], cols["end_time"]
    worker = pd.Series(partition_groups(meta, n_workers),
                       dtype=float).reindex(gid).to_numpy()
    for bad, what in ((np.isnan(worker), "of a Gid not in meta"), (
            start != end - (cols["size"] - 1).astype(np.int64) * cols["si"],
            "of inconsistent times")):
        if bad.any():
            raise ValueError(f"segment {what}: {segments[np.argmax(bad)]}")
    order = np.lexsort((cols["gaps"].view(np.uint64), end, gid, worker))
    bounds = np.searchsorted(worker[order], np.arange(n_workers + 1))

    os.makedirs(os.path.join(path, "segments"), exist_ok=True)
    meta.to_parquet(os.path.join(path, "tsmeta.parquet"), index=False)
    with open(os.path.join(path, "model.json"), "w") as f:
        json.dump(_model_table(), f)
    for w in range(n_workers):
        rows = order[bounds[w]:bounds[w + 1]]
        base = os.path.join(path, "segments", f"part-{w:05d}")
        with open(base + ".mdb", "wb") as f:
            f.write(zlib.compress(to_file_bytes(
                {name: c[rows] for name, c in cols.items()}), ZLIB_LEVEL))
        some = len(rows) > 0
        with open(base + ".json", "w") as f:
            json.dump({"count": len(rows),
                       "start_time_min": int(start[rows].min()) if some else 0,
                       "end_time_max": int(end[rows].max()) if some else 0,
                       "gids": np.unique(gid[rows]).tolist()}, f)


def check_models(path: str) -> None:
    """Check the store's Model table against the model-type registry.

    A stored Mid the registry lacks, or gives another type name, raises
    ``ValueError`` naming it: its segments would decode wrongly."""
    with open(os.path.join(path, "model.json")) as f:
        stored = json.load(f)
    names = _model_table()
    for mid, name in stored.items():
        if names.get(mid) != name:
            raise ValueError(f"{path}: Mid {mid} is {name!r} in the store's "
                             f"Model table, {names.get(mid)!r} here")


def store_bytes(path: str) -> int:
    """Total segment storage footprint (the compression metric of §VII)."""
    seg_dir = os.path.join(path, "segments")
    return sum(os.path.getsize(os.path.join(seg_dir, name))
               for name in os.listdir(seg_dir) if name.endswith(".mdb"))


def list_footers(path: str, gids: Optional[Sequence[int]] = None,
                 min_end_time: Optional[int] = None,
                 max_start_time: Optional[int] = None
                 ) -> List[Tuple[str, dict]]:
    """Predicate push-down: the footer-pruned .mdb files, in name order,
    each with its footer."""
    seg_dir = os.path.join(path, "segments")
    out = []
    for name in sorted(os.listdir(seg_dir)):
        if not name.endswith(".mdb"):
            continue
        with open(os.path.join(seg_dir, name[:-4] + ".json")) as f:
            footer = json.load(f)
        if (footer["count"]
                and (gids is None or set(gids) & set(footer["gids"]))
                and (min_end_time is None
                     or footer["end_time_max"] >= min_end_time)
                and (max_start_time is None
                     or footer["start_time_min"] <= max_start_time)):
            out.append((os.path.join(seg_dir, name), footer))
    return out


def list_files(path: str, gids: Optional[Sequence[int]] = None,
               min_end_time: Optional[int] = None,
               max_start_time: Optional[int] = None) -> List[str]:
    """Predicate push-down: footer-pruned list of .mdb files."""
    return [f for f, _ in list_footers(path, gids, min_end_time,
                                       max_start_time)]


def read_file(fname: str, gids: Optional[Sequence[int]] = None,
              min_end_time: Optional[int] = None,
              max_start_time: Optional[int] = None) -> pa.Table:
    """The Segment table rows of one ``.mdb`` file that match the
    predicates; a corrupted or truncated file raises ``zlib.error`` or
    ``ValueError``."""
    inflate = zlib.decompressobj()
    with open(fname, "rb") as f:
        data = inflate.decompress(f.read())
    if not inflate.eof or inflate.unused_data:
        raise ValueError(f"{fname}: truncated, or bytes after its zlib "
                         "stream")
    table = from_file_bytes(data)
    keep = np.ones(table.num_rows, bool)
    if gids is not None:
        keep &= np.isin(table.column("gid").to_numpy(), list(gids))
    if min_end_time is not None:
        keep &= table.column("end_time").to_numpy() >= min_end_time
    if max_start_time is not None:
        keep &= table.column("start_time").to_numpy() <= max_start_time
    return table if keep.all() else table.filter(keep)


def read_segments(path: str, gids: Optional[Sequence[int]] = None,
                  min_end_time: Optional[int] = None,
                  max_start_time: Optional[int] = None) -> Iterable[Segment]:
    """Scan the store with residual per-segment filtering."""
    for fname in list_files(path, gids, min_end_time, max_start_time):
        table = read_file(fname, gids, min_end_time, max_start_time)
        yield from (Segment(*row) for row in zip(*(
            c.to_numpy(zero_copy_only=False).tolist() for c in table.columns)))


def read_tsmeta(path: str) -> pd.DataFrame:
    return pd.read_parquet(os.path.join(path, "tsmeta.parquet"))
