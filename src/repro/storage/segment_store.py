"""The on-disk segment group store: custom ``.mdb`` files (DESIGN.md §2).

Replaces the paper's Cassandra segment table.  Layout of a store
directory::

    store/
      tsmeta.parquet        # Time Series table (tid, gid, bitpos, scaling,
                            #   si, <dimension columns>)
      model.json            # Model table: mid → model-type name
      segments/
        part-00000.mdb      # packed Segment records (core/segment.py)
        part-00000.json     # footer: count, Gids, min start_time,
                            #   max end_time

Segments are partitioned across ``.mdb`` files by the worker assignment
from ``dims/partitioner.py`` — one file per (virtual) worker, mirroring
the paper's one-node-per-group placement.  The JSON footers provide the
pruning statistics Cassandra's primary-key index gives ModelarDB+:
reads with Gid or time predicates skip whole files, and
:func:`read_file` filters the segments of the files that remain.  Files
are the unit of pruning, not of scan parallelism: the ``modelardb``
reader packs the files that remain into partitions by their footers'
segment counts (``datasource.py``).
"""
from __future__ import annotations

import json
import os
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import pandas as pd

from ..core.model_types import by_mid, registered_mids
from ..core.segment import Segment, pack, unpack
from ..dims.partitioner import partition_groups


def write_store(segments: Sequence[Segment], meta: pd.DataFrame, path: str,
                n_workers: int = 4) -> None:
    """Persist segments + time series metadata as a store directory."""
    os.makedirs(os.path.join(path, "segments"), exist_ok=True)
    meta.to_parquet(os.path.join(path, "tsmeta.parquet"), index=False)
    with open(os.path.join(path, "model.json"), "w") as f:
        json.dump({str(m): by_mid(m).name for m in registered_mids()}, f)
    assignment = partition_groups(meta, n_workers)
    by_worker: Dict[int, List[Segment]] = {}
    for s in segments:
        by_worker.setdefault(assignment.get(s.gid, 0), []).append(s)
    for worker in range(n_workers):
        segs = sorted(by_worker.get(worker, []),
                      key=lambda s: (s.gid, s.end_time, s.gaps))
        base = os.path.join(path, "segments", f"part-{worker:05d}")
        with open(base + ".mdb", "wb") as f:
            f.write(pack(segs))
        footer = {
            "count": len(segs),
            "start_time_min": min((s.start_time for s in segs), default=0),
            "end_time_max": max((s.end_time for s in segs), default=0),
            "gids": sorted({s.gid for s in segs}),
        }
        with open(base + ".json", "w") as f:
            json.dump(footer, f)


def store_bytes(path: str) -> int:
    """Total segment storage footprint (the compression metric of §VII)."""
    total = 0
    seg_dir = os.path.join(path, "segments")
    for name in os.listdir(seg_dir):
        if name.endswith(".mdb"):
            total += os.path.getsize(os.path.join(seg_dir, name))
    return total


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
        if footer["count"] == 0:
            continue
        if gids is not None and not (set(gids) & set(footer["gids"])):
            continue
        if (min_end_time is not None
                and footer["end_time_max"] < min_end_time):
            continue
        if (max_start_time is not None
                and footer["start_time_min"] > max_start_time):
            continue
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
              max_start_time: Optional[int] = None) -> Iterator[Segment]:
    """The segments of one ``.mdb`` file that match the predicates."""
    gid_set = set(gids) if gids is not None else None
    with open(fname, "rb") as f:
        data = f.read()
    for seg in unpack(data):
        if gid_set is not None and seg.gid not in gid_set:
            continue
        if min_end_time is not None and seg.end_time < min_end_time:
            continue
        if max_start_time is not None and seg.start_time > max_start_time:
            continue
        yield seg


def read_segments(path: str, gids: Optional[Sequence[int]] = None,
                  min_end_time: Optional[int] = None,
                  max_start_time: Optional[int] = None) -> Iterable[Segment]:
    """Scan the store with residual per-segment filtering."""
    for fname in list_files(path, gids, min_end_time, max_start_time):
        yield from read_file(fname, gids, min_end_time, max_start_time)


def read_tsmeta(path: str) -> pd.DataFrame:
    return pd.read_parquet(os.path.join(path, "tsmeta.parquet"))
