"""Static grouping (Algorithm 1) and the value-based baseline (paper §IV, §VII).

:func:`group_time_series` reproduces Algorithm 1: start from singleton
groups and, for each correlation clause in user order, merge group pairs
whose union satisfies the clause until a fixed point.  Because
``correlated`` checks *all* series of both groups, the result is a
clique partition — correlation is not transitive — without
materialising the full correlation graph.

:func:`value_based_baseline` is the evaluation's offline baseline that
groups series with equal (rounded) min and max values, splitting groups
larger than 64 series (the gap-bitmask width).
"""
from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pandas as pd

from .dimensions import Dimension
from .primitives import Clause

MAX_GROUP_SIZE = 64  # 64-bit gap bitmask (paper §III-C)


def group_time_series(meta: pd.DataFrame, dims: Sequence[Dimension],
                      clauses: Sequence[Clause],
                      ) -> Tuple[pd.DataFrame, float]:
    """Assign every series a ``gid`` and ``bitpos`` (Algorithm 1).

    Returns ``(meta + [gid, bitpos], grouping_seconds)``.  ``bitpos`` is
    the series' position in its group's sorted-Tid order — the bit it
    occupies in segment gap masks.
    """
    t0 = time.perf_counter()
    meta = meta.reset_index(drop=True)
    groups: List[List[int]] = [[i] for i in range(len(meta))]
    for cl in clauses:
        modified = True
        while modified:
            modified = False
            i = 0
            while i < len(groups):
                j = i + 1
                while j < len(groups):
                    a, b = groups[i], groups[j]
                    if (len(a) + len(b) <= MAX_GROUP_SIZE
                            and cl.correlated(meta, dims, a, b)):
                        groups[i] = a + b
                        del groups[j]
                        modified = True
                    else:
                        j += 1
                i += 1
    out = meta.copy()
    out["gid"] = 0
    out["bitpos"] = 0
    for gid, rows in enumerate(groups, start=1):
        tids = sorted(int(meta["tid"].iloc[r]) for r in rows)
        order = {t: k for k, t in enumerate(tids)}
        for r in rows:
            out.loc[r, "gid"] = gid
            out.loc[r, "bitpos"] = order[int(meta["tid"].iloc[r])]
    return out, time.perf_counter() - t0


def singleton_groups(meta: pd.DataFrame) -> pd.DataFrame:
    """Grouping disabled (MDB+-G): every series is its own group."""
    out = meta.reset_index(drop=True).copy()
    out["gid"] = np.arange(1, len(out) + 1)
    out["bitpos"] = 0
    return out


def value_based_baseline(meta: pd.DataFrame, points: pd.DataFrame
                         ) -> pd.DataFrame:
    """Offline baseline: group series with equal min/max, rounded to
    integers (§VII-C).

    Requires a full pass over the data set (its stated drawback); groups
    above the bitmask width are split.
    """
    stats = points.groupby("tid")["value"].agg(["min", "max"]).round()
    key = list(zip(stats["min"], stats["max"]))
    by_key: Dict[tuple, List[int]] = {}
    for tid, k in zip(stats.index, key):
        by_key.setdefault(k, []).append(int(tid))
    out = meta.reset_index(drop=True).copy()
    out["gid"] = 0
    out["bitpos"] = 0
    tid_to_row = {int(t): i for i, t in enumerate(out["tid"])}
    gid = 0
    for _, tids in sorted(by_key.items()):
        for chunk_start in range(0, len(tids), MAX_GROUP_SIZE):
            gid += 1
            chunk = sorted(tids[chunk_start:chunk_start + MAX_GROUP_SIZE])
            for k, tid in enumerate(chunk):
                out.loc[tid_to_row[tid], "gid"] = gid
                out.loc[tid_to_row[tid], "bitpos"] = k
    return out


def group_summary(meta: pd.DataFrame) -> Tuple[int, float]:
    """(number of groups, average group size) — reported throughout §VII."""
    sizes = meta.groupby("gid").size()
    return len(sizes), float(sizes.mean())
