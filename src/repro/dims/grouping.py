"""Static grouping (Algorithm 1) and the value-based baseline (paper §IV, §VII).

:func:`group_time_series` reproduces Algorithm 1: start from singleton
groups and, for each correlation clause in user order, merge group pairs
whose union satisfies the clause, judged from the unions of the groups'
member sets.  As the union covers *all* series of both groups, the result
is a clique partition — correlation is not transitive — without the full
correlation graph.  One pass per clause reaches the fixed point, because
every atom is monotone (see :class:`~repro.dims.primitives.Atom`).

:func:`value_based_baseline` is the evaluation's offline baseline that
groups series with equal (rounded) min and max values, splitting groups
larger than ``MAX_GROUP_SIZE`` series (the gap-bitmask width).

Every grouping returns through :func:`_assign`, the one place that
turns groups into ``gid`` and ``bitpos``.
"""
from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pandas as pd

from ..core.segment import MAX_GROUP_SIZE
from .dimensions import Dimension, member_sets
from .primitives import Clause


def _assign(meta: pd.DataFrame, groups: Sequence[Sequence[int]]
            ) -> pd.DataFrame:
    """``meta`` + ``gid`` (1-based, in group order) and ``bitpos`` (the
    rank of the series' Tid within its group — the bit it occupies in
    segment gap masks).  ``groups`` lists row positions of ``meta``."""
    out = meta.reset_index(drop=True).copy()
    gid = np.zeros(len(out), dtype=np.int64)
    for g, rows in enumerate(groups, start=1):
        gid[rows] = g
    out["gid"] = gid
    out["bitpos"] = (out.groupby("gid")["tid"].rank(method="first")
                     .astype(np.int64) - 1)
    return out


def group_time_series(meta: pd.DataFrame, dims: Sequence[Dimension],
                      clauses: Sequence[Clause],
                      ) -> Tuple[pd.DataFrame, float]:
    """Assign every series a ``gid`` and ``bitpos`` (Algorithm 1).

    Returns ``(meta + [gid, bitpos], grouping_seconds)``.
    """
    t0 = time.perf_counter()
    meta = meta.reset_index(drop=True)
    tests = [cl.resolve(dims) for cl in clauses]
    groups = [[i] for i in range(len(meta))]
    sets = [member_sets(meta, [i], dims) for i in range(len(meta))]
    for test in tests:
        i = 0
        while i < len(groups):
            j = i + 1
            while j < len(groups):
                a, b = groups[i], groups[j]
                union = {c: s | sets[j][c] for c, s in sets[i].items()}
                if len(a) + len(b) <= MAX_GROUP_SIZE and test(union):
                    groups[i], sets[i] = a + b, union
                    del groups[j], sets[j]
                else:
                    j += 1
            i += 1
    return _assign(meta, groups), time.perf_counter() - t0


def singleton_groups(meta: pd.DataFrame) -> pd.DataFrame:
    """Grouping disabled (MDB+-G): every series is its own group."""
    return _assign(meta, [[i] for i in range(len(meta))])


def value_based_baseline(meta: pd.DataFrame, points: pd.DataFrame
                         ) -> pd.DataFrame:
    """Offline baseline: group series with equal min/max, rounded to
    integers (§VII-C).

    Requires a full pass over the data set (its stated drawback); groups
    above the bitmask width are split.
    """
    stats = points.groupby("tid")["value"].agg(["min", "max"]).round()
    row = {int(t): i for i, t in enumerate(meta["tid"])}
    by_key: Dict[tuple, List[int]] = {}
    for tid, k in zip(stats.index, zip(stats["min"], stats["max"])):
        by_key.setdefault(k, []).append(row[int(tid)])
    return _assign(meta, [rows[s:s + MAX_GROUP_SIZE]
                          for _, rows in sorted(by_key.items())
                          for s in range(0, len(rows), MAX_GROUP_SIZE)])


def group_summary(meta: pd.DataFrame) -> Tuple[int, float]:
    """(number of groups, average group size) — reported throughout §VII."""
    sizes = meta.groupby("gid").size()
    return len(sizes), float(sizes.mean())
