"""Algorithm 2: dynamically splitting (and re-merging) groups (paper §IV-D).

When a group's time series become temporarily uncorrelated (e.g. a
damaged turbine), compressing them together produces poor segments.
GOLEMM reacts with two heuristics: (i) a freshly emitted segment whose
compression ratio is below ``avg / SPLIT_FRACTION`` triggers Algorithm 2,
which re-clusters the series by whether their buffered data points are
pairwise within *twice* the user-defined error bound; (ii) split groups
are re-merged when their representatives are within ``2ε`` again, with a
doubling backoff on failed merge attempts.
"""
from __future__ import annotations

from typing import List

import numpy as np


def cluster_within_double_bound(V: np.ndarray, delta: np.ndarray,
                                series: np.ndarray) -> List[np.ndarray]:
    """Algorithm 2's grouping step.

    ``V``/``delta`` are (window, n) matrices of buffered values and
    per-value bounds for the ``n`` series listed (by index) in
    ``series``.  Returns a partition of ``series``: greedily seed a new
    group with the first unassigned series and pull in every series
    whose buffered points are all within the summed bounds (≈ 2ε) of the
    seed's — mirroring ``allWithinDoubleBound`` in the paper.
    """
    remaining = list(range(V.shape[1]))
    out: List[np.ndarray] = []
    while remaining:
        seed = remaining[0]
        members = []
        rest = []
        for j in remaining:
            if np.all(np.abs(V[:, j] - V[:, seed]) <=
                      (delta[:, j] + delta[:, seed])):
                members.append(j)
            else:
                rest.append(j)
        out.append(series[np.asarray(members, dtype=np.int64)])
        remaining = rest
    return out


def representatives_mergeable(V: np.ndarray, delta: np.ndarray,
                              reps: List[int]) -> List[List[int]]:
    """Merge check over one representative per split group (§IV-D).

    Only one series per group is compared because each group's series
    are already mutually correlated (otherwise a split would have
    occurred).  Returns clusters over group indices.
    """
    remaining = list(range(len(reps)))
    clusters: List[List[int]] = []
    while remaining:
        seed_g = remaining[0]
        members, rest = [], []
        for g in remaining:
            a, b = reps[seed_g], reps[g]
            if np.all(np.abs(V[:, b] - V[:, a]) <=
                      (delta[:, b] + delta[:, a])):
                members.append(g)
            else:
                rest.append(g)
        clusters.append(members)
        remaining = rest
    return clusters
