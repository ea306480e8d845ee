"""Algorithm 2: dynamically splitting (and re-merging) groups (paper §IV-D).

When a group's time series become temporarily uncorrelated (e.g. a
damaged turbine), compressing them together produces poor segments.
GOLEMM reacts with two heuristics: (i) a freshly emitted segment whose
compression ratio is below ``avg / SPLIT_FRACTION`` triggers Algorithm 2,
which re-clusters the series by whether their buffered data points are
pairwise within *twice* the user-defined error bound; (ii) split groups
are re-merged when their representatives are within ``2ε`` again, with a
doubling backoff on failed merge attempts.

Both steps are one clustering routine, :func:`cluster_within_double_bound`:
:func:`~repro.core.golemm.compress_chunk` calls it on a sub-group's
columns to split, and on one representative column per sub-group,
labelled by sub-group index, to merge.
"""
from __future__ import annotations

from typing import List

import numpy as np


def cluster_within_double_bound(V: np.ndarray, delta: np.ndarray,
                                series: np.ndarray) -> List[np.ndarray]:
    """Algorithm 2's grouping step.

    ``V``/``delta`` are (window, n) matrices of buffered values and
    per-value bounds for the ``n`` columns labelled by ``series``.
    Returns a partition of ``series``: greedily seed a new cluster with
    the first unassigned column and pull in every column whose buffered
    points are all within the summed bounds (≈ 2ε) of the seed's —
    mirroring ``allWithinDoubleBound`` in the paper.
    """
    remaining = np.arange(V.shape[1])
    out: List[np.ndarray] = []
    while len(remaining):
        seed = remaining[:1]
        near = (np.abs(V[:, remaining] - V[:, seed])
                <= delta[:, remaining] + delta[:, seed]).all(axis=0)
        near[0] = True  # the seed, even when inf - inf is NaN
        out.append(series[remaining[near]])
        remaining = remaining[~near]
    return out
