"""Dimensions over time series metadata (paper §II).

A dimension is a hierarchy of members with ⊤ at level 0 and the time
series' own member at the lowest level *n*.  In ModelarDB+'s
denormalised schema each dimension contributes one metadata column per
level; here a :class:`Dimension` names those columns from level 1
(just below ⊤) down to level *n*.

Example (running example in the paper): ``Location`` with levels
``Country (1) → Region (2) → Park (3) → Turbine (4)`` is
``Dimension("Location", ("country", "region", "park", "turbine"))``.

Grouping sees a set of series only through its *member sets*: column →
the members the series take there; a union of groups has the unions of
their sets.  Its Lowest Common Ancestor (LCA) level is the deepest level
down to which every level's set holds one member (paper Fig. 7); the LCA
drives the dimension distance used for automatic grouping (§IV-B/C).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

import pandas as pd

MemberSets = Mapping[str, FrozenSet]


@dataclass(frozen=True)
class Dimension:
    """A named hierarchy; ``columns[k-1]`` holds the level-``k`` member."""

    name: str
    columns: Tuple[str, ...]  # level 1 (below ⊤) … level n (lowest)

    @property
    def n_levels(self) -> int:
        return len(self.columns)

    def column_for_level(self, level: int) -> str:
        """1-based level → metadata column (level n = lowest)."""
        if not 1 <= level <= self.n_levels:
            raise ValueError(f"level {level} outside 1..{self.n_levels}")
        return self.columns[level - 1]


def member_sets(meta: pd.DataFrame, rows: Sequence[int],
                dims: Sequence[Dimension]) -> Dict[str, FrozenSet]:
    """Member sets of the series at row positions ``rows`` of ``meta``
    over the columns atoms read: ``source`` and those of ``dims``."""
    cols = ["source"] + [c for d in dims for c in d.columns]
    return {c: frozenset(meta[c].to_numpy()[rows]) for c in cols}


def lca_level(sets: MemberSets, dim: Dimension) -> int:
    """Deepest level of ``dim`` down to which ``sets`` hold one member."""
    shared = [len(sets[c]) == 1 for c in dim.columns] + [False]
    return shared.index(False)


def distance(sets: MemberSets, dims: Sequence[Dimension],
             weights: Dict[str, float] | None = None) -> float:
    """Dimension distance of the series of ``sets`` (§IV-C).

    ``dist = (Σ_d w_d · (levels_d − lca_d)/levels_d) / |D|`` capped at
    1.0, where ``w_d`` is the *reciprocal* of the user-provided weight
    (raising a weight makes its dimension matter more by shrinking its
    contribution, so equal members elsewhere dominate).
    """
    weights = weights or {}
    total = 0.0
    for dim in dims:
        w = 1.0 / float(weights.get(dim.name, 1.0))
        total += w * (dim.n_levels - lca_level(sets, dim)) / dim.n_levels
    return min(total / len(dims), 1.0)


def auto_distance(dims: Sequence[Dimension]) -> float:
    """The lowest non-zero distance possible: ``(1/max(Levels))/|D|``."""
    return (1.0 / max(d.n_levels for d in dims)) / len(dims)
