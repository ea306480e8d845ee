"""Grouping primitives: the user-facing correlation clauses (paper §IV-B).

Users specify which time series to group as a list of *correlation
clauses* (applied in order, so earlier clauses have priority).  Each
clause is a conjunction (AND) of atoms; the clause list itself acts as
OR.  Atoms:

* :class:`Sources` — explicit set of series sources, e.g.
  ``4aTemp.gz 4bTemp.gz``.  A series' scaling constant comes from the
  Time Series table's ``scaling`` column, not from the clause.
* :class:`Member` — ``(dimension, level, member)``: series must all have
  ``member`` at ``level`` of ``dimension`` (e.g. ``Measure 1
  Temperature``).
* :class:`Level` — ``(dimension, lca_level)``: the groups' LCA level
  must be ≥ the given level; ``0`` means *all* levels equal; a negative
  ``-k`` means all but the lowest ``k`` levels equal.
* :class:`Distance` — dimension distance ≤ threshold ∈ [0, 1], with
  optional per-dimension weights; ``Distance.auto(dims)`` resolves the
  paper's ``auto`` to the lowest non-zero distance.

An atom naming an unknown dimension or level raises ``ValueError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import pandas as pd

from .dimensions import Dimension, auto_distance, distance, lca_level


def find_dimension(dims: Sequence[Dimension], name: str) -> Dimension:
    """The dimension called ``name``; ``ValueError`` if ``dims`` has none."""
    for d in dims:
        if d.name == name:
            return d
    raise ValueError(f"unknown dimension {name!r}; "
                     f"known: {[d.name for d in dims]}")


class Atom:
    """A condition on the union of two groups.  It must be monotone: a
    rejected union stays rejected when either group grows, which
    Algorithm 1's one pass per clause relies on.  A larger union has a
    shallower LCA, a larger distance and less uniform sources/members."""

    def correlated(self, meta: pd.DataFrame, dims: Sequence[Dimension],
                   rows_a, rows_b) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Sources(Atom):
    sources: Tuple[str, ...]

    def correlated(self, meta, dims, rows_a, rows_b):
        want = set(self.sources)
        got = set(meta["source"].iloc[list(rows_a) + list(rows_b)])
        return got <= want


@dataclass(frozen=True)
class Member(Atom):
    dimension: str
    level: int
    member: str

    def correlated(self, meta, dims, rows_a, rows_b):
        dim = find_dimension(dims, self.dimension)
        col = dim.column_for_level(self.level)
        vals = set(meta[col].iloc[list(rows_a) + list(rows_b)])
        return vals == {self.member}


@dataclass(frozen=True)
class Level(Atom):
    dimension: str
    level: int  # >=1: LCA >= level; 0: all equal; -k: all but lowest k equal

    def correlated(self, meta, dims, rows_a, rows_b):
        dim = find_dimension(dims, self.dimension)
        if not -dim.n_levels <= self.level <= dim.n_levels:
            raise ValueError(f"level {self.level} outside "
                             f"-{dim.n_levels}..{dim.n_levels} of {dim.name}")
        need = self.level if self.level > 0 else dim.n_levels + self.level
        return lca_level(meta, dim, rows_a, rows_b) >= need


@dataclass(frozen=True)
class Distance(Atom):
    threshold: float
    weights: Optional[Dict[str, float]] = None

    @staticmethod
    def auto(dims: Sequence[Dimension],
             weights: Optional[Dict[str, float]] = None) -> "Distance":
        return Distance(auto_distance(dims), weights)

    def correlated(self, meta, dims, rows_a, rows_b):
        for name in self.weights or ():
            find_dimension(dims, name)
        return distance(meta, dims, rows_a, rows_b,
                        self.weights) <= self.threshold + 1e-12


@dataclass(frozen=True)
class Clause:
    """AND-combination of atoms; a clause list is OR'ed in order."""

    atoms: Tuple[Atom, ...]

    def correlated(self, meta, dims, rows_a, rows_b) -> bool:
        return all(a.correlated(meta, dims, rows_a, rows_b)
                   for a in self.atoms)


def clause(*atoms: Atom) -> Clause:
    return Clause(tuple(atoms))
