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

An atom is resolved once, before any pair is judged, to a test over the
member sets of a union of groups; an unknown dimension, a level outside
its hierarchy or a weight outside (0, ∞) raises ``ValueError`` there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .dimensions import Dimension, auto_distance, distance, lca_level


def find_dimension(dims: Sequence[Dimension], name: str) -> Dimension:
    """The dimension called ``name``; ``ValueError`` if ``dims`` has none."""
    for d in dims:
        if d.name == name:
            return d
    raise ValueError(f"unknown dimension {name!r}; "
                     f"known: {[d.name for d in dims]}")


class Atom:
    """A condition on a union of two groups, which :meth:`resolve` turns
    into a test over the union's member sets.  Algorithm 1's one pass per
    clause needs it monotone (a rejected union stays rejected when a group
    grows); it is, as a test asks for small member sets, which only grow."""

    def resolve(self, dims: Sequence[Dimension]):
        raise NotImplementedError


@dataclass(frozen=True)
class Sources(Atom):
    sources: Tuple[str, ...]

    def resolve(self, dims):
        want = frozenset(self.sources)
        return lambda sets: sets["source"] <= want


@dataclass(frozen=True)
class Member(Atom):
    dimension: str
    level: int
    member: str

    def resolve(self, dims):
        col = find_dimension(dims, self.dimension).column_for_level(self.level)
        want = frozenset((self.member,))
        return lambda sets: sets[col] == want


@dataclass(frozen=True)
class Level(Atom):
    dimension: str
    level: int  # >=1: LCA >= level; 0: all equal; -k: all but lowest k equal

    def resolve(self, dims):
        dim = find_dimension(dims, self.dimension)
        if not -dim.n_levels <= self.level <= dim.n_levels:
            raise ValueError(f"level {self.level} outside "
                             f"-{dim.n_levels}..{dim.n_levels} of {dim.name}")
        need = self.level if self.level > 0 else dim.n_levels + self.level
        return lambda sets: lca_level(sets, dim) >= need


@dataclass(frozen=True)
class Distance(Atom):
    threshold: float
    weights: Optional[Dict[str, float]] = None

    @staticmethod
    def auto(dims: Sequence[Dimension],
             weights: Optional[Dict[str, float]] = None) -> "Distance":
        return Distance(auto_distance(dims), weights)

    def resolve(self, dims):
        for name, w in (self.weights or {}).items():
            find_dimension(dims, name)
            if not 0 < float(w) < float("inf"):
                raise ValueError(f"weight of {name!r} must be in (0, ∞): {w}")
        limit = self.threshold + 1e-12
        return lambda sets: distance(sets, dims, self.weights) <= limit


@dataclass(frozen=True)
class Clause:
    """AND-combination of atoms; a clause list is OR'ed in order."""

    atoms: Tuple[Atom, ...]

    def resolve(self, dims):
        tests = [a.resolve(dims) for a in self.atoms]
        return lambda sets: all(t(sets) for t in tests)


def clause(*atoms: Atom) -> Clause:
    return Clause(tuple(atoms))
