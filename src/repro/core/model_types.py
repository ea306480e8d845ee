"""Model-type interface and registry (paper §II, §III-A, §V).

A *model type* knows how to fit a model to a prefix of a buffered time
series group within a per-value error bound, how to serialise the model's
parameters to a compact blob, and how to reconstruct the represented
values.  Aggregates over runs of a segment's points come from
:meth:`ModelType.partials`, which decodes through ``reconstruct``; the
constant and linear types override it with closed forms that take
constant time per run (paper §VI).

All fitting operates on a *group value matrix* ``V`` of shape
``(n_timestamps, n_series)`` containing the scaled values of the group's
currently active series, plus a matching matrix ``delta`` of per-value
allowed deviations (``delta = eps_pct/100 * |v|`` — ModelarDB's relative
error bound; ``eps_pct == 0`` degenerates to lossless).

The registry maps integer Mids to model types, mirroring the paper's
``Model`` table (Mid → Java classpath).  User-defined model types are
added with :func:`register` without touching the rest of the system.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

# Canonical Mids used across the storage schema and query layer.
MID_PMC_MEAN = 1
MID_SWING = 2
MID_GORILLA = 3
MID_FALLBACK = 4
MID_PMC_MR = 5


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one model type to a buffer prefix.

    ``length`` is the number of leading timestamps the model represents
    (0 = the type cannot represent even the first timestamp's values).
    ``params`` is the serialised model blob for that prefix; ``None``
    when ``length == 0``.
    """

    length: int
    params: Optional[bytes]

    @property
    def size_bytes(self) -> int:
        return len(self.params) if self.params is not None else 0


class Columns(NamedTuple):
    """A batch of segment columns, one array entry per column.

    Entry ``i`` is column ``col[i]`` of the value matrix of a segment
    with model ``mid[i]`` and parameters ``params[i]``, which stores
    ``n_series[i]`` series at the ``size[i]`` timestamps
    ``start[i] + si[i] * j``.  Its values in the query domain are the
    model's values times ``scaling[i]``.
    """

    mid: np.ndarray
    params: np.ndarray
    start: np.ndarray
    si: np.ndarray
    size: np.ndarray
    n_series: np.ndarray
    col: np.ndarray
    scaling: np.ndarray


class ModelType:
    """Base class; a concrete type overrides ``fit`` and ``reconstruct``,
    and may override ``partials`` with a closed form."""

    mid: int = -1
    name: str = "abstract"
    lossless: bool = False

    def fit(self, ts: np.ndarray, V: np.ndarray, delta: np.ndarray,
            length_bound: int) -> FitResult:
        """Fit a model to the longest representable prefix of (ts, V)."""
        raise NotImplementedError

    def reconstruct(self, params: bytes, ts: np.ndarray, n_series: int) -> np.ndarray:
        """Return the (len(ts), n_series) matrix of represented values."""
        raise NotImplementedError

    def column(self, cols: Columns, i: int) -> np.ndarray:
        """Model-domain values of column ``i`` of ``cols`` (float32)."""
        ts = cols.start[i] + cols.si[i] * np.arange(cols.size[i],
                                                    dtype=np.int64)
        V = self.reconstruct(cols.params[i], ts, int(cols.n_series[i]))
        return V[:, cols.col[i]]

    def partials(self, cols: Columns, row: np.ndarray, first: np.ndarray,
                 count: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sum, min and max of the query-domain values of a batch of pieces.

        Piece ``k`` is the points ``[first[k], first[k] + count[k])`` of
        column ``row[k]`` of ``cols``, a column of this model type, with
        ``count[k] >= 1``.  This default decodes each column once with
        :meth:`reconstruct`, so a type needs only ``fit`` and
        ``reconstruct`` to be queried.
        """
        rows, inv = np.unique(row, return_inverse=True)
        vals = [self.column(cols, i).astype(np.float64) * cols.scaling[i]
                for i in rows]
        begin = np.cumsum([0] + [len(v) for v in vals])[inv] + first
        end = begin + count
        # A trailing value keeps a piece's end a valid reduceat index.
        flat = np.concatenate(vals + [np.zeros(1)])
        bounds = np.stack([begin, end], axis=1).ravel()
        # np.add.reduceat adds in another order than ndarray.sum; summing
        # piece by piece keeps a whole column's sum that of its values.
        sums = np.array([flat[a:b].sum() for a, b in zip(begin, end)])
        return (sums, np.minimum.reduceat(flat, bounds)[::2],
                np.maximum.reduceat(flat, bounds)[::2])


_REGISTRY: Dict[int, ModelType] = {}


def register(model_type: ModelType) -> None:
    """Register a model type under its Mid (paper's Model table)."""
    _REGISTRY[model_type.mid] = model_type


def by_mid(mid: int) -> ModelType:
    return _REGISTRY[mid]


def registered_mids() -> Tuple[int, ...]:
    return tuple(sorted(_REGISTRY))


def registry() -> Dict[int, ModelType]:
    """A copy of the registry, Mid → model type, to ship to workers."""
    return dict(_REGISTRY)


def first_false(valid: np.ndarray) -> int:
    """Length of the leading all-True prefix of a boolean array."""
    if valid.all():
        return len(valid)
    return int(np.argmax(~valid))
