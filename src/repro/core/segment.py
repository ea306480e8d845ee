"""Segment record (paper §II, §III-C).

A segment represents a bounded interval of a time series *group* with a
single model.  Following the paper's storage schema (Fig. 6, adapted for
Cassandra): the stored row (``storage/schema.py``) holds ``Gid``,
``EndTime``, ``SI``, ``Size`` (number of timestamps; ``StartTime`` is
derived as ``EndTime - (Size - 1) * SI`` to save space), the model type
``Mid``, the ``Gaps`` bitmask (bit *i* set ⇔ the group's *i*-th series —
in sorted-Tid order — has a gap and is absent from this segment), and
the model's parameter blob.

:func:`gap_mask` writes the gap mask and :func:`gap_rank` reads arrays
of masks, unsigned or as Spark's signed ``long``.  Only the Segment
View's Spark filter and the reference ``golemm.reconstruct_segment``
read the bits themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Bytes of metadata per stored segment, by which GOLEMM costs segments:
#: gid 4, end_time 8, si 4, size 4, mid 1, gaps 8 and a params offset 4.
#: ``test_segment_store.py`` checks them against ``schema.FILE_SCHEMA``.
HEADER_BYTES = 33
#: Most series in one group: one bit each in the 64-bit gap mask (§III-C).
MAX_GROUP_SIZE = 64
_GAP_BITS = (1 << MAX_GROUP_SIZE) - 1


def gap_mask(present: Iterable[int], group_size: int) -> int:
    """Gap mask of a segment storing the series at positions ``present``."""
    return ((1 << group_size) - 1) ^ sum(1 << int(b) for b in present)


def gap_rank(gaps, pos) -> np.ndarray:
    """Number of gap bits below each position 0…64, one per mask: a
    segment stores ``group_size − gap_rank(gaps, group_size)`` series, and
    the one at ``bitpos`` is column ``bitpos − gap_rank(gaps, bitpos)``."""
    words, pos = np.asarray(gaps), np.asarray(pos, np.int64).reshape(-1)
    if words.dtype.kind not in "iu" or not np.all(
            (pos >= 0) & (pos <= MAX_GROUP_SIZE)):
        raise ValueError("gap masks are integers; positions lie in 0…64")
    bits = np.unpackbits(words.astype("<u8").reshape(-1).view(np.uint8)
                         .reshape(-1, 8), axis=1, bitorder="little")
    below = np.arange(MAX_GROUP_SIZE) < pos[:, None]
    return (bits & below).sum(axis=1, dtype=np.int64)


def series_present(gaps, bitpos) -> np.ndarray:
    """Whether each series' gap bit is unset: it is stored in the segment."""
    return gap_rank(gaps, np.add(bitpos, 1)) == gap_rank(gaps, bitpos)


@dataclass(frozen=True)
class Segment:
    gid: int
    start_time: int
    end_time: int
    si: int
    size: int          # number of timestamps represented
    mid: int
    gaps: int          # bitmask of absent series (sorted-Tid bit order)
    params: bytes

    def __post_init__(self):
        # Spark rows (signed gaps, bytearray params) work as Segment(*row).
        object.__setattr__(self, "gaps", int(self.gaps) & _GAP_BITS)
        object.__setattr__(self, "params", bytes(self.params))

    @property
    def byte_size(self) -> int:
        """Total storage footprint of this segment on disk."""
        return HEADER_BYTES + len(self.params)

    def timestamps(self):
        """The regular timestamps this segment represents."""
        return self.start_time + self.si * np.arange(self.size, dtype=np.int64)

