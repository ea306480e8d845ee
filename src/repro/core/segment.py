"""Segment record and binary (de)serialisation (paper §II, §III-C).

A segment represents a bounded interval of a time series *group* with a
single model.  Following the paper's storage schema (Fig. 6, adapted for
Cassandra): the on-disk record stores ``Gid``, ``EndTime``, ``SI``,
``Size`` (number of timestamps; ``StartTime`` is derived as
``EndTime - (Size - 1) * SI`` to save space), the model type ``Mid``,
the ``Gaps`` bitmask (bit *i* set ⇔ the group's *i*-th series — in
sorted-Tid order — has a gap and is absent from this segment), and the
model's parameter blob.

Binary layout per record (little-endian):
``gid:i4  end_time:i8  si:i4  size:i4  mid:u1  gaps:u8  plen:u4  params``
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List

_HDR = struct.Struct("<iqiiBQI")
HEADER_BYTES = _HDR.size  # 33 bytes of metadata per segment
_GAP_BITS = (1 << 64) - 1


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
        # A gap mask read back from Spark's signed long is unsigned again.
        object.__setattr__(self, "gaps", int(self.gaps) & _GAP_BITS)

    @property
    def byte_size(self) -> int:
        """Total storage footprint of this segment on disk."""
        return HEADER_BYTES + len(self.params)

    def timestamps(self):
        """The regular timestamps this segment represents."""
        import numpy as np

        return self.start_time + self.si * np.arange(self.size, dtype=np.int64)


def pack(segments: List[Segment]) -> bytes:
    out = bytearray()
    for s in segments:
        assert s.start_time == s.end_time - (s.size - 1) * s.si, s
        out += _HDR.pack(s.gid, s.end_time, s.si, s.size, s.mid, s.gaps,
                         len(s.params))
        out += s.params
    return bytes(out)


def unpack(data: bytes) -> Iterator[Segment]:
    pos = 0
    n = len(data)
    while pos < n:
        gid, end_time, si, size, mid, gaps, plen = _HDR.unpack_from(data, pos)
        pos += _HDR.size
        params = data[pos:pos + plen]
        pos += plen
        yield Segment(gid, end_time - (size - 1) * si, end_time, si, size,
                      mid, gaps, params)
