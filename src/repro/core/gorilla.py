"""Gorilla lossless floating-point compression (32-bit variant).

Implements the XOR-based value compression scheme from Pelkonen et al.,
"Gorilla: A Fast, Scalable, In-Memory Time Series Database" (PVLDB 2015),
adapted to 32-bit floats as used by ModelarDB+ (values are stored as
``float``).  For time series *groups* (paper §V) the values of a segment
are laid out in time-ordered blocks: ``v(t1,s1), v(t1,s2), ..., v(t2,s1),
...`` so both temporal correlation and correlation across the group's
series produce small XORs that encode in few bits.

The bitstream is a sequence of fields written MSB-first, one per value,
zero-padded to a whole byte at the end:
  * first value: its 32 raw bits;
  * XOR with previous value == 0: control bit ``0`` (1 bit total);
  * control bits ``10``: the XOR's meaningful bits fit in the current
    window (its leading and trailing zeros are at least the window's) —
    write the window's ``mb`` bits of the XOR;
  * control bits ``11``: open a new window — 5 bits leading-zero count,
    5 bits (meaningful-bit count − 1), then the meaningful bits.

:func:`_fields` decides every value's field; :func:`encode` packs them
with numpy and :func:`encoded_size_bits` sums their widths.
:func:`decode` reads each field from the 64-bit big-endian word that
starts at the field's byte, so a field (at most 44 bits, plus at most 7
bits of offset) is always read whole.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_MASK64 = (1 << 64) - 1


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every element of a non-negative array below
    2**53 (exact through float64)."""
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


def _fields(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gorilla field of every value: its code and its width in bits."""
    bits = np.ascontiguousarray(values, dtype="<f4").view("<u4").astype(np.int64)
    if len(bits) == 0:
        return bits, bits
    xor = bits[1:] ^ bits[:-1]
    zero = xor == 0
    # A zero XOR gets 33 leading and trailing zeros, so it always fits the
    # current window (and never opens one); a nonzero XOR has at most 31.
    lz = np.where(zero, 33, 32 - _bit_length(xor))
    tz = np.where(zero, 33, _bit_length(xor & -xor) - 1)
    # The window rule: a value reuses the current window iff its leading
    # and trailing zeros are at least the window's, else opens its own.
    opener = []
    win, win_lz, win_tz = 0, 33, 33
    for i, (l, t) in enumerate(zip(lz.tolist(), tz.tolist())):
        if l < win_lz or t < win_tz:
            win, win_lz, win_tz = i, l, t
        opener.append(win)
    opener = np.array(opener, dtype=np.int64)
    new = opener == np.arange(len(xor))
    w_lz = np.where(zero, 0, lz[opener])
    w_tz = np.where(zero, 32, tz[opener])
    mb = 32 - w_lz - w_tz
    head = np.where(new, (0b11 << 10) | (w_lz << 5) | (mb - 1), 0b10)
    codes = np.where(zero, 0, (head << mb) | (xor >> w_tz))
    widths = np.where(zero, 1, np.where(new, 12, 2) + mb)
    return np.r_[bits[:1], codes], np.r_[32, widths]


def encode(values: np.ndarray) -> bytes:
    """Compress a 1-D float32 array losslessly; returns the bitstream."""
    codes, widths = _fields(values)
    ends = np.cumsum(widths)
    shifts = np.repeat(ends, widths) - 1 - np.arange(widths.sum())
    stream = (np.repeat(codes, widths) >> shifts) & 1
    return np.packbits(stream.astype(np.uint8)).tobytes()


def decode(data: bytes, n: int) -> np.ndarray:
    """Decompress ``n`` float32 values from a Gorilla bitstream.

    Raises ``ValueError`` if the stream ends before ``n`` values."""
    if n == 0:
        return np.empty(0, dtype="<f4")
    buf = np.frombuffer(bytes(data) + bytes(8), dtype=np.uint8)
    words = np.ascontiguousarray(
        sliding_window_view(buf, 8)[:len(data) + 1]).view(">u8").ravel().tolist()
    prev = words[0] >> 32
    out = [prev]
    pos, end = 32, 8 * len(data)
    mb = tz = 0
    try:
        for _ in range(n - 1):
            w = (words[pos >> 3] << (pos & 7)) & _MASK64
            control = w >> 62
            if control < 0b10:
                pos += 1
            else:
                if control == 0b11:
                    mb = ((w >> 52) & 31) + 1
                    tz = 32 - ((w >> 57) & 31) - mb
                    w <<= 10
                    pos += 10
                prev ^= ((w >> (62 - mb)) & ((1 << mb) - 1)) << tz
                pos += 2 + mb
            out.append(prev)
    except IndexError:  # the fields ran past the zero padding
        pos = end + 1
    if pos > end:
        raise ValueError(f"Gorilla stream of {len(data)} bytes ends before "
                         f"{n} values")
    return np.array(out, dtype="<u4").view("<f4")


def encoded_size_bits(values: np.ndarray) -> int:
    """Exact bit size ``encode(values)`` would produce (without padding)."""
    return int(_fields(values)[1].sum())
