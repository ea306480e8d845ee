"""Unit tests for the Gorilla bit codec (core/gorilla.py)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gorilla


def roundtrip(vals):
    arr = np.asarray(vals, dtype=np.float32)
    out = gorilla.decode(gorilla.encode(arr), len(arr))
    np.testing.assert_array_equal(arr, out)


def reference_encode(arr):
    """Gorilla layout written one field at a time as a bit string: the
    reference the vectorised encoder must reproduce byte for byte."""
    bits = arr.view(np.uint32).tolist()
    out = f"{bits[0]:032b}"
    win = None  # (leading zeros, trailing zeros) of the current window
    for prev, x in zip(bits, bits[1:]):
        xor = prev ^ x
        if xor == 0:
            out += "0"
            continue
        lz, tz = 32 - xor.bit_length(), (xor & -xor).bit_length() - 1
        if win is not None and lz >= win[0] and tz >= win[1]:
            out += f"10{xor >> win[1]:0{32 - win[0] - win[1]}b}"
        else:
            win, mb = (lz, tz), 32 - lz - tz
            out += f"11{lz:05b}{mb - 1:05b}{xor >> tz:0{mb}b}"
    out += "0" * (-len(out) % 8)
    return int(out, 2).to_bytes(len(out) // 8, "big")


# Elements of the property tests: float32 bit patterns, drawn both as
# floats and as raw uint32 (NaN payloads, -0.0, subnormals).
_bit_patterns = st.one_of(
    st.floats(width=32, allow_nan=False).map(
        lambda v: int(np.array(v, dtype=np.float32).view(np.uint32))),
    st.integers(0, 2**32 - 1))


class TestGorillaRoundtrip:
    def test_empty(self):
        assert gorilla.encode(np.array([], dtype=np.float32)) == b""
        assert len(gorilla.decode(b"", 0)) == 0

    def test_single_value(self):
        roundtrip([3.25])

    def test_constant_run(self):
        roundtrip([7.5] * 100)

    def test_linear(self):
        roundtrip(np.linspace(0, 1, 64))

    def test_random_walk(self):
        g = np.random.default_rng(0)
        roundtrip(np.cumsum(g.normal(0, 0.1, 500)))

    def test_special_values(self):
        roundtrip([0.0, -0.0, np.inf, -np.inf, 1e-38, -1e38, 3.14])

    def test_nan_bitpattern_roundtrip(self):
        arr = np.array([1.0, np.nan, 2.0], dtype=np.float32)
        out = gorilla.decode(gorilla.encode(arr), 3)
        assert np.isnan(out[1]) and out[0] == 1.0 and out[2] == 2.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_bit_patterns, min_size=1, max_size=200))
    def test_property_roundtrip(self, patterns):
        arr = np.array(patterns, dtype=np.uint32).view(np.float32)
        blob = gorilla.encode(arr)
        assert blob == reference_encode(arr)
        out = gorilla.decode(blob, len(arr))
        np.testing.assert_array_equal(out.view(np.uint32), arr.view(np.uint32))
        assert 8 * len(blob) - 8 < gorilla.encoded_size_bits(arr) <= 8 * len(blob)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_bit_patterns, min_size=1, max_size=200))
    def test_truncated_stream_raises(self, patterns):
        """The last byte holds at least one real bit, so dropping it always
        cuts the stream short of ``n`` values; an empty stream makes the
        decoder read past its zero padding."""
        arr = np.array(patterns, dtype=np.uint32).view(np.float32)
        for blob in (gorilla.encode(arr)[:-1], b""):
            with pytest.raises(ValueError):
                gorilla.decode(blob, len(arr))

    def test_golden_bytes(self):
        """The bit layout itself: ``0``, ``10`` and ``11`` fields."""
        arr = np.array([1.0, 1.0, 1.5, 1.25, 1.75, -2.0, -2.0, 3.0e-38],
                       dtype=np.float32)
        assert gorilla.encode(arr).hex() == (
            "3f8000006907487ac0affec1ec12355e60")
        assert gorilla.encoded_size_bits(arr) == 131


class TestGorillaCompression:
    def test_constant_compresses_to_one_bit_per_value(self):
        arr = np.full(1000, 42.5, dtype=np.float32)
        n_bits = gorilla.encoded_size_bits(arr)
        assert n_bits == 32 + 999  # first value + 1 bit each

    def test_size_estimate_matches_encoder(self):
        g = np.random.default_rng(1)
        arr = np.cumsum(g.normal(0, 1, 300)).astype(np.float32)
        est = gorilla.encoded_size_bits(arr)
        real = len(gorilla.encode(arr)) * 8
        assert real - 8 < est <= real  # encode pads to a whole byte

    def test_correlated_group_block_smaller_than_random(self):
        """The paper's §V layout: interleaved correlated series XOR small."""
        g = np.random.default_rng(2)
        base = np.cumsum(g.normal(0, 0.01, 200)).astype(np.float32)
        group = np.stack([base, base, base], axis=1).ravel()  # time-major
        rand = g.normal(0, 1, 600).astype(np.float32)
        assert gorilla.encoded_size_bits(group) < gorilla.encoded_size_bits(rand)
