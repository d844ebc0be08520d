"""Tests for repro.util.checksum.

The production functions wrap stdlib zlib.  The from-scratch CRC-32
(reflected polynomial 0xEDB88320, 8-bit table) and vectorized Adler-32
(prefix-sum closed form) below are independent oracles: every property
checks oracle, wrapper and zlib against one another.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.checksum import adler32, crc32

# ---------------------------------------------------------------------------
# From-scratch oracles.  Both hash the raw bytes of a contiguous buffer.
# ---------------------------------------------------------------------------


def _build_crc_table() -> list[int]:
    table = np.arange(256, dtype=np.uint32)
    poly = np.uint32(0xEDB88320)
    for _ in range(8):
        low_bit = (table & np.uint32(1)).astype(bool)
        table = np.where(low_bit, (table >> np.uint32(1)) ^ poly, table >> np.uint32(1))
    return table.tolist()


_CRC_TABLE = _build_crc_table()


def oracle_crc32(data, value: int = 0) -> int:
    """Serial byte-at-a-time table CRC-32 with zlib's parameters."""
    crc = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in memoryview(data).cast("B"):
        crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


_ADLER_MOD = 65521
# Largest block for which the uint64 accumulators cannot overflow: the
# worst-case weighted sum grows as 255 * n * (n + 1) / 2.
ADLER_BLOCK = 1 << 20


def oracle_adler32(data, value: int = 1) -> int:
    """Vectorized Adler-32: with ``a0``/``b0`` the incoming state and ``x``
    the block bytes, ``a = a0 + sum(x)`` and ``b = b0 + n*a0 + sum((n - i) * x[i])``.
    """
    buf = np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)
    a = value & 0xFFFF
    b = (value >> 16) & 0xFFFF
    for start in range(0, buf.size, ADLER_BLOCK):
        block = buf[start : start + ADLER_BLOCK].astype(np.uint64)
        n = block.size
        weights = np.arange(n, 0, -1, dtype=np.uint64)
        b = (b + n * a + int((block * weights).sum())) % _ADLER_MOD
        a = (a + int(block.sum())) % _ADLER_MOD
    return (b << 16) | a


class TestCrc32:
    @pytest.mark.parametrize(
        "data",
        [b"", b"a", b"hello world", bytes(range(256)), b"\x00" * 1000],
    )
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data) == oracle_crc32(data)

    def test_incremental_matches(self):
        data = b"the quick brown fox"
        part = crc32(data[:7])
        assert crc32(data[7:], part) == zlib.crc32(data)
        assert oracle_crc32(data[7:], oracle_crc32(data[:7])) == zlib.crc32(data)

    def test_ndarray_input(self):
        arr = np.arange(100, dtype=np.uint8)
        assert crc32(arr) == zlib.crc32(arr.tobytes())

    @given(st.binary(max_size=512))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data) == oracle_crc32(data)


class TestAdler32:
    @pytest.mark.parametrize(
        "data",
        [b"", b"a", b"Wikipedia", bytes(range(256)) * 10, b"\xff" * 100000],
    )
    def test_matches_zlib(self, data):
        assert adler32(data) == zlib.adler32(data) == oracle_adler32(data)

    def test_incremental_matches(self):
        data = bytes(range(256)) * 100
        part = adler32(data[:1000])
        assert adler32(data[1000:], part) == zlib.adler32(data)
        assert oracle_adler32(data[1000:], part) == zlib.adler32(data)

    def test_large_block_boundary(self):
        # Just past the oracle's ADLER_BLOCK seam.
        data = np.random.default_rng(0).integers(
            0, 256, (1 << 20) + 17, dtype=np.uint8
        ).tobytes()
        assert adler32(data) == zlib.adler32(data) == oracle_adler32(data)

    @pytest.mark.parametrize("size", [ADLER_BLOCK - 1, ADLER_BLOCK, 2 * ADLER_BLOCK + 1])
    def test_block_seams(self, size):
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
        assert adler32(data) == zlib.adler32(data.tobytes()) == oracle_adler32(data)

    def test_worst_case_bytes_do_not_overflow(self):
        data = b"\xff" * (ADLER_BLOCK + 3)
        assert adler32(data) == zlib.adler32(data) == oracle_adler32(data)

    @given(split=st.integers(0, ADLER_BLOCK + 64))
    @settings(max_examples=10, deadline=None)
    def test_chained_across_the_seam(self, split):
        data = bytes(range(256)) * ((ADLER_BLOCK + 64) // 256)
        head = adler32(data[:split])
        assert adler32(data[split:], value=head) == zlib.adler32(data)
        assert oracle_adler32(data[split:], head) == zlib.adler32(data)

    @given(st.binary(max_size=2048))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_zlib(self, data):
        assert adler32(data) == zlib.adler32(data) == oracle_adler32(data)


CASES = [
    # (wrapper, oracle, zlib reference, initial value)
    pytest.param(crc32, oracle_crc32, zlib.crc32, 0, id="crc32"),
    pytest.param(adler32, oracle_adler32, zlib.adler32, 1, id="adler32"),
]


class TestWrapperContract:
    """The wrappers hash the raw bytes of any buffer, like the oracles."""

    @pytest.mark.parametrize("mine, oracle, ref, init", CASES)
    @given(data=st.binary(max_size=1024))
    @settings(max_examples=50, deadline=None)
    def test_every_buffer_kind_hashes_the_same(self, mine, oracle, ref, init, data):
        expected = ref(data)
        kinds = [data, bytearray(data), memoryview(data), np.frombuffer(data, np.uint8)]
        for buf in kinds:
            assert mine(buf) == expected, type(buf).__name__
            assert oracle(buf) == expected, type(buf).__name__

    @pytest.mark.parametrize("mine, oracle, ref, init", CASES)
    @given(
        data=st.binary(max_size=1024),
        cuts=st.lists(st.integers(0, 1024), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_incremental_value_chaining(self, mine, oracle, ref, init, data, cuts):
        bounds = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
        got, want = init, init
        for lo, hi in itertools.pairwise(bounds):
            got = mine(memoryview(data)[lo:hi], value=got)
            want = oracle(data[lo:hi], want)
        assert got == want == ref(data)

    @pytest.mark.parametrize("mine, oracle, ref, init", CASES)
    @given(
        arr=hnp.arrays(
            np.uint8,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_contiguous_ndarray(self, mine, oracle, ref, init, arr, data):
        steps = st.sampled_from([-2, -1, 2, 3])
        view = arr[tuple(slice(None, None, data.draw(steps)) for _ in arr.shape)]
        for v in (view, view.T):
            c_order = np.ascontiguousarray(v).tobytes()
            assert mine(v) == ref(c_order) == oracle(c_order)

    @pytest.mark.parametrize("mine, oracle, ref, init", CASES)
    def test_float64_array_hashes_raw_bytes(self, mine, oracle, ref, init):
        # The values must not be cast to uint8 (which would hash 4 bytes):
        # the contract is the raw bytes of the buffer, 8 per float64 word.
        values = np.array([1.0, 2.0, 3.0, 200.0], dtype=np.float64)
        raw = values.tobytes()
        assert mine(values) == ref(raw) == oracle(raw)
        assert mine(values) != ref(values.astype(np.uint8).tobytes())
