"""Tests for the pyzlib (DEFLATE-style) codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec
from repro.compressors.deflate import DeflateCodec
from repro.compressors.lz77 import collect_parse_stats


class TestRoundtrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abc",
            b"aaaa" * 1000,
            b"the quick brown fox " * 200,
            bytes(range(256)) * 16,
        ],
        ids=["empty", "one", "short", "runs", "phrases", "cycle"],
    )
    def test_basic(self, data):
        codec = DeflateCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_random_data_roundtrip(self, random_bytes):
        codec = DeflateCodec()
        assert codec.decompress(codec.compress(random_bytes)) == random_bytes

    def test_float_data_roundtrip(self, noisy_doubles):
        codec = DeflateCodec()
        assert codec.decompress(codec.compress(noisy_doubles)) == noisy_doubles

    @given(st.binary(max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data):
        codec = DeflateCodec(level=3)
        assert codec.decompress(codec.compress(data)) == data


class TestBehaviour:
    def test_incompressible_expansion_bounded(self, random_bytes):
        codec = DeflateCodec()
        compressed = codec.compress(random_bytes)
        # Stored-block escape: tiny overhead only.
        assert len(compressed) <= len(random_bytes) + 10

    def test_compressible_data_shrinks(self):
        data = b"checkpoint-restart " * 500
        assert len(DeflateCodec().compress(data)) < len(data) // 4

    def test_levels_tradeoff(self):
        # Higher level searches deeper; ratio must not get worse.
        data = (b"pattern-%d " % 7) * 300 + bytes(range(200)) * 30
        fast = len(DeflateCodec(level=1).compress(data))
        best = len(DeflateCodec(level=9).compress(data))
        assert best <= fast

    def test_level_validation(self):
        with pytest.raises(ValueError):
            DeflateCodec(level=0)
        with pytest.raises(ValueError):
            DeflateCodec(level=10)

    def test_registered_as_pyzlib(self):
        assert isinstance(get_codec("pyzlib"), DeflateCodec)


class TestParseCounters:
    """The codec keeps the planner's parse counters filled at every level."""

    @pytest.fixture(scope="class")
    def data(self):
        # A run soup like a preconditioned ID stream.
        rng = np.random.default_rng(5)
        runs = np.repeat(
            rng.integers(0, 6, 3000, dtype=np.uint8), rng.integers(1, 9, 3000)
        )
        return runs[:12000].tobytes()

    @pytest.mark.parametrize("level", [6, 9])
    def test_collection_block_counts_the_parse(self, data, level):
        # The batch matcher keeps no counters, so inside a collection
        # block the codec must run the counted reference parse -- at
        # the lazy levels too, not just where the reference would have
        # run anyway.
        with collect_parse_stats() as stats:
            blob = DeflateCodec(level=level).compress(data)
        assert stats.input_bytes == len(data)
        assert stats.literal_bytes + stats.match_bytes == len(data)
        assert stats.work > 0
        assert blob == DeflateCodec(level=level, kernels="reference").compress(
            data
        )

    @pytest.mark.parametrize("level", [6, 9])
    def test_counters_match_the_reference_backend(self, data, level):
        counted = []
        for kernels in ("batch", "reference"):
            with collect_parse_stats() as stats:
                DeflateCodec(level=level, kernels=kernels).compress(data)
            counted.append(stats)
        assert counted[0] == counted[1]


class TestCorruptStreams:
    def test_truncated(self):
        codec = DeflateCodec()
        blob = codec.compress(b"some compressible data " * 50)
        with pytest.raises((CodecError, ValueError)):
            codec.decompress(blob[: len(blob) - 10])

    def test_unknown_mode(self):
        codec = DeflateCodec()
        blob = bytearray(codec.compress(b"hello world, hello world"))
        # Mode byte follows the uvarint length (first byte here).
        blob[1] = 0xEE
        with pytest.raises(CodecError, match="mode"):
            codec.decompress(bytes(blob))

    def test_truncated_stored_block(self):
        codec = DeflateCodec()
        blob = codec.compress(np.random.default_rng(1).bytes(100))
        with pytest.raises(CodecError):
            codec.decompress(blob[:50])
