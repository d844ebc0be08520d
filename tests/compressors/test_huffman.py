"""Tests for the canonical length-limited Huffman coder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec, huffman
from repro.compressors.huffman import (
    MAX_BITS,
    SYNC_SYMBOLS,
    HuffmanTable,
    canonical_codes,
    choose_sync,
    code_lengths,
    decode_symbol_block,
    encode_symbol_block,
)


class TestCodeLengths:
    def test_empty_alphabet(self):
        assert code_lengths(np.zeros(256, np.int64)).sum() == 0

    def test_single_symbol_gets_length_one(self):
        freqs = np.zeros(256, np.int64)
        freqs[65] = 1000
        lengths = code_lengths(freqs)
        assert lengths[65] == 1
        assert lengths.sum() == 1

    def test_kraft_equality(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(0, 1000, 256)
        lengths = code_lengths(freqs)
        nz = lengths[lengths > 0]
        assert (2.0 ** (-nz)).sum() == pytest.approx(1.0)

    def test_respects_length_limit(self):
        # Exponential frequencies would need > MAX_BITS codes if unlimited.
        freqs = np.array([2**i for i in range(40)] + [0] * 216, dtype=np.int64)
        lengths = code_lengths(freqs)
        assert lengths.max() <= MAX_BITS

    def test_more_frequent_is_never_longer(self):
        freqs = np.array([1000, 100, 10, 1], dtype=np.int64)
        lengths = code_lengths(freqs)
        assert lengths[0] <= lengths[1] <= lengths[2] <= lengths[3]

    def test_cost_within_one_bit_of_entropy(self):
        rng = np.random.default_rng(1)
        freqs = rng.zipf(1.5, 100000).clip(1, 255)
        hist = np.bincount(freqs, minlength=256)
        lengths = code_lengths(hist)
        p = hist[hist > 0] / hist.sum()
        entropy = -(p * np.log2(p)).sum()
        avg_len = (hist * lengths).sum() / hist.sum()
        assert entropy <= avg_len <= entropy + 1.0

    def test_rejects_negative_frequencies(self):
        with pytest.raises(ValueError):
            code_lengths(np.array([-1, 5]))

    def test_rejects_oversized_alphabet(self):
        with pytest.raises(ValueError):
            code_lengths(np.ones(1 << 13, dtype=np.int64), max_bits=12)

    @given(st.lists(st.integers(0, 10000), min_size=2, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_property_kraft_holds(self, freq_list):
        freqs = np.array(freq_list, dtype=np.int64)
        lengths = code_lengths(freqs)
        nz = lengths[lengths > 0]
        if nz.size:
            assert (2.0 ** (-nz.astype(float))).sum() <= 1.0 + 1e-9
        # Present symbols always get codes; absent never do.
        assert np.all((lengths > 0) == (freqs > 0)) or (freqs > 0).sum() == 1


def _reference_canonical_codes(lengths):
    """Canonical codes assigned one symbol at a time."""
    codes = [0] * lengths.size
    order = sorted(np.flatnonzero(lengths).tolist(), key=lambda s: (lengths[s], s))
    code, prev_len = 0, 0
    for sym in order:
        code <<= int(lengths[sym]) - prev_len
        codes[sym] = code
        code += 1
        prev_len = int(lengths[sym])
    return codes


class TestCanonicalCodes:
    def test_prefix_free(self):
        freqs = np.random.default_rng(2).integers(1, 100, 40)
        lengths = code_lengths(np.concatenate([freqs, np.zeros(216, np.int64)]))
        codes = canonical_codes(lengths)
        words = [
            format(int(codes[s]), f"0{int(lengths[s])}b")
            for s in np.flatnonzero(lengths)
        ]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)

    def test_all_zero_lengths(self):
        assert canonical_codes(np.zeros(10, np.int64)).sum() == 0

    @given(
        st.lists(st.integers(0, MAX_BITS), min_size=1, max_size=300).map(
            lambda ls: np.array(ls, dtype=np.int64)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_serial_assignment(self, lengths):
        # Any length vector, over-subscribed ones included.
        codes = canonical_codes(lengths)
        assert codes.dtype == np.uint64
        assert codes.tolist() == _reference_canonical_codes(lengths)


class TestHuffmanTableRoundtrip:
    @pytest.mark.parametrize(
        "n", [1, 2, 100, SYNC_SYMBOLS - 1, SYNC_SYMBOLS, SYNC_SYMBOLS + 1, 50000]
    )
    def test_sizes_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        symbols = rng.zipf(1.4, n).clip(0, 255).astype(np.int64)
        freqs = np.bincount(symbols, minlength=256)
        table = HuffmanTable.from_frequencies(freqs)
        stream, offsets = table.encode(symbols)
        out = table.decode(stream, n, offsets)
        assert np.array_equal(out, symbols)

    def test_serialize_roundtrip(self):
        freqs = np.bincount(np.arange(50) % 7, minlength=256)
        table = HuffmanTable.from_frequencies(freqs)
        blob = table.serialize()
        restored, pos = HuffmanTable.deserialize(blob)
        assert pos == len(blob)
        assert np.array_equal(restored.lengths, table.lengths)
        assert np.array_equal(restored.codes, table.codes)

    def test_encode_rejects_uncoded_symbol(self):
        freqs = np.zeros(256, np.int64)
        freqs[1] = 10
        freqs[2] = 10
        table = HuffmanTable.from_frequencies(freqs)
        with pytest.raises(CodecError):
            table.encode(np.array([3]))

    def test_decode_rejects_bad_offsets(self):
        freqs = np.bincount(np.zeros(10, np.int64) + 5, minlength=256)
        freqs[7] = 5
        table = HuffmanTable.from_frequencies(freqs)
        symbols = np.array([5, 7] * 50)
        stream, offsets = table.encode(symbols)
        with pytest.raises(CodecError):
            table.decode(stream, 100, offsets[:-1] if offsets.size > 1 else np.array([99999]))

    def test_kraft_violation_rejected_on_deserialize(self):
        from repro.util.varint import encode_uvarint

        lengths = np.ones(256, dtype=np.uint8)  # 256 one-bit codes: invalid
        nibbles = (lengths[0::2] << 4) | lengths[1::2]
        blob = encode_uvarint(256) + nibbles.tobytes()
        with pytest.raises(CodecError, match="Kraft"):
            HuffmanTable.deserialize(blob)


class TestSymbolBlocks:
    def test_roundtrip_large_alphabet(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 300, 5000)
        blob = encode_symbol_block(symbols, 300)
        out, pos = decode_symbol_block(blob)
        assert pos == len(blob)
        assert np.array_equal(out, symbols)

    def test_empty_block(self):
        blob = encode_symbol_block(np.zeros(0, np.int64), 256)
        out, _ = decode_symbol_block(blob)
        assert out.size == 0

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError):
            encode_symbol_block(np.array([256]), 256)

    def test_truncated_stream_rejected(self):
        blob = encode_symbol_block(np.arange(100) % 9, 256)
        with pytest.raises((CodecError, ValueError)):
            decode_symbol_block(blob[: len(blob) - 5])


class TestHuffmanCodec:
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", b"aaaa", bytes(range(256)) * 4, b"\x00" * 10000],
        ids=["empty", "single", "run", "uniform", "zeros"],
    )
    def test_roundtrips(self, data):
        codec = get_codec("huffman")
        assert codec.decompress(codec.compress(data)) == data

    def test_skewed_data_compresses(self):
        rng = np.random.default_rng(4)
        data = rng.zipf(1.3, 100000).clip(0, 255).astype(np.uint8).tobytes()
        codec = get_codec("huffman")
        assert len(codec.compress(data)) < len(data)

    @given(st.binary(max_size=3000))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data):
        codec = get_codec("huffman")
        assert codec.decompress(codec.compress(data)) == data


# ---------------------------------------------------------------------------
# Scalar decoder: equivalence with the vector path and typed failures.
# ---------------------------------------------------------------------------


def _reference_walk(table, stream, n_symbols, start_bit):
    """The scalar decoder as it was: a walk over the 2**MAX_BITS tables."""
    dec_sym, dec_len = table._build_decode_tables()
    data = stream + b"\x00\x00\x00"
    out = np.empty(n_symbols, dtype=np.int32)
    pos = start_bit
    max_bit = 8 * len(stream)
    for i in range(n_symbols):
        k = pos >> 3
        window = ((data[k] << 16) | (data[k + 1] << 8) | data[k + 2]) >> (
            24 - MAX_BITS - (pos & 7)
        )
        w = window & ((1 << MAX_BITS) - 1)
        out[i] = dec_sym[w]
        pos += int(dec_len[w])
        if pos > max_bit:
            raise CodecError("Huffman stream exhausted mid-symbol")
    return out


def _decode_via(path, table, stream, n_symbols, offsets, sync):
    """``table.decode`` with the scalar or the vector path forced."""
    limit = 1 << 62 if path == "scalar" else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(huffman, "_SCALAR_DECODE_LIMIT", limit)
        return table.decode(stream, n_symbols, offsets, sync)


def _outcome(fn, *args):
    """Decoded symbols, or the CodecError class; anything else propagates."""
    try:
        return fn(*args).tolist()
    except CodecError:
        return CodecError


@st.composite
def prefix_tables(draw):
    """Code-length vectors: single-symbol, incomplete (Kraft < 1) and
    complete codes, with every longest length from 1 to MAX_BITS."""
    alphabet = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["single", "incomplete", "complete"]))
    lengths = np.zeros(alphabet, dtype=np.int64)
    if kind == "single":
        lengths[draw(st.integers(0, alphabet - 1))] = 1
        return lengths
    longest = draw(st.integers(1, MAX_BITS))
    symbols = draw(st.permutations(range(alphabet)))
    if kind == "complete":
        if alphabet < 2:
            lengths[0] = 1
            return lengths
        n = min(alphabet, 1 << longest)
        freqs = np.zeros(alphabet, dtype=np.int64)
        weights = draw(st.lists(st.integers(1, 1 << 20), min_size=n, max_size=n))
        freqs[list(symbols[:n])] = weights
        return code_lengths(freqs, max_bits=longest)
    # Incomplete: greedily admit lengths while the Kraft sum stays below 1,
    # always including one code of the longest length.
    space = 1 << longest  # remaining code space in longest-length units
    for i, sym in enumerate(symbols):
        length = longest if i == 0 else draw(st.integers(1, longest))
        cost = 1 << (longest - length)
        if cost < space:
            lengths[sym] = length
            space -= cost
    return lengths


def _coded_symbols(draw, lengths, max_size):
    present = np.flatnonzero(lengths).tolist()
    return np.array(
        draw(st.lists(st.sampled_from(present), min_size=1, max_size=max_size)),
        dtype=np.int64,
    )


class TestScalarDecoder:
    @given(data=st.data(), lengths=prefix_tables())
    @settings(max_examples=150, deadline=None)
    def test_scalar_and_vector_paths_agree(self, data, lengths):
        table = HuffmanTable(lengths)
        symbols = _coded_symbols(data.draw, lengths, 600)
        sync = data.draw(st.sampled_from([1, 7, 64, choose_sync(symbols.size)]))
        stream, offsets = table.encode(symbols, sync)
        scalar = _decode_via("scalar", table, stream, symbols.size, offsets, sync)
        vector = _decode_via("vector", table, stream, symbols.size, offsets, sync)
        assert scalar.dtype == vector.dtype == np.int32
        assert np.array_equal(scalar, symbols)
        assert np.array_equal(vector, symbols)

    @given(lengths=prefix_tables())
    @settings(max_examples=100, deadline=None)
    def test_table_matches_the_full_width_table(self, lengths):
        table = HuffmanTable(lengths)
        entries, bits = table._scalar_table()
        assert bits == int(lengths.max(initial=0)) and len(entries) == 1 << bits
        dec_sym, dec_len = table._build_decode_tables()
        full = np.array(entries)[np.arange(1 << MAX_BITS) >> (MAX_BITS - bits)]
        assert np.array_equal(full >> 8, dec_sym)
        assert np.array_equal(full & 0xFF, dec_len)

    @given(data=st.data(), lengths=prefix_tables())
    @settings(max_examples=40, deadline=None)
    def test_every_truncation_and_bit_flip(self, data, lengths):
        table = HuffmanTable(lengths)
        symbols = _coded_symbols(data.draw, lengths, 40)
        stream, offsets = table.encode(symbols, SYNC_SYMBOLS)
        n, start = symbols.size, int(offsets[0])
        damaged = [stream[:cut] for cut in range(len(stream))]
        for bit in range(8 * len(stream)):
            flipped = bytearray(stream)
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
            damaged.append(bytes(flipped))
        for bad in damaged:
            got = _outcome(table.decode, bad, n, offsets, SYNC_SYMBOLS)
            if got is CodecError:
                continue
            assert got == _reference_walk(table, bad, n, start).tolist()

    @given(data=st.data(), lengths=prefix_tables())
    @settings(max_examples=25, deadline=None)
    def test_damaged_symbol_blocks_fail_typed(self, data, lengths):
        alphabet = lengths.size
        symbols = _coded_symbols(data.draw, lengths, 40)
        blob = encode_symbol_block(symbols, alphabet)
        damaged = [blob[:cut] for cut in range(len(blob))]
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
            damaged.append(bytes(flipped))
        for bad in damaged:
            try:
                got = _outcome(lambda b: decode_symbol_block(b)[0], bad)
            except ValueError:
                continue  # a corrupt code length above MAX_BITS
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(HuffmanTable, "_decode_scalar", _reference_walk)
                want = _outcome(lambda b: decode_symbol_block(b)[0], bad)
            assert got == want

    def test_exhausted_stream_raises_codec_error(self):
        freqs = np.zeros(256, np.int64)
        freqs[[3, 4, 5]] = [4, 2, 1]
        table = HuffmanTable.from_frequencies(freqs)
        stream, offsets = table.encode(np.array([3, 4, 5] * 10))
        with pytest.raises(CodecError, match="exhausted"):
            table.decode(stream, 100, offsets)
        with pytest.raises(CodecError):
            table.decode(b"", 5, np.zeros(1, dtype=np.int64))

    def test_empty_table_decodes_like_the_reference(self):
        table = HuffmanTable(np.zeros(8, np.int64))
        assert table.decode(b"\x00", 8, np.zeros(1, dtype=np.int64)).tolist() == [0] * 8
        with pytest.raises(CodecError):
            table.decode(b"\x00", 9, np.zeros(1, dtype=np.int64))
