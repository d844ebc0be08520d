"""Canonical length-limited Huffman coding with a vectorized block decoder.

This is the entropy "solver" core behind the ``pyzlib`` and ``pybzip``
codecs and a registered standalone codec (``huffman``).  Three pieces:

* :func:`code_lengths` -- optimal length-limited code lengths via the
  package-merge algorithm (Larmore & Hirschberg).  Length limit is
  :data:`MAX_BITS` = 12 so the decoder can use flat 4096-entry tables.
* :class:`HuffmanTable` -- canonical code assignment, vectorized encoding
  (table gather + :func:`repro.util.bitio.pack_bits`), and vectorized
  decoding; blocks of fewer than 2048 symbols take a serial walk whose
  table has ``2**L`` entries, ``L`` the block's longest code.

**Why the decoder is block-synchronized.**  Huffman decoding is a serial
bit-chase, which is hopeless in pure Python at MB scale.  We instead record
the bit offset of every :data:`SYNC_SYMBOLS`-th symbol at encode time (cheap:
one cumsum) and decode *all blocks simultaneously*: a loop of
``SYNC_SYMBOLS`` steps where each step gathers the next 12-bit window for
every block at once with NumPy.  Work is O(total symbols) with the Python
interpreter cost amortized over the number of blocks, exactly the
vectorize-the-inner-loop discipline the HPC guides prescribe.  The offsets
are metadata, charged to the stream like the paper's :math:`\\delta`.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import CodecError
from repro.util.bitio import pack_bits
from repro.util.varint import decode_uvarint, encode_uvarint

__all__ = [
    "MAX_BITS",
    "SYNC_SYMBOLS",
    "code_lengths",
    "choose_sync",
    "canonical_codes",
    "HuffmanTable",
    "HuffmanCodec",
]

MAX_BITS = 12
SYNC_SYMBOLS = 1024  # upper bound on the sync block size
_SYNC_MIN = 64
# Below this symbol count the scalar decoder beats the vectorized one
# (too few blocks for the vector lanes to amortize interpreter overhead).
_SCALAR_DECODE_LIMIT = 2048


def choose_sync(n_symbols: int) -> int:
    """Sync block size balancing decoder lane count against offset overhead.

    The vectorized decoder's wall time is ``O(sync)`` interpreter steps, so
    smaller blocks decode faster -- but each block costs ~2 bytes of offset
    metadata.  Targeting >= 64 lanes keeps the vector units busy while the
    offsets stay under ~1 % of the payload.
    """
    if n_symbols <= _SYNC_MIN:
        return _SYNC_MIN
    target = n_symbols // 64
    sync = _SYNC_MIN
    while sync < target and sync < SYNC_SYMBOLS:
        sync <<= 1
    return min(sync, SYNC_SYMBOLS)


def code_lengths(freqs: np.ndarray, max_bits: int = MAX_BITS) -> np.ndarray:
    """Optimal length-limited prefix-code lengths.

    Fast path: unconstrained Huffman depths via the classic two-queue
    merge over sorted frequencies (O(n log n), no per-node allocation).
    Only when the resulting tree exceeds ``max_bits`` -- very skewed
    distributions -- does the exact package-merge algorithm (Larmore &
    Hirschberg) run.

    Parameters
    ----------
    freqs:
        Non-negative symbol frequencies; zero-frequency symbols get length 0.
    max_bits:
        Maximum codeword length.  ``2**max_bits`` must be at least the
        number of distinct symbols present.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of code lengths, same shape as ``freqs``; satisfies
        the Kraft equality over the present symbols.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be 1-D")
    if freqs.size and freqs.min() < 0:
        raise ValueError("frequencies must be non-negative")
    present = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    if present.size > (1 << max_bits):
        raise ValueError("alphabet too large for the length limit")

    fast = _huffman_depths(freqs, present)
    if int(fast.max()) <= max_bits:
        lengths[present] = fast
        return lengths
    return _package_merge(freqs, present, max_bits)


def _huffman_depths(freqs: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Unconstrained Huffman code depths for the present symbols.

    Two-queue method: leaves sorted ascending in one queue, internal nodes
    appear in non-decreasing weight order in the other, so each merge step
    pops the two globally smallest items without a heap.
    """
    order = present[np.argsort(freqs[present], kind="stable")]
    leaf_w = freqs[order].tolist()
    n = len(leaf_w)
    # parent[i] for 2n-1 node slots; leaves are 0..n-1 in sorted order.
    parent = [0] * (2 * n - 1)
    node_w: list[int] = []
    li = 0  # next leaf
    ni = 0  # next internal node
    for new in range(n, 2 * n - 1):
        picks = []
        for _ in range(2):
            take_leaf = li < n and (ni >= len(node_w) or leaf_w[li] <= node_w[ni])
            if take_leaf:
                picks.append((leaf_w[li], li))
                li += 1
            else:
                picks.append((node_w[ni], n + ni))
                ni += 1
        node_w.append(picks[0][0] + picks[1][0])
        parent[picks[0][1]] = new
        parent[picks[1][1]] = new
    # Depth of each leaf = chain length to the root (last node).
    root = 2 * n - 2
    depth = [0] * (2 * n - 1)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    leaf_depths = np.array(depth[:n], dtype=np.int64)
    # Undo the sort so depths align with `present` order.
    out = np.empty(present.size, dtype=np.int64)
    out[np.argsort(freqs[present], kind="stable")] = leaf_depths
    return out


def _package_merge(
    freqs: np.ndarray, present: np.ndarray, max_bits: int
) -> np.ndarray:
    """Exact length-limited lengths (package-merge); the slow fallback."""
    lengths = np.zeros(freqs.size, dtype=np.int64)
    # Items are (weight, symbol-count-vector) pairs; the count vector is a
    # dict {symbol: multiplicity} since packages stay tiny for byte-sized
    # alphabets.
    leaves = sorted(
        ((int(freqs[s]), {int(s): 1}) for s in present), key=lambda item: item[0]
    )
    merged = list(leaves)
    for _ in range(max_bits - 1):
        packages = []
        for i in range(0, len(merged) - 1, 2):
            w = merged[i][0] + merged[i + 1][0]
            counts = dict(merged[i][1])
            for sym, c in merged[i + 1][1].items():
                counts[sym] = counts.get(sym, 0) + c
            packages.append((w, counts))
        merged = sorted(leaves + packages, key=lambda item: item[0])
    take = 2 * present.size - 2
    for _, counts in merged[:take]:
        for sym, c in counts.items():
            lengths[sym] += c
    return lengths


def _canonical_runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Coded symbols in canonical order (by length, then symbol index), the
    number of ``bits``-bit windows each one's code prefixes, and ``bits``,
    the longest code length.

    In canonical order the codes are consecutive, so each code's windows
    start where the previous code's end.
    """
    order = np.lexsort((np.arange(lengths.size), lengths))
    order = order[lengths[order] > 0]
    bits = int(lengths.max(initial=0))
    return order, 1 << (bits - lengths[order]), bits


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes (increasing by length, then symbol index)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order, widths, _ = _canonical_runs(lengths)
    # A code is its first window, in units of its own window count.
    codes[order] = (np.cumsum(widths) - widths) // widths
    return codes


class HuffmanTable:
    """Canonical Huffman table over an alphabet of ``lengths.size`` symbols.

    Encoding gathers per-symbol (code, length) arrays and defers to
    :func:`pack_bits`.  Decoding uses flat lookup tables indexed by the next
    ``MAX_BITS``-bit window.
    """

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.max(initial=0) > MAX_BITS:
            raise ValueError("code length exceeds MAX_BITS")
        self.codes = canonical_codes(self.lengths)
        self._dec_sym: np.ndarray | None = None
        self._dec_len: np.ndarray | None = None
        self._dec_scalar: tuple[list[int], int] | None = None

    @classmethod
    def from_frequencies(cls, freqs: np.ndarray) -> "HuffmanTable":
        """Build a table with optimal lengths for ``freqs``."""
        return cls(code_lengths(freqs))

    # -- encode ----------------------------------------------------------

    def encode(
        self, symbols: np.ndarray, sync: int = SYNC_SYMBOLS
    ) -> tuple[bytes, np.ndarray]:
        """Encode ``symbols``; returns ``(bitstream, block_bit_offsets)``.

        ``block_bit_offsets[k]`` is the bit position where symbol
        ``k * sync`` begins; the decoder needs it to parallelize.
        """
        symbols = np.ascontiguousarray(symbols)
        if symbols.size == 0:
            return b"", np.zeros(0, dtype=np.int64)
        sym_lengths = self.lengths[symbols]
        if sym_lengths.min() == 0:
            raise CodecError("symbol with no assigned code in input")
        sym_codes = self.codes[symbols]
        ends = np.cumsum(sym_lengths)
        starts = ends - sym_lengths
        offsets = starts[::sync].copy()
        return pack_bits(sym_codes, sym_lengths), offsets

    # -- decode ----------------------------------------------------------

    def _build_decode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._dec_sym is None:
            n_entries = 1 << MAX_BITS
            dec_sym = np.zeros(n_entries, dtype=np.int32)
            dec_len = np.ones(n_entries, dtype=np.int64)
            for sym in np.flatnonzero(self.lengths):
                l = int(self.lengths[sym])
                c = int(self.codes[sym])
                lo = c << (MAX_BITS - l)
                hi = (c + 1) << (MAX_BITS - l)
                dec_sym[lo:hi] = sym
                dec_len[lo:hi] = l
            self._dec_sym, self._dec_len = dec_sym, dec_len
        return self._dec_sym, self._dec_len

    def decode(
        self,
        stream: bytes,
        n_symbols: int,
        offsets: np.ndarray,
        sync: int = SYNC_SYMBOLS,
    ) -> np.ndarray:
        """Decode ``n_symbols`` symbols from ``stream``.

        ``offsets`` are the block bit offsets returned by :meth:`encode`
        (with the same ``sync``).  Returns an ``int32`` symbol array.
        """
        if n_symbols == 0:
            return np.zeros(0, dtype=np.int32)
        if sync < 1:
            raise CodecError("invalid sync block size")
        expected_blocks = (n_symbols + sync - 1) // sync
        if offsets.size != expected_blocks:
            raise CodecError("block offset table does not match symbol count")
        if offsets.size and (
            int(offsets.min()) < 0 or int(offsets.max()) > 8 * len(stream)
        ):
            raise CodecError("block offsets out of range")
        if n_symbols < _SCALAR_DECODE_LIMIT:
            # Few blocks to vectorize over; a tight scalar walk is faster
            # than SYNC_SYMBOLS interpreter-driven vector steps.
            return self._decode_scalar(stream, n_symbols, int(offsets[0]))
        dec_sym, dec_len = self._build_decode_tables()

        buf = np.frombuffer(stream, dtype=np.uint8)
        # 24-bit sliding windows anchored at byte k; +4 padding bytes so the
        # final window gathers stay in bounds.
        padded = np.zeros(buf.size + 4, dtype=np.uint8)
        padded[: buf.size] = buf
        triple = (
            (padded[:-2].astype(np.uint32) << np.uint32(16))
            | (padded[1:-1].astype(np.uint32) << np.uint32(8))
            | padded[2:].astype(np.uint32)
        )
        max_pos = 8 * buf.size  # first out-of-stream bit
        pos = offsets.astype(np.int64).copy()

        n_blocks = pos.size
        last_count = n_symbols - sync * (n_blocks - 1)
        out = np.empty((n_blocks, sync), dtype=np.int32)
        window_shift = np.uint32(24 - MAX_BITS)
        mask = np.uint32((1 << MAX_BITS) - 1)
        # All lanes run the full SYNC_SYMBOLS steps; the last (partial) block
        # decodes harmless padding past its count -- position clamping keeps
        # every gather in bounds -- and is trimmed below.  This keeps the hot
        # loop branch-free.
        for step in range(sync):
            k = pos >> 3
            r = (pos & 7).astype(np.uint32)
            w = (triple[k] >> (window_shift - r)) & mask
            out[:, step] = dec_sym[w]
            pos = np.minimum(pos + dec_len[w], max_pos)
        return np.concatenate([out[:-1].reshape(-1), out[-1, :last_count]])

    def _scalar_table(self) -> tuple[list[int], int]:
        """The scalar walk's decode table and its window width ``L``.

        ``L`` is the longest code length; entry ``w`` is the packed
        ``(symbol << 8) | length`` of the code prefixing the ``L``-bit
        window ``w``.  Windows no code prefixes (an incomplete code) decode
        as symbol 0 with length 1, as in the vector path's tables.
        """
        if self._dec_scalar is None:
            order, widths, bits = _canonical_runs(self.lengths)
            table = np.repeat((order << 8) | self.lengths[order], widths).tolist()
            table += [1] * ((1 << bits) - len(table))
            self._dec_scalar = (table, bits)
        return self._dec_scalar

    def _decode_scalar(
        self, stream: bytes, n_symbols: int, start_bit: int
    ) -> np.ndarray:
        """Serial table-walk decoder for small streams."""
        table, bits = self._scalar_table()
        # words[k]: the 24 bits starting at byte k (zero-padded), so a
        # window is one list lookup; k == len(stream) is the all-zero word.
        padded = np.zeros(len(stream) + 3, dtype=np.int64)
        padded[: len(stream)] = np.frombuffer(stream, dtype=np.uint8)
        words = ((padded[:-2] << 16) | (padded[1:-1] << 8) | padded[2:]).tolist()
        out: list[int] = []
        append = out.append
        pos = start_bit
        shift_base = 24 - bits
        mask = (1 << bits) - 1
        max_bit = 8 * len(stream)
        for _ in range(n_symbols):
            entry = table[(words[pos >> 3] >> (shift_base - (pos & 7))) & mask]
            append(entry >> 8)
            pos += entry & 0xFF
            if pos > max_bit:
                raise CodecError("Huffman stream exhausted mid-symbol")
        return np.array(out, dtype=np.int32)

    # -- (de)serialization of the table itself ---------------------------

    def serialize(self) -> bytes:
        """Pack the code-length vector: alphabet size + 4-bit lengths."""
        lengths = self.lengths.astype(np.uint8)
        if lengths.size % 2:
            lengths = np.append(lengths, np.uint8(0))
        nibbles = (lengths[0::2] << 4) | lengths[1::2]
        return encode_uvarint(self.lengths.size) + nibbles.tobytes()

    @classmethod
    def deserialize(cls, data: bytes, offset: int = 0) -> tuple["HuffmanTable", int]:
        """Parse a serialized instance; returns ``(obj, next_offset)``."""
        alphabet, pos = decode_uvarint(data, offset)
        n_nibble_bytes = (alphabet + 1) // 2
        raw = np.frombuffer(data[pos : pos + n_nibble_bytes], dtype=np.uint8)
        if raw.size != n_nibble_bytes:
            raise CodecError("truncated Huffman table")
        lengths = np.empty(2 * raw.size, dtype=np.int64)
        lengths[0::2] = raw >> 4
        lengths[1::2] = raw & 0x0F
        lengths = lengths[:alphabet]
        _check_kraft(lengths)
        return cls(lengths), pos + n_nibble_bytes


def _check_kraft(lengths: np.ndarray) -> None:
    """Reject length vectors that over-subscribe the code space."""
    nz = lengths[lengths > 0]
    if nz.size == 0:
        return
    kraft = float((2.0 ** (-nz.astype(np.float64))).sum())
    if kraft > 1.0 + 1e-9:
        raise CodecError("invalid Huffman table: Kraft inequality violated")


# ---------------------------------------------------------------------------
# Self-describing symbol blocks (shared by deflate / bwt / standalone codec).
# ---------------------------------------------------------------------------


def encode_symbol_block(symbols: np.ndarray, alphabet: int) -> bytes:
    """Serialize a symbol array as a self-describing Huffman block.

    Layout::

        uvarint n_symbols
        [if n_symbols > 0]
        table (uvarint alphabet + nibble-packed code lengths)
        uvarint n_blocks, delta-uvarint block bit offsets
        uvarint stream length, stream bytes
    """
    symbols = np.ascontiguousarray(symbols)
    out = bytearray(encode_uvarint(symbols.size))
    if symbols.size == 0:
        return bytes(out)
    if int(symbols.min()) < 0 or int(symbols.max()) >= alphabet:
        raise ValueError("symbol out of alphabet range")
    freqs = np.bincount(symbols.astype(np.int64), minlength=alphabet)
    table = HuffmanTable.from_frequencies(freqs)
    sync = choose_sync(symbols.size)
    stream, offsets = table.encode(symbols, sync)
    out += table.serialize()
    out += encode_uvarint(sync)
    out += encode_uvarint(offsets.size)
    prev = 0
    for off in offsets.tolist():
        out += encode_uvarint(off - prev)
        prev = off
    out += encode_uvarint(len(stream))
    out += stream
    return bytes(out)


def decode_symbol_block(data: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_symbol_block`; returns ``(symbols, next_offset)``."""
    n, pos = decode_uvarint(data, offset)
    if n == 0:
        return np.zeros(0, dtype=np.int32), pos
    table, pos = HuffmanTable.deserialize(data, pos)
    sync, pos = decode_uvarint(data, pos)
    if not 1 <= sync <= SYNC_SYMBOLS:
        raise CodecError("corrupt sync block size")
    n_blocks, pos = decode_uvarint(data, pos)
    offsets = np.empty(n_blocks, dtype=np.int64)
    acc = 0
    for i in range(n_blocks):
        delta, pos = decode_uvarint(data, pos)
        acc += delta
        offsets[i] = acc
    stream_len, pos = decode_uvarint(data, pos)
    stream = data[pos : pos + stream_len]
    if len(stream) != stream_len:
        raise CodecError("truncated Huffman stream")
    return table.decode(stream, n, offsets, sync), pos + stream_len


# ---------------------------------------------------------------------------
# Standalone order-0 codec over the byte alphabet.
# ---------------------------------------------------------------------------

from repro.compressors.base import Codec, register_codec  # noqa: E402


@register_codec
class HuffmanCodec(Codec):
    """Order-0 canonical Huffman over bytes (no LZ stage)."""

    name = "huffman"

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        buf = np.frombuffer(data, dtype=np.uint8)
        return encode_symbol_block(buf, 256)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        symbols, _ = decode_symbol_block(data, 0)
        return symbols.astype(np.uint8).tobytes()
