"""LZ77 match finding with hash chains (the matcher behind ``pyzlib``).

The tokenizer produces LZ4-style *sequences*: alternating literal runs and
back-references.  Three parallel arrays plus the concatenated literal bytes
describe the whole parse::

    lit_runs[k]   literals emitted before match k   (len == n_matches + 1;
                  the final entry is the trailing literal run)
    match_lens[k] length of match k (>= MIN_MATCH)
    match_dists[k] backward distance of match k (>= 1; may be < length,
                  i.e. overlapping copies are allowed and encode runs)

Design notes (pure-Python throughput):

* 4-byte rolling hashes for every position are computed **vectorized** with
  NumPy up front; only the greedy parse itself is a Python loop.
* The parse loop is O(#tokens), not O(#bytes), on compressible data; on
  incompressible data an LZ4-style *skip accelerator* widens the stride
  after consecutive misses so runtime stays bounded.
* Match extension compares 16-byte slices (C memcmp) before falling back to
  per-byte comparison.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.compressors.base import CodecError

__all__ = [
    "MIN_MATCH",
    "ParseStats",
    "TokenStream",
    "collect_parse_stats",
    "parse_stats_active",
    "reassemble",
    "tokenize",
]

MIN_MATCH = 4
_HASH_BITS = 16
_HASH_SIZE = 1 << _HASH_BITS
_MULT = 2654435761  # Knuth multiplicative hash constant


@dataclass(frozen=True)
class TokenStream:
    """The LZ77 parse of one buffer (see module docstring for layout)."""

    lit_runs: np.ndarray
    match_lens: np.ndarray
    match_dists: np.ndarray
    literals: bytes
    original_size: int

    @property
    def n_matches(self) -> int:
        """Number of back-reference tokens in the parse."""
        return self.match_lens.size

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`CodecError` on failure."""
        if self.lit_runs.size != self.match_lens.size + 1:
            raise CodecError("lit_runs must have one more entry than matches")
        if self.match_lens.size != self.match_dists.size:
            raise CodecError("match_lens / match_dists length mismatch")
        if int(self.lit_runs.sum()) != len(self.literals):
            raise CodecError("literal runs do not cover the literal bytes")
        if self.match_lens.size:
            if int(self.match_lens.min()) < MIN_MATCH:
                raise CodecError("match shorter than MIN_MATCH")
            if int(self.match_dists.min()) < 1:
                raise CodecError("non-positive match distance")
        total = len(self.literals) + int(self.match_lens.sum())
        if total != self.original_size:
            raise CodecError("token stream does not cover the input")


def _hash_array(data: bytes) -> np.ndarray:
    """Vectorized 4-byte hash for every position ``0 .. len(data) - 4``."""
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    u32 = (
        arr[:-3]
        | (arr[1:-2] << np.uint32(8))
        | (arr[2:-1] << np.uint32(16))
        | (arr[3:] << np.uint32(24))
    )
    return (u32 * np.uint32(_MULT)) >> np.uint32(32 - _HASH_BITS)


def _hash_positions(data: bytes) -> list[int]:
    """:func:`_hash_array` as a Python list (for the scalar parse loop)."""
    return _hash_array(data).tolist()


@dataclass
class ParseStats:
    """Deterministic operation counts of one or more LZ77 parses.

    ``work`` is a composite count of the parse's data-dependent search
    operations: outer-loop steps, hash-chain walk steps, 16-byte
    match-extension compares, and in-match hash-seeding steps.  It is a
    pure function of the input bytes (no clocks), which is what lets the
    adaptive planner turn it into a *reproducible* speed estimate for
    the ``pyzlib`` codec -- wall-clock probe timings would make planned
    archive bytes machine- and run-dependent.
    """

    work: int = 0
    literal_bytes: int = 0
    match_bytes: int = 0
    input_bytes: int = 0


_active_stats: ParseStats | None = None


@contextmanager
def collect_parse_stats() -> Iterator[ParseStats]:
    """Accumulate :class:`ParseStats` over every parse in the block.

    Counting runs a dedicated instrumented copy of the parse loop, so
    code outside a collection block pays nothing.  The instrumented
    parse emits bit-identical token streams (enforced by the test
    suite); only the counters differ.
    """
    global _active_stats
    stats = ParseStats()
    prev = _active_stats
    _active_stats = stats
    try:
        yield stats
    finally:
        _active_stats = prev


def parse_stats_active() -> bool:
    """True inside a :func:`collect_parse_stats` block.

    Only this module's :func:`tokenize` counts, so dispatchers that
    could hand the parse to another kernel must keep it here while a
    block is open.
    """
    return _active_stats is not None


def _match_length(data: bytes, a: int, b: int, max_len: int) -> int:
    """Length of the common prefix of ``data[a:]`` and ``data[b:]``."""
    l = 0
    # 16-byte slice compares hit C memcmp; the tail is per-byte.
    while l + 16 <= max_len and data[a + l : a + l + 16] == data[b + l : b + l + 16]:
        l += 16
    while l < max_len and data[a + l] == data[b + l]:
        l += 1
    return l


def tokenize(
    data: bytes,
    *,
    max_chain: int = 16,
    min_match: int = MIN_MATCH,
    skip_trigger: int = 6,
    lazy: bool = False,
) -> TokenStream:
    """Greedy (optionally lazy) LZ77 parse of ``data``.

    Parameters
    ----------
    max_chain:
        Hash-chain search depth; higher finds better matches, slower.
    min_match:
        Minimum match length worth a back-reference (>= :data:`MIN_MATCH`).
    skip_trigger:
        After ``2**skip_trigger`` consecutive literal misses, the scan stride
        grows (LZ4-style) so incompressible regions are traversed quickly.
    lazy:
        zlib-style lazy matching: before committing to a match, peek at the
        next position; if it holds a strictly longer match, emit one
        literal and take that one instead.  Better ratio, slower parse.
    """
    if _active_stats is not None:
        return _tokenize_counted(
            data,
            _active_stats,
            max_chain=max_chain,
            min_match=min_match,
            skip_trigger=skip_trigger,
            lazy=lazy,
        )
    if min_match < MIN_MATCH:
        raise ValueError(f"min_match must be >= {MIN_MATCH}")
    n = len(data)
    empty = np.zeros(0, dtype=np.int64)
    if n < min_match:
        return TokenStream(
            np.array([n], dtype=np.int64), empty, empty, bytes(data), n
        )

    hashes = _hash_positions(data)
    n_hash = len(hashes)
    head = [-1] * _HASH_SIZE
    prev = [-1] * n_hash

    lit_runs: list[int] = []
    match_lens: list[int] = []
    match_dists: list[int] = []
    literal_spans: list[tuple[int, int]] = []

    def _search(pos: int, cand: int, threshold: int) -> tuple[int, int]:
        """Walk the chain from ``cand``; return (best_len, best_pos)."""
        best_len = threshold
        best_pos = -1
        depth = max_chain
        max_len = n - pos
        while cand >= 0 and depth > 0:
            # Quick rejection: the byte that would extend the best match.
            if (
                pos + best_len < n
                and data[cand + best_len] == data[pos + best_len]
            ):
                l = _match_length(data, cand, pos, max_len)
                if l > best_len:
                    best_len = l
                    best_pos = cand
                    if l >= max_len:
                        break
            cand = prev[cand]
            depth -= 1
        return best_len, best_pos

    i = 0
    lit_start = 0
    miss = 0
    limit = n - min_match
    while i <= limit:
        hv = hashes[i]
        cand = head[hv]
        prev[i] = cand
        head[hv] = i

        best_len, best_pos = _search(i, cand, min_match - 1)

        if best_pos >= 0 and lazy and i + 1 <= limit:
            # zlib-style deferral: a strictly longer match one byte later
            # beats committing now.
            peek_len, peek_pos = _search(i + 1, head[hashes[i + 1]], best_len)
            if peek_pos >= 0 and peek_len > best_len:
                miss = 0
                i += 1
                continue

        if best_pos >= 0:
            lit_runs.append(i - lit_start)
            literal_spans.append((lit_start, i))
            match_lens.append(best_len)
            match_dists.append(i - best_pos)
            end = i + best_len
            # Seed the hash table inside the match so later data can match
            # into it; cap the work for very long matches.
            stop = min(end, n_hash, i + 4096)
            for j in range(i + 1, stop):
                hj = hashes[j]
                prev[j] = head[hj]
                head[hj] = j
            i = end
            lit_start = end
            miss = 0
        else:
            miss += 1
            i += 1 + (miss >> skip_trigger)

    lit_runs.append(n - lit_start)
    literal_spans.append((lit_start, n))
    literals = b"".join(data[s:e] for s, e in literal_spans)
    stream = TokenStream(
        np.asarray(lit_runs, dtype=np.int64),
        np.asarray(match_lens, dtype=np.int64),
        np.asarray(match_dists, dtype=np.int64),
        literals,
        n,
    )
    return stream


def _tokenize_counted(
    data: bytes,
    stats: ParseStats,
    *,
    max_chain: int,
    min_match: int,
    skip_trigger: int,
    lazy: bool,
) -> TokenStream:
    """Instrumented twin of :func:`tokenize` (see collect_parse_stats).

    MUST stay in lockstep with the plain parse loop above: same
    candidate walk, same skip accelerator, same lazy deferral.  The test
    suite asserts bit-identical token streams across both paths.
    """
    if min_match < MIN_MATCH:
        raise ValueError(f"min_match must be >= {MIN_MATCH}")
    n = len(data)
    empty = np.zeros(0, dtype=np.int64)
    if n < min_match:
        stats.input_bytes += n
        stats.literal_bytes += n
        return TokenStream(
            np.array([n], dtype=np.int64), empty, empty, bytes(data), n
        )

    hashes = _hash_positions(data)
    n_hash = len(hashes)
    head = [-1] * _HASH_SIZE
    prev = [-1] * n_hash

    lit_runs: list[int] = []
    match_lens: list[int] = []
    match_dists: list[int] = []
    literal_spans: list[tuple[int, int]] = []
    work = 0

    def _search(pos: int, cand: int, threshold: int) -> tuple[int, int]:
        nonlocal work
        best_len = threshold
        best_pos = -1
        depth = max_chain
        max_len = n - pos
        while cand >= 0 and depth > 0:
            work += 1
            if (
                pos + best_len < n
                and data[cand + best_len] == data[pos + best_len]
            ):
                l = _match_length(data, cand, pos, max_len)
                work += l >> 4
                if l > best_len:
                    best_len = l
                    best_pos = cand
                    if l >= max_len:
                        break
            cand = prev[cand]
            depth -= 1
        return best_len, best_pos

    i = 0
    lit_start = 0
    miss = 0
    limit = n - min_match
    while i <= limit:
        work += 1
        hv = hashes[i]
        cand = head[hv]
        prev[i] = cand
        head[hv] = i

        best_len, best_pos = _search(i, cand, min_match - 1)

        if best_pos >= 0 and lazy and i + 1 <= limit:
            peek_len, peek_pos = _search(i + 1, head[hashes[i + 1]], best_len)
            if peek_pos >= 0 and peek_len > best_len:
                miss = 0
                i += 1
                continue

        if best_pos >= 0:
            lit_runs.append(i - lit_start)
            literal_spans.append((lit_start, i))
            match_lens.append(best_len)
            match_dists.append(i - best_pos)
            end = i + best_len
            stop = min(end, n_hash, i + 4096)
            work += max(stop - (i + 1), 0)
            for j in range(i + 1, stop):
                hj = hashes[j]
                prev[j] = head[hj]
                head[hj] = j
            i = end
            lit_start = end
            miss = 0
        else:
            miss += 1
            i += 1 + (miss >> skip_trigger)

    lit_runs.append(n - lit_start)
    literal_spans.append((lit_start, n))
    literals = b"".join(data[s:e] for s, e in literal_spans)
    stats.input_bytes += n
    stats.literal_bytes += len(literals)
    stats.match_bytes += n - len(literals)
    stats.work += work
    return TokenStream(
        np.asarray(lit_runs, dtype=np.int64),
        np.asarray(match_lens, dtype=np.int64),
        np.asarray(match_dists, dtype=np.int64),
        literals,
        n,
    )


def reassemble(stream: TokenStream) -> bytes:
    """Invert :func:`tokenize`: expand a token stream back to raw bytes."""
    stream.validate()
    out = bytearray()
    literals = stream.literals
    lp = 0
    lens = stream.match_lens.tolist()
    dists = stream.match_dists.tolist()
    runs = stream.lit_runs.tolist()
    for k in range(len(lens)):
        r = runs[k]
        if r:
            out += literals[lp : lp + r]
            lp += r
        d = dists[k]
        length = lens[k]
        if d > len(out):
            raise CodecError("match distance reaches before buffer start")
        if d >= length:
            start = len(out) - d
            out += out[start : start + length]
        else:
            # Overlapping copy == periodic run with period d.
            chunk = bytes(out[-d:])
            q, rem = divmod(length, d)
            out += chunk * q + chunk[:rem]
    out += literals[lp:]
    if len(out) != stream.original_size:
        raise CodecError("reassembled size mismatch")
    return bytes(out)
