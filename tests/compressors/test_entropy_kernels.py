"""Adversarial equivalence suite for the batch entropy kernels.

Pins the two backend contracts from :mod:`repro.compressors.kernels`
against a corpus built to hit every structural edge of the matcher and
the BWT stack:

* **LZ77 parse equivalence** -- the batch parse is round-trip exact and
  each backend decodes the other's token stream.  Compressed *bytes*
  may differ (the batch matcher can pick different, equally valid
  matches), so byte-identity is deliberately NOT asserted for
  ``pyzlib`` encode.
* **BWT-stack byte-identity** -- ``mtf_encode`` / ``mtf_decode`` /
  ``rle0_encode`` / ``rle0_decode`` / ``bwt_inverse`` are deterministic
  transforms and must match the reference output exactly, so whole
  ``pybzip`` streams are backend-independent.

The corpus: byte-run soups (run-interior pruning), repeated-region
soups (hash chains + long extends), short-period strings (overlapping
matches, the mismatch-index cache), incompressible noise (scout probe
rejects, stored blocks), mixed regimes, tiny/empty inputs, and inputs
straddling the matcher's wave-segment boundary.
"""

from __future__ import annotations

import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from repro.compressors import bwt as bwtmod
from repro.compressors import kernels as batch
from repro.compressors import lz77 as ref
from repro.compressors.bwt import BwtCodec, bwt_transform
from repro.compressors.deflate import DeflateCodec
from repro.core import PrimacyCompressor, PrimacyConfig
from repro.datasets import generate_bytes


def _corpus() -> list[tuple[str, bytes]]:
    rng = random.Random(7)
    cases: list[tuple[str, bytes]] = []
    for n in (1, 3, 17, 1000, 65537):
        cases.append((f"run-{n}", b"A" * n))
    cases.append(
        (
            "run-soup",
            b"".join(
                bytes([rng.randrange(4)]) * rng.randrange(1, 40)
                for _ in range(1500)
            ),
        )
    )
    base = bytes(rng.randrange(256) for _ in range(512))
    cases.append(
        (
            "repeat-soup",
            b"".join(
                base[rng.randrange(0, 256) : rng.randrange(256, 512)]
                for _ in range(200)
            ),
        )
    )
    for p in (1, 2, 3, 4, 7, 15):
        pat = bytes(rng.randrange(256) for _ in range(p))
        cases.append((f"periodic-{p}", pat * (20000 // p)))
    cases.append(
        ("noise", bytes(rng.randrange(256) for _ in range(30000)))
    )
    mix = bytearray()
    for _ in range(150):
        r = rng.random()
        if r < 0.4:
            mix += bytes([rng.randrange(8)]) * rng.randrange(1, 300)
        elif r < 0.7:
            mix += bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 200))
            )
        else:
            mix += base[: rng.randrange(1, 512)]
    cases.append(("mixed", bytes(mix)))
    for s in (b"", b"a", b"ab", b"abc", b"abcd", b"aab", b"abcabc"):
        cases.append((f"tiny-{len(s)}-{s.decode() or 'empty'}", s))
    # Wave-segment boundary (the matcher batches positions in 32768-wide
    # segments): matches and regime changes that straddle the seam.
    cases.append(("straddle-periodic", (b"xyz" * 11000)[:32769]))
    cases.append(
        (
            "straddle-run-noise",
            b"\x01" * 32767
            + bytes(rng.randrange(256) for _ in range(100)),
        )
    )
    cases.append(
        (
            "straddle-noise-run",
            bytes(rng.randrange(256) for _ in range(32700)) + b"\x09" * 5000,
        )
    )
    return cases


CORPUS = _corpus()
CORPUS_IDS = [name for name, _ in CORPUS]

#: The datasets of the ``pack_zlib`` benchmark: three hard ones whose
#: pyzlib traffic is the ID stream alone, and flash_gamc, which also
#: sends an ISOBAR column group.
PACK_DATASETS = ("gts_phi_l", "msg_bt", "obs_info", "flash_gamc")


@lru_cache(maxsize=None)
def _pipeline_streams(name: str) -> tuple[bytes, ...]:
    """Every pyzlib input of one 256 KiB PRIMACY chunk of ``name``."""
    seen: list[bytes] = []
    compress = DeflateCodec.compress

    def record(codec, data):
        seen.append(bytes(data))
        return compress(codec, data)

    with mock.patch.object(DeflateCodec, "compress", record):
        PrimacyCompressor(PrimacyConfig(chunk_bytes=256 * 1024)).compress(
            generate_bytes(name, 32768, seed=3)
        )
    return tuple(seen)


def _oracle_parse_state(blen: np.ndarray, limit: int) -> tuple[list, list]:
    """The list-based parse state the memoryview walk replaced."""
    absorb = limit + 1
    idx = np.arange(limit + 1, dtype=np.int64)
    has_match = blen[:-1] > 0
    nxt = np.minimum.accumulate(
        np.where(has_match, idx, absorb)[::-1]
    )[::-1].tolist()
    return blen.tolist(), nxt


def _oracle_parse_heads(
    blen: np.ndarray, limit: int, lazy: bool, state=None
) -> np.ndarray:
    """The list-based greedy/lazy parse walk (equivalence oracle)."""
    bl, nxt = _oracle_parse_state(blen, limit) if state is None else state
    heads: list[int] = []
    i = 0
    while i <= limit:
        length = bl[i]
        if not length:
            i = nxt[i]
            continue
        if lazy and bl[i + 1] > length:
            i += 1
            continue
        heads.append(i)
        i += length
    return np.asarray(heads, dtype=np.int64)


def _match_table(data: bytes, chain: int = 8) -> tuple[np.ndarray, int]:
    """A real best-match-length table over ``data`` (with the sentinel)."""
    arr = np.frombuffer(data, dtype=np.uint8)
    limit = arr.size - ref.MIN_MATCH
    blen = np.zeros(limit + 2, dtype=np.int64)
    win = batch._windows64(arr)
    pos = np.arange(limit + 1, dtype=np.int64)
    prev = batch._build_prev(win[pos] >> np.uint64(32), pos, limit + 1)
    blen[:-1], _ = batch._segment_best(
        arr, win, prev, pos, chain, ref.MIN_MATCH, {}
    )
    return blen, limit


def _tables() -> list[tuple[str, np.ndarray, int]]:
    # Inputs shorter than MIN_MATCH never reach the parse walk.
    tables = [
        (name, *_match_table(data))
        for name, data in CORPUS
        if len(data) >= ref.MIN_MATCH
    ]
    for ds in PACK_DATASETS:
        for k, data in enumerate(_pipeline_streams(ds)):
            tables.append((f"{ds}-{k}", *_match_table(data)))
    rng = np.random.default_rng(17)
    for density in (0.0, 0.02, 0.3, 1.0):
        limit = 4000
        blen = np.zeros(limit + 2, dtype=np.int64)
        hit = rng.random(limit + 1) < density
        blen[:-1][hit] = rng.integers(4, 40, int(hit.sum()))
        tables.append((f"random-{density}", blen, limit))
    return tables

# (max_chain, lazy): min/default/deep greedy plus both lazy tiers.
LEVELS = [(1, False), (4, False), (32, False), (64, True), (256, True)]
LEVEL_IDS = [f"chain{c}{'-lazy' if lz else ''}" for c, lz in LEVELS]


@pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
class TestLz77ParseEquivalence:
    @pytest.mark.parametrize(("chain", "lazy"), LEVELS, ids=LEVEL_IDS)
    def test_roundtrip_and_cross_decode(self, name, data, chain, lazy):
        s_bat = batch.tokenize(data, max_chain=chain, lazy=lazy)
        s_ref = ref.tokenize(data, max_chain=chain, lazy=lazy)
        # Batch parse round-trips under both reassemblers ...
        assert batch.reassemble(s_bat) == data
        assert ref.reassemble(s_bat) == data
        # ... and the batch reassembler decodes the reference parse.
        assert batch.reassemble(s_ref) == data

    def test_token_streams_are_valid(self, name, data):
        s_bat = batch.tokenize(data, max_chain=32)
        s_bat.validate()
        if s_bat.n_matches:
            assert int(s_bat.match_lens.min()) >= ref.MIN_MATCH
            assert int(s_bat.match_dists.min()) >= 1


class TestParseWalk:
    """The zero-copy parse walk against the list-based oracle."""

    @pytest.fixture(scope="class")
    def tables(self):
        return _tables()

    @pytest.mark.parametrize("lazy", [False, True], ids=["greedy", "lazy"])
    def test_heads_match_oracle(self, tables, lazy):
        for name, blen, limit in tables:
            got = batch._parse_heads(blen, limit, lazy)
            want = _oracle_parse_heads(blen, limit, lazy)
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("lazy", [False, True], ids=["greedy", "lazy"])
    def test_state_sees_in_place_deepening(self, tables, lazy):
        # Polish rounds deepen existing matches in place and reuse the
        # state: the length view must see them with no rebuild, exactly
        # as a fresh state (and the oracle) would.
        rng = np.random.default_rng(23)
        for name, blen, limit in tables:
            blen = blen.copy()
            state = batch._parse_state(blen, limit)
            starts = np.flatnonzero(blen[: limit + 1])
            if starts.size:
                picked = rng.choice(starts, size=min(50, starts.size))
                blen[picked] += rng.integers(1, 9, picked.size)
            got = batch._parse_heads(blen, limit, lazy, state)
            assert np.array_equal(got, _oracle_parse_heads(blen, limit, lazy)), name
            assert np.array_equal(got, batch._parse_heads(blen, limit, lazy)), name

    def test_state_is_zero_copy(self):
        blen, limit = _match_table(dict(CORPUS)["mixed"])
        lengths, starts = batch._parse_state(blen, limit)
        assert isinstance(lengths, memoryview)
        assert isinstance(starts, memoryview)
        assert np.shares_memory(np.asarray(lengths), blen)

    @pytest.mark.parametrize("lazy", [False, True], ids=["greedy", "lazy"])
    def test_new_start_after_a_start_is_seen(self, lazy):
        # A position with no match that gains one is missing from a
        # reused state's match starts.  Right after an existing start --
        # the lazy peek the polish rounds search -- the walk still
        # reaches it by reading lengths, exactly as a fresh state does.
        limit = 40
        blen = np.zeros(limit + 2, dtype=np.int64)
        blen[[0, 9, 30]] = [4, 3, 4]
        state = batch._parse_state(blen, limit)
        blen[10] = 6
        want = _oracle_parse_heads(blen, limit, lazy)
        assert want.tolist() == ([0, 10, 30] if lazy else [0, 9, 30])
        assert np.array_equal(batch._parse_heads(blen, limit, lazy, state), want)
        # Inside a literal gap, with no start right before it, the jump
        # over the old starts steps over it.
        blen[20] = 5
        got = batch._parse_heads(blen, limit, lazy, state)
        assert 20 not in got.tolist()
        assert 20 in batch._parse_heads(blen, limit, lazy).tolist()

    def test_polish_never_walks_a_stale_state(self):
        # Polish rounds deepen heads and search lazy peek positions
        # between walks over one reused state; every such walk must give
        # the heads a fresh state gives.
        walk = batch._parse_heads
        reused = []

        def checked(blen, limit, lazy, state=None):
            heads = walk(blen, limit, lazy, state)
            if state is not None:
                reused.append(1)
                assert np.array_equal(heads, walk(blen, limit, lazy))
            return heads

        inputs = [data for _, data in CORPUS]
        for ds in PACK_DATASETS:
            inputs += _pipeline_streams(ds)
        with mock.patch.object(batch, "_parse_heads", checked):
            for data in inputs:
                for chain in (64, 256):
                    batch.tokenize(data, max_chain=chain, lazy=True)
        assert reused

    @pytest.mark.parametrize("name", PACK_DATASETS)
    def test_pipeline_streams_round_trip(self, name):
        for data in _pipeline_streams(name):
            for chain, lazy in ((32, False), (256, True)):
                stream = batch.tokenize(data, max_chain=chain, lazy=lazy)
                stream.validate()
                assert ref.reassemble(stream) == data


@pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
class TestBwtStackByteIdentity:
    def test_stagewise(self, name, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        last, primary = bwt_transform(arr)
        ranks_ref = bwtmod.mtf_encode(last)
        ranks_bat = batch.mtf_encode(last)
        np.testing.assert_array_equal(ranks_bat, ranks_ref)
        syms_ref = bwtmod._rle0_encode(ranks_ref)
        syms_bat = batch.rle0_encode(ranks_ref)
        np.testing.assert_array_equal(syms_bat, syms_ref)
        np.testing.assert_array_equal(
            batch.rle0_decode(syms_ref, max_size=arr.size),
            bwtmod._rle0_decode(syms_ref),
        )
        np.testing.assert_array_equal(batch.mtf_decode(ranks_ref), last)
        np.testing.assert_array_equal(
            batch.bwt_inverse(last, primary), arr
        )


class TestCodecBackends:
    """Whole-codec behaviour across ``kernels=`` backends."""

    @pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
    def test_pybzip_streams_byte_identical(self, name, data):
        blob_bat = BwtCodec(kernels="batch").compress(data)
        blob_ref = BwtCodec(kernels="reference").compress(data)
        assert blob_bat == blob_ref
        assert BwtCodec(kernels="batch").decompress(blob_ref) == data
        assert BwtCodec(kernels="reference").decompress(blob_bat) == data

    @pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
    def test_pyzlib_cross_backend_decode(self, name, data):
        for level in (1, 6, 9):
            blob_bat = DeflateCodec(level=level, kernels="batch").compress(
                data
            )
            blob_ref = DeflateCodec(
                level=level, kernels="reference"
            ).compress(data)
            assert (
                DeflateCodec(level=level, kernels="reference").decompress(
                    blob_bat
                )
                == data
            )
            assert (
                DeflateCodec(level=level, kernels="batch").decompress(
                    blob_ref
                )
                == data
            )

    def test_pyzlib_ratio_stays_close(self):
        # The parse-equivalence contract allows different bytes; keep
        # the drift honest (within a few percent either way).
        rng = random.Random(3)
        base = bytes(rng.randrange(256) for _ in range(512))
        data = b"".join(
            base[rng.randrange(0, 256) : rng.randrange(256, 512)]
            for _ in range(300)
        )
        for level in (1, 6, 9):
            n_bat = len(DeflateCodec(level=level).compress(data))
            n_ref = len(
                DeflateCodec(level=level, kernels="reference").compress(data)
            )
            assert n_bat <= n_ref * 1.08
            assert n_ref <= n_bat * 1.08

    @pytest.mark.parametrize("name", PACK_DATASETS)
    def test_pyzlib_ratio_stays_close_on_pipeline_streams(self, name):
        # The level-6 traffic of the pack workload: ID streams (all four
        # datasets) and flash_gamc's ISOBAR column group.  Batch must
        # never cost more than 1% over the reference walk.  It may come
        # out smaller: its exact-gram chains spend no depth on hash
        # collisions, which saves up to ~13% on the hard ID streams.
        for data in _pipeline_streams(name):
            blob_bat = DeflateCodec(level=6).compress(data)
            n_ref = len(DeflateCodec(level=6, kernels="reference").compress(data))
            assert len(blob_bat) <= n_ref * 1.01
            assert n_ref <= len(blob_bat) * 1.25
            assert DeflateCodec(kernels="reference").decompress(blob_bat) == data

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            DeflateCodec(kernels="simd")
        with pytest.raises(ValueError):
            BwtCodec(kernels="simd")


class TestKernelEdgeCases:
    def test_rle0_decode_bounds_expansion(self):
        from repro.compressors.base import CodecError

        # RUNA digits decode to a huge zero run; the cap must trip
        # before any giant allocation.
        bomb = np.zeros(64, dtype=np.int64)  # 2^64-ish zeros
        with pytest.raises(CodecError):
            batch.rle0_decode(bomb, max_size=1 << 20)

    def test_empty_arrays(self):
        empty_u8 = np.zeros(0, dtype=np.uint8)
        empty_i64 = np.zeros(0, dtype=np.int64)
        assert batch.mtf_encode(empty_u8).size == 0
        assert batch.mtf_decode(empty_i64).size == 0
        assert batch.rle0_encode(empty_i64).size == 0
        assert batch.rle0_decode(empty_i64, max_size=0).size == 0
        assert batch.bwt_inverse(empty_u8, 0).size == 0

    def test_tokenize_kwargs_match_reference(self):
        data = b"kernel kwargs must agree " * 40
        for kw in (
            {"min_match": 5},
            {"max_chain": 0},
            {"skip_trigger": 2},
        ):
            s = batch.tokenize(data, **kw)
            assert batch.reassemble(s) == data
            assert ref.reassemble(s) == data
