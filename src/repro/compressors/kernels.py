"""Batch NumPy entropy-coder kernels (the ``batch`` backend).

The reference entropy stages in :mod:`repro.compressors.lz77` and
:mod:`repro.compressors.bwt` walk the input one token (or one byte) at a
time in Python.  After the PR-5 chunk kernels, those walks are >90 % of
end-to-end compress wall time.  This module rebuilds every hot loop as a
batch NumPy kernel, following the same playbook as
:mod:`repro.core.kernels`: the naive implementations stay frozen as the
``reference`` backend and equivalence oracle, selected per codec with
``DeflateCodec(kernels=...)`` / ``BwtCodec(kernels=...)``.

Kernel inventory (each names its reference twin):

* :func:`tokenize` -- bulk hash-chain LZ77 matcher, built in stages:
  byte-run interiors get their exact distance-1 match assigned up
  front and are excluded from the chain tables (zlib's run trick, in
  bulk); the remaining positions chain on *exact* 4-byte grams (one
  sort of 64-bit gram/position keys + scatter), so no chain depth is
  spent on hash collisions; a depth-1 "scout" probe reads a match
  length for every chainable position straight off 8-byte windows;
  then parse and search alternate -- each round walks the greedy/lazy
  parse over current best lengths (an O(tokens) walk over zero-copy
  ``memoryview`` s) and deep-searches (full ``max_chain``, batched
  8-byte word compares, cached per-distance mismatch indexes) only
  positions that parse actually visits, converging when the visited
  set stops growing.  The parse is *round-trip exact* and decodes
  byte-identically under either backend, but it may pick different
  (equally valid) matches than the reference greedy walk, so ``pyzlib``
  streams are backend-dependent on the encode side.  Every other kernel
  in this module is a deterministic transform and is **byte-identical**
  to its reference twin.
* :func:`reassemble` -- one-pass decode: all literal runs land in a
  preallocated output buffer with a single vectorized scatter; matches
  are raw ``memoryview`` block copies, with exponential doubling for
  overlapping (period < length) copies.
* :func:`mtf_encode` -- move-to-front via bitmask dominance counts: the
  input splits into 64-position blocks, one ``uint64`` lane per block,
  and a position's rank decomposes into popcounts of three AND-ed masks
  (a prefix of the within-block sort by previous-occurrence time, a
  positional window, and a first-in-block filter) plus a block-start
  rank from a running last-occurrence grid.  No Python-level list is
  ever touched.
* :func:`mtf_decode` -- run-cycle decoding over a ``bytearray``
  alphabet: a run of ``k`` equal ranks ``r`` emits a periodic cycle of
  ``r + 1`` entries and leaves that prefix rotated, so runs (the
  overwhelmingly common case on post-BWT data) decode with one slice
  repeat and one slice rotation each; streams with few runs fall back
  to a plain byte walk.
* :func:`rle0_encode` / :func:`rle0_decode` -- zero runs extracted with
  ``flatnonzero`` edge detection; bijective base-2 RUNA/RUNB digits
  generated and consumed with ``repeat``/``cumsum``/``reduceat``
  arithmetic instead of per-symbol loops.
* :func:`bwt_inverse` -- the LF-mapping permutation is walked with
  ``np.take`` doubling (``seq[f:2f] = J[seq[:f]]``, squaring ``J`` as it
  goes), replacing the n-iteration Python walk with ``O(log n)``
  vectorized gathers over ``int32`` tables.

Memory: the matcher materializes ``prev[]`` (int64) and 8-byte windows
(uint64) over the input, ~16 bytes per input byte -- fine for chunk-sized
buffers, which is the only way the pipeline calls it.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.compressors.base import CodecError
from repro.compressors.lz77 import MIN_MATCH, TokenStream

__all__ = [
    "tokenize",
    "reassemble",
    "mtf_encode",
    "mtf_decode",
    "rle0_encode",
    "rle0_decode",
    "bwt_inverse",
]

# Lanes (searched positions) per candidate-search wave.  Larger waves
# amortize the per-wave NumPy dispatch overhead; smaller waves keep the
# working set cache-resident.
_SEGMENT = 32768
# Word-compare rounds before the extend loop first weighs handing the
# remaining batch to the mismatch-index finisher (re-weighed every 8
# rounds after that): matches up to 32+7 bytes always stay in the word
# loop.
_WORD_ROUNDS = 4
# Mismatch-index cache: at most this many distances, and only sparse
# indexes (dense ones mean the match ends fast and is cheap anyway).
_ED_CACHE_CAP = 64
# Longest extension the mismatch-index finisher resolves exactly.  A
# truncated match stays a valid token (the parse re-enters the repeat
# at the cut), so a generous cap costs at most one extra token per
# _MAX_EXTEND matched bytes while keeping every mismatch scan bounded.
_MAX_EXTEND = 4096
# Quick-reject survivors accumulate across chain depths and extend in
# one batch once this many lanes are pending -- the extend cost is
# dispatch-bound at small batch sizes, so fewer, larger calls win.
_FLUSH_LANES = 4096
# Parse/deep-search alternation caps.  _DEEP_ROUNDS full rounds search
# every parse-visited position (heads and literal gaps, the set the
# reference walk searches); the tail of convergence is handed to up to
# _POLISH_ROUNDS cheaper rounds that search emitted heads only, and
# stop early once fewer than 1/_POLISH_TAIL of the heads are stale.
_DEEP_ROUNDS = 2
_POLISH_ROUNDS = 8
_POLISH_TAIL = 16

_RUNA = 0
_RUNB = 1
_SYM_SHIFT = 2

_MTF_BLOCK = 64  # positions per bitmask block (one uint64 lane each)

# _LOW[j] = mask of bits 0..j-1; index 64 = all ones.
_LOW = np.array([(1 << j) - 1 for j in range(65)], dtype=np.uint64)


# --------------------------------------------------------------------- #
# LZ77: bulk hash-chain matcher                                          #
# --------------------------------------------------------------------- #


def _windows64(arr: np.ndarray) -> np.ndarray:
    """Big-endian 8-byte windows anchored at every byte position."""
    n = arr.size
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = arr
    # One overlapping big-endian view (stride 1 byte), converted to
    # native order in a single pass.
    view = np.ndarray((n + 1,), dtype=">u8", buffer=padded, strides=(1,))
    return view.astype(np.uint64)


def _build_prev(grams: np.ndarray, pos: np.ndarray, size: int) -> np.ndarray:
    """Most recent earlier position with the same 4-byte gram (-1: none).

    ``grams[k]`` is the gram at position ``pos[k]`` (ascending), held in
    the low 32 bits of a uint64; the table covers positions
    ``0 .. size - 1``, and positions outside ``pos`` stay -1.  One sort
    groups positions by gram (ascending inside each group), so every
    chain link is a single scatter -- the batch
    equivalent of the incremental head/prev table build.  Unlike the
    reference walk's 16-bit hash chains, keys are the *exact* 4-byte
    grams: every chain candidate truly shares the ``MIN_MATCH`` prefix,
    so no chain depth is ever spent wading through hash collisions.
    """
    prev = np.full(size, -1, dtype=np.int64)
    if grams.size > 1:
        # One plain sort of (gram << 32 | position) keys is a stable
        # argsort by gram: positions come out ascending inside each
        # group.  A 64-bit value sort is several times cheaper than an
        # index argsort (positions fit in 32 bits for any buffer the
        # matcher's ~16 bytes/byte working set can hold).
        keys = grams << np.uint64(32)
        keys |= np.arange(grams.size, dtype=np.uint64)
        keys.sort()
        order = (keys & np.uint64(0xFFFFFFFF)).view(np.int64)
        keys >>= np.uint64(32)
        same = keys[1:] == keys[:-1]
        prev[pos[order[1:][same]]] = pos[order[:-1][same]]
    return prev


def _run_remaining(arr: np.ndarray) -> np.ndarray:
    """``out[i]`` = remaining length of the byte-run containing ``i``."""
    n = arr.size
    ends = np.append(np.flatnonzero(arr[1:] != arr[:-1]), n - 1)
    out = np.repeat(ends + 1, np.diff(ends, prepend=-1))
    out -= np.arange(n, dtype=np.int64)
    return out


def _extend_lengths(
    data_arr: np.ndarray,
    win: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    maxl: np.ndarray,
    ed_cache: dict[int, np.ndarray],
) -> np.ndarray:
    """Common-prefix lengths of ``data[a:]`` vs ``data[b:]``, capped at
    ``maxl``, for a batch of candidate pairs (``a < b`` elementwise)."""
    length = np.zeros(a.size, dtype=np.int64)
    alive = np.ones(a.size, dtype=bool)
    word_mis = np.zeros(a.size, dtype=bool)
    rounds = 0
    check = _WORD_ROUNDS
    wide = False
    woff = np.arange(8, dtype=np.int64)
    n8 = win.size - 1  # win is zero-padded: index n is always valid
    while True:
        idx = np.flatnonzero(alive & (length + 8 <= maxl))
        if idx.size == 0:
            break
        if rounds >= check:
            # Past the first rounds, pick a strategy for the batch
            # that is still extending.  The mismatch-index finisher
            # below costs one vectorized pass per *distinct distance*,
            # so it wins when distances are shared (periodic data) or
            # the batch is small; word-stepping wins when many
            # scattered distances each have a handful of lanes
            # (repeated-region data), where per-distance passes would
            # dwarf a few more 8-byte rounds.
            if idx.size < 32 or rounds >= _MAX_EXTEND >> 3:
                break
            nd = np.unique(b[idx] - a[idx]).size
            if nd * 16 <= idx.size:
                break
            check = rounds + 8
            wide = True
        if wide:
            # Wide rounds: once the batch has committed to stepping,
            # compare 8 words (64 bytes) per pass with one 2-D gather,
            # amortizing the per-round bookkeeping that dominates long
            # scattered-distance extends.  Words past the cap are
            # masked out; a lane that exhausts its valid words without
            # mismatching falls through to the ragged tail.
            rounds += 8
            lt = length[idx]
            rem_w = np.minimum((maxl[idx] - lt) >> 3, 8)
            at = np.minimum(a[idx, None] + lt[:, None] + (woff << 3), n8)
            bt = np.minimum(b[idx, None] + lt[:, None] + (woff << 3), n8)
            eq2 = (win[at] == win[bt]) & (woff < rem_w[:, None])
            adv = np.cumprod(eq2, axis=1).sum(axis=1)
            length[idx] = lt + (adv << 3)
            stopped = idx[adv < rem_w]
            word_mis[stopped] = True
            alive[stopped] = False
            continue
        rounds += 1
        wa = win[a[idx] + length[idx]]
        eq = wa == win[b[idx] + length[idx]]
        # Run fast-forward: when both windows are one repeated byte --
        # the dominant case on preconditioned ID streams -- the match
        # continues for the rest of the shorter run, and ends there if
        # the runs differ in length (the next byte then differs on
        # exactly one side).  One jump replaces up to thousands of
        # word rounds and keeps single-byte runs out of the mismatch
        # index, whose per-distance cost explodes when every run pairs
        # with every earlier run of the same byte.
        rep = eq & (wa == (wa >> np.uint64(56)) * np.uint64(0x0101010101010101))
        ri = np.flatnonzero(rep)
        if ri.size:
            runs = ed_cache.get(-1)
            if runs is None:
                runs = _run_remaining(data_arr)
                ed_cache[-1] = runs
            ii = idx[ri]
            jump = np.minimum(
                runs[a[ii] + length[ii]], runs[b[ii] + length[ii]]
            )
            length[ii] += np.minimum(jump, maxl[ii] - length[ii])
            # Lanes stay alive: equal-length runs may keep matching past
            # the run end (next round decides); unequal runs mismatch at
            # the jump target, which the next round's word compare or
            # tail path resolves with zero extra bytes.
            eq[ri] = False  # handled; drop out of the plain +8 path
        length[idx[eq]] += 8
        word_mis[idx[~eq & ~rep]] = True
        alive[idx[~eq & ~rep]] = False

    # Word mismatch: the first differing byte is inside the next 8 (all
    # in bounds, because the word round required length + 8 <= maxl).
    idx = np.flatnonzero(word_mis)
    if idx.size:
        off = np.arange(8, dtype=np.int64)
        at = a[idx, None] + length[idx, None] + off
        bt = b[idx, None] + length[idx, None] + off
        length[idx] += np.argmin(data_arr[at] == data_arr[bt], axis=1)

    # Ragged tail: fewer than 8 bytes left before the cap.
    tail = np.flatnonzero(alive & (length + 8 > maxl) & (length < maxl))
    if tail.size:
        rem = maxl[tail] - length[tail]
        off = np.arange(8, dtype=np.int64)
        hi = data_arr.size - 1
        at = np.minimum(a[tail, None] + length[tail, None] + off, hi)
        bt = np.minimum(b[tail, None] + length[tail, None] + off, hi)
        eqm = (data_arr[at] == data_arr[bt]) | (off >= rem[:, None])
        run = np.cumprod(eqm, axis=1).sum(axis=1)
        length[tail] += np.minimum(run, rem)

    # Long matches (> _WORD_ROUNDS words): resolve against the mismatch
    # index E_d = {x : data[x] != data[x - d]} -- the match from b at
    # distance d ends at the first such x at or after b.  Each distinct
    # distance costs one vectorized compare over the buffer, and sparse
    # indexes (periodic data, the worst case for per-lane scans) are
    # cached for the whole parse; dense indexes are used once -- a dense
    # index means matches at that distance die fast anyway.
    long_idx = np.flatnonzero(alive & (length + 8 <= maxl))
    if long_idx.size:
        n = data_arr.size
        dists = b[long_idx] - a[long_idx]
        for d in np.unique(dists).tolist():
            lanes = long_idx[np.flatnonzero(dists == d)]
            bpos = b[lanes]
            # A *full* index (prebuilt or cached) answers with the true
            # mismatch position, so the match resolves exactly -- vital
            # on periodic data, where matches run to the buffer end and
            # any artificial cap would leave the lane re-extending at
            # every later chain depth.  Only a *localized* index caps
            # the result, at _MAX_EXTEND extra bytes, to bound its scan
            # window.
            cap = maxl[lanes]
            ed = ed_cache.get(d)
            if ed is None:
                wcap = np.minimum(cap, length[lanes] + _MAX_EXTEND)
                lo = int(bpos.min())
                hi = min(int((bpos + wcap).max()), n)
                if lanes.size >= 256 or hi - lo > n // 2:
                    # Many lanes share this distance (periodic data --
                    # where capped windows would leave every lane alive
                    # and inching forward at each chain depth), or the
                    # lanes already span most of the buffer: one full
                    # index, cached when sparse enough to be worth
                    # keeping.
                    ed = np.flatnonzero(data_arr[d:] != data_arr[:-d]) + d
                    if (
                        len(ed_cache) < _ED_CACHE_CAP
                        and ed.size <= max(1024, n // 4)
                    ):
                        ed_cache[d] = ed
                else:
                    # Localized lanes: compare only the spanned window
                    # (b >= d always holds, so the shifted slice is in
                    # bounds).
                    ed = (
                        np.flatnonzero(
                            data_arr[lo:hi] != data_arr[lo - d : hi - d]
                        )
                        + lo
                    )
                    cap = wcap
            j = np.searchsorted(ed, bpos)
            mis = np.full(lanes.size, n, dtype=np.int64)
            ok = j < ed.size
            mis[ok] = ed[j[ok]]
            length[lanes] = np.minimum(mis - bpos, cap)
    return length


def _segment_best(
    data_arr: np.ndarray,
    win: np.ndarray,
    prev: np.ndarray,
    pos: np.ndarray,
    max_chain: int,
    min_match: int,
    ed_cache: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Best match (length, distance) for every position in ``pos``.

    Walks all hash chains for the segment in lock-step: at each depth,
    open lanes quick-reject (prefix windows plus the byte that would
    extend their current best -- the reference walk's test), then
    batch-extend the survivors.  A lane closes when its chain ends or
    it already matched to the end of the buffer, mirroring the
    reference walk's early exits.  Positions that find no match return
    length 0.
    """
    n = data_arr.size
    m = pos.size
    cur = np.full(m, min_match - 1, dtype=np.int64)
    best_dist = np.zeros(m, dtype=np.int64)
    lane = np.arange(m, dtype=np.int64)
    pos_l = pos
    maxl_l = n - pos_l
    cand_l = prev[pos_l]

    # Survivors pend here between flushes; each flush extends them all
    # in one call and applies per-lane winners.
    pend: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    pend_n = 0

    def _flush() -> None:
        nonlocal pend_n
        cq = np.concatenate([p[0] for p in pend])
        pq = np.concatenate([p[1] for p in pend])
        mq = np.concatenate([p[2] for p in pend])
        qi = np.concatenate([p[3] for p in pend])
        pend.clear()
        pend_n = 0
        ext = _extend_lengths(data_arr, win, cq, pq, mq, ed_cache)
        if qi.size > 1:
            # One lane may have candidates from several depths: keep the
            # longest, tie-broken by earliest depth (pend order), which
            # is the nearest candidate -- the reference walk's rule.
            seq = np.arange(qi.size, dtype=np.int64)
            order = np.lexsort((seq, -ext, qi))
            qo = qi[order]
            keep = np.ones(qo.size, dtype=bool)
            keep[1:] = qo[1:] != qo[:-1]
            sel = order[keep]
            qi = qi[sel]
            ext = ext[sel]
            cq = cq[sel]
            pq = pq[sel]
        better = ext > cur[qi]
        upd = qi[better]
        cur[upd] = ext[better]
        best_dist[upd] = (pq - cq)[better]

    # ``cur`` only changes inside ``_flush``, so everything derived from
    # it -- the lane-closure test and the quick-reject shift -- is
    # refreshed after flushes instead of every depth.  The depth loop
    # itself only walks chains, rejects, and accumulates survivors.
    def _refresh() -> tuple[np.ndarray, ...]:
        cl = cur[lane]
        keep = cl < maxl_l
        if not keep.all():
            cl = cl[keep]
        shift = (
            np.uint64(8) - np.minimum(cl + 1, 8).astype(np.uint64)
        ) << np.uint64(3)
        if keep.all():
            return lane, pos_l, maxl_l, cand_l, wp_l, shift, cl
        return (
            lane[keep],
            pos_l[keep],
            maxl_l[keep],
            cand_l[keep],
            wp_l[keep],
            shift,
            cl,
        )

    wp_l = win[pos_l]
    lane, pos_l, maxl_l, cand_l, wp_l, shift, cl_l = _refresh()
    for depth in range(max_chain):
        if lane.size == 0:
            break
        alive = cand_l >= 0
        if not alive.all():
            lane = lane[alive]
            if lane.size == 0:
                break
            pos_l = pos_l[alive]
            maxl_l = maxl_l[alive]
            cand_l = cand_l[alive]
            wp_l = wp_l[alive]
            shift = shift[alive]
            cl_l = cl_l[alive]
        # Quick-reject, mirroring the reference walk's: to beat the
        # current best of ``cl`` bytes the candidate must agree on the
        # first min(cl + 1, 8) bytes (one masked xor of the precomputed
        # big-endian windows) *and* on the byte that would extend the
        # best, ``data[cand + cl] == data[pos + cl]`` (one gather; this
        # is what keeps long-match lanes cheap at depth).  ``cur`` lags
        # by up to one flush interval, so the reject is conservative
        # (never drops a true improvement) and ``_flush`` re-checks
        # ``better``.
        okm = ((win[cand_l] ^ wp_l) >> shift) == 0
        if okm.any():
            okw = np.flatnonzero(okm)
            deep = np.flatnonzero(cl_l[okw] >= 8)
            if deep.size:
                di = okw[deep]
                still = (
                    data_arr[cand_l[di] + cl_l[di]]
                    == data_arr[pos_l[di] + cl_l[di]]
                )
                okm[di[~still]] = False
                okw = np.flatnonzero(okm)
            if okw.size:
                pend.append(
                    (cand_l[okw], pos_l[okw], maxl_l[okw], lane[okw])
                )
                pend_n += okw.size
                # Flush unconditionally after the first two depths: the
                # nearest candidates set most lanes' final best, and a
                # tight ``cur`` arms the byte-at-``cl`` reject for the
                # whole rest of the chain -- mirroring how the
                # reference walk's threshold rises as it descends.
                if pend_n >= _FLUSH_LANES or depth < 2:
                    _flush()
                    lane, pos_l, maxl_l, cand_l, wp_l, shift, cl_l = (
                        _refresh()
                    )
        cand_l = prev[cand_l]
    if pend_n:
        _flush()
    best_len = np.where(best_dist > 0, cur, 0)
    return best_len, best_dist


def _deep_search(
    data_arr: np.ndarray,
    win: np.ndarray,
    prev: np.ndarray,
    blen: np.ndarray,
    bdist: np.ndarray,
    targets: np.ndarray,
    max_chain: int,
    min_match: int,
    ed_cache: dict[int, np.ndarray],
) -> None:
    """Full-depth chain search of ``targets``; improves blen/bdist in place.

    ``targets`` are distinct positions, searched in waves of at most
    ``_SEGMENT`` lanes, so the cost follows the target count, not the
    buffer size.
    """
    for s in range(0, targets.size, _SEGMENT):
        pos = targets[s : s + _SEGMENT]
        bl, bd = _segment_best(
            data_arr, win, prev, pos, max_chain, min_match, ed_cache
        )
        upd = bl > blen[pos]
        blen[pos[upd]] = bl[upd]
        bdist[pos[upd]] = bd[upd]


def _parse_state(blen: np.ndarray, limit: int) -> tuple[memoryview, memoryview]:
    """Zero-copy parse inputs: per-position lengths + sorted match starts.

    Both are ``memoryview`` s over int64 arrays, which the walk indexes
    as Python ints with no O(n) ``tolist`` copy.  The length view
    aliases ``blen`` itself, so deepening an existing match in place is
    seen by the next walk with no rebuild.  The match-start array only
    depends on *where* matches exist, not on how long they are.  A
    position that gains its first match later is missing from it, and a
    literal-gap jump steps over it -- unless the positions from a listed
    start up to it all hold matches, so that the walk reaches it by
    reading lengths.
    """
    return memoryview(blen), memoryview(np.flatnonzero(blen[: limit + 1]))


def _parse_heads(
    blen: np.ndarray,
    limit: int,
    lazy: bool,
    state: tuple[memoryview, memoryview] | None = None,
) -> np.ndarray:
    """Emitted match heads of the greedy/lazy parse over ``blen``.

    ``blen`` is the per-position best-match-length array including the
    sentinel slot at ``limit + 1``.  The parse follows the successor
    ``f(i) = i + len(i)`` (match), ``i + 1`` (lazy deferral) or the next
    match start (literal gap, one ``bisect`` over the sorted starts), so
    the walk is O(tokens), not O(positions).  ``state`` reuses a
    :func:`_parse_state`.
    """
    bl, starts = _parse_state(blen, limit) if state is None else state
    n_starts = len(starts)
    heads: list[int] = []
    append = heads.append
    i = k = 0
    while i <= limit:
        length = bl[i]
        if not length:
            k = bisect_left(starts, i, k)
            if k == n_starts:
                break
            i = starts[k]
            continue
        if lazy and bl[i + 1] > length:
            i += 1
            continue
        append(i)
        i += length
    return np.asarray(heads, dtype=np.int64)


def tokenize(
    data: bytes,
    *,
    max_chain: int = 16,
    min_match: int = MIN_MATCH,
    skip_trigger: int = 6,
    lazy: bool = False,
) -> TokenStream:
    """Batch greedy (optionally lazy) LZ77 parse of ``data``.

    Drop-in for :func:`repro.compressors.lz77.tokenize` (same signature;
    ``skip_trigger`` is accepted for parity but unused -- the batch
    matcher's cost on incompressible data is bounded by its empty hash
    chains, not by a skip stride). The stages: run interiors take their
    exact distance-1 match from a vectorized run-length table; a
    no-extend *scout* probes every other position against its nearest
    chain candidate straight off the 8-byte windows; then full-depth
    candidate waves re-search only the positions the parse visits,
    alternating parse and search until the visited set stops growing,
    with a final polish that re-searches any still-scout-capped
    *emitted* heads against the in-place parse state. Every stage only
    ever records real matches, so the parse is round-trip exact at every
    round.
    """
    if min_match < MIN_MATCH:
        raise ValueError(f"min_match must be >= {MIN_MATCH}")
    data = bytes(data)
    n = len(data)
    empty = np.zeros(0, dtype=np.int64)
    if n < min_match or max_chain <= 0:
        return TokenStream(
            np.array([n], dtype=np.int64), empty, empty, data, n
        )

    data_arr = np.frombuffer(data, dtype=np.uint8)
    win = _windows64(data_arr)
    limit = n - min_match
    ed_cache: dict[int, np.ndarray] = {}

    # Best match per position, in cache-friendly waves.  The sentinel
    # slot at limit + 1 keeps the lazy comparison in bounds.
    blen = np.zeros(limit + 2, dtype=np.int64)
    bdist = np.zeros(limit + 2, dtype=np.int64)

    # Run pruning: a position strictly inside a byte-run matches at
    # distance 1 for the rest of the run, so it gets that match directly
    # and skips the chain walk.  Preconditioned ID streams are mostly
    # such positions, and whichever ones the parse actually lands on are
    # exactly the mid-run entries where the distance-1 match is the
    # natural emission.  Position i is interior when
    # data[i - 1 : i + min_match] is one repeated byte: min_match shifted
    # ANDs of the byte-equality mask, so run-free (incompressible) data
    # never builds the run-length table.
    same = data_arr[1:] == data_arr[:-1]
    interior = np.zeros(limit + 1, dtype=bool)
    interior[1:] = same[:limit]
    for k in range(1, min_match):
        interior[1:] &= same[k : limit + k]
    if interior.any():
        rem = _run_remaining(data_arr)
        ed_cache[-1] = rem
        np.multiply(rem[: limit + 1], interior, out=blen[:-1])
        bdist[:-1] = interior

    # Hash chains over the *exact* 4-byte grams of every non-interior
    # position.  Leaving run interiors out of the chains (zlib skips
    # inserting them too) keeps run-heavy data from chaining every run
    # byte to every other; matches into a run still reach it through
    # the run's start position.
    chainable = np.flatnonzero(~interior)
    grams = win[chainable]
    grams >>= np.uint64(32)
    prev = _build_prev(grams, chainable, limit + 1)

    # Scout pass: one depth-1 probe of every remaining position with no
    # extends at all -- the match length against the nearest hash-chain
    # candidate is read straight off the precomputed 8-byte windows
    # (capped at 8; a truncated match is still a valid token).  This
    # prices the all-positions sweep at a handful of vectorized ops.
    pos = np.flatnonzero(prev >= 0)
    cand = prev[pos]
    if pos.size:
        x = win[cand] ^ win[pos]
        length = np.full(pos.size, 8, dtype=np.int64)
        nz = np.flatnonzero(x)
        if nz.size:
            xv = x[nz]
            lead = (xv >> np.uint64(56)) == 0
            lead = lead.astype(np.int64)
            for t in range(48, 7, -8):
                lead += (xv >> np.uint64(t)) == 0
            length[nz] = lead
        length = np.minimum(length, n - pos)
        good = length >= min_match
        blen[pos[good]] = length[good]
        bdist[pos[good]] = (pos - cand)[good]

    # Deep rounds: full-depth search only where the parse actually goes.
    # Each round takes the parse of the current (always valid) match
    # table, deep-searches every parse-visited position -- emitted heads
    # and literal-gap bytes, exactly the set the reference walk
    # searches -- that no earlier round covered, then re-parses.
    # Compressible data converges in two or three rounds with a small
    # fraction of positions ever searched.  Positions with an empty hash
    # chain (run interiors included) can never gain a match, so they
    # count as searched from the start: on incompressible data that is
    # nearly every position, and the search wave shrinks to the few
    # chained ones.
    om = _parse_heads(blen, limit, lazy)
    searched = prev < 0
    for rnd in range(_DEEP_ROUNDS):
        # Positions strictly inside an emitted match ([head+1, end)) are
        # never parse-visited.  Toggle scatter + xor prefix: heads are
        # strictly increasing and matches never overlap, so the opening
        # toggles (om + 1) and the closing ones (ends) are disjoint.
        toggles = np.zeros(limit + 2, dtype=bool)
        toggles[om + 1] = True
        toggles[np.minimum(om + blen[om], limit + 1)] = True
        visited = ~np.logical_xor.accumulate(toggles[:-1])
        new = np.flatnonzero(visited & ~searched)
        if new.size == 0:
            break
        if rnd and new.size < max(128, (limit + 1) >> 8):
            # Convergence tail: a dwindling trickle of freshly visited
            # positions is not worth another parse round; they keep
            # their (valid) scout matches.  The first round, which
            # carries the bulk of the search, always runs.
            break
        searched[new] = True
        _deep_search(
            data_arr, win, prev, blen, bdist, new, max_chain,
            min_match, ed_cache,
        )
        om = _parse_heads(blen, limit, lazy)

    # Polish: the convergence break above can leave *emitted* heads
    # holding scout-capped (<= 8 byte) matches, which is where the
    # parse-equivalence ratio drift lives.  Keep deep-searching just the
    # never-searched emitted heads (and their lazy lookahead neighbours)
    # until the parse stabilizes -- or until the stale heads fall below
    # 1/_POLISH_TAIL of all heads, where another O(tokens) parse walk
    # costs more than the few bytes it could still save.  The parse
    # state is built once; its length view reads ``blen`` in place, so
    # deepened matches need no rebuild.  A lazy peek position (head + 1)
    # can gain its first match here, which the state's match starts
    # miss.  That never changes the walk: the peek extends an unbroken
    # block of matched positions that begins at a listed start, so a
    # literal-gap jump lands at or before that start, and from there the
    # walk reads the peek's length directly.
    state: tuple[memoryview, memoryview] | None = None
    for _ in range(_POLISH_ROUNDS):
        stale = om[~searched[om]]
        if lazy and om.size:
            peek = om + 1
            peek = peek[(peek <= limit) & ~searched[np.minimum(peek, limit)]]
            stale = np.union1d(stale, peek)
        if stale.size == 0 or stale.size * _POLISH_TAIL < om.size:
            break
        searched[stale] = True
        _deep_search(
            data_arr, win, prev, blen, bdist, stale, max_chain,
            min_match, ed_cache,
        )
        if state is None:
            state = _parse_state(blen, limit)
        om = _parse_heads(blen, limit, lazy, state)

    if om.size == 0:
        return TokenStream(
            np.array([n], dtype=np.int64), empty, empty, data, n
        )
    lens = blen[om]
    dists = bdist[om]
    ends = om + lens
    lit_runs = np.empty(om.size + 1, dtype=np.int64)
    lit_runs[0] = om[0]
    lit_runs[1:-1] = om[1:] - ends[:-1]
    lit_runs[-1] = n - ends[-1]

    # Literal bytes = positions outside every match interval, via one
    # toggle scatter and an xor prefix.  A match start colliding with
    # the previous match's end toggles twice and cancels.
    toggles = np.zeros(n + 1, dtype=bool)
    toggles[om] = True
    toggles[ends] ^= True
    literals = data_arr[~np.logical_xor.accumulate(toggles[:-1])].tobytes()
    return TokenStream(
        lit_runs,
        lens,
        dists,
        literals,
        n,
    )


def reassemble(stream: TokenStream) -> bytes:
    """One-pass inverse of :func:`tokenize` (either backend's parse).

    Byte-identical to :func:`repro.compressors.lz77.reassemble`.  The
    output buffer is preallocated; every literal byte lands with one
    vectorized scatter, and each match is a raw ``memoryview`` block
    copy (overlapping matches replicate their period with exponential
    doubling instead of materializing ``chunk * q`` temporaries).
    """
    stream.validate()
    n = stream.original_size
    runs = np.ascontiguousarray(stream.lit_runs, dtype=np.int64)
    lens = np.ascontiguousarray(stream.match_lens, dtype=np.int64)
    dists = np.ascontiguousarray(stream.match_dists, dtype=np.int64)
    if runs.size and int(runs.min()) < 0:
        raise CodecError("negative literal run")
    if lens.size == 0:
        if len(stream.literals) != n:
            raise CodecError("reassembled size mismatch")
        return stream.literals

    # Output offsets of every token, in one cumulative pass.
    runs_cum = np.cumsum(runs)
    lens_cum = np.concatenate(([0], np.cumsum(lens)))
    match_dst = runs_cum[:-1] + lens_cum[:-1]  # where match k starts
    if int(dists.max()) > 0 and bool(np.any(dists > match_dst)):
        raise CodecError("match distance reaches before buffer start")

    buf = bytearray(n)
    out = np.frombuffer(buf, dtype=np.uint8)
    lit = np.frombuffer(stream.literals, dtype=np.uint8)
    if lit.size:
        # Destination of literal run k minus its source offset, repeated
        # per byte: one fancy-index scatter places every literal.
        lit_dst = match_dst - runs[:-1]
        lit_dst = np.concatenate((lit_dst, [runs_cum[-1] + lens_cum[-1] - runs[-1]]))
        lit_src = np.concatenate(([0], runs_cum[:-1]))
        shift = np.repeat(lit_dst - lit_src, runs)
        out[shift + np.arange(lit.size, dtype=np.int64)] = lit

    # All copies below are between disjoint ranges of ``buf``, so plain
    # memcpy semantics through the memoryview are exact.
    with memoryview(buf) as mv:
        for dst, length, d in zip(
            match_dst.tolist(), lens.tolist(), dists.tolist()
        ):
            src = dst - d
            if d >= length:
                mv[dst : dst + length] = mv[src : src + length]
            else:
                # Overlapping copy == periodic run with period d: seed
                # one period, then double the filled region until
                # covered.
                mv[dst : dst + d] = mv[src:dst]
                filled = d
                while filled < length:
                    c = min(filled, length - filled)
                    mv[dst + filled : dst + filled + c] = mv[dst : dst + c]
                    filled += c
    return bytes(buf)


# --------------------------------------------------------------------- #
# BWT stack: MTF / RLE0 / inverse transform                              #
# --------------------------------------------------------------------- #


def mtf_encode(data: np.ndarray) -> np.ndarray:
    """Move-to-front transform via bitmask dominance counts.

    Byte-identical to :func:`repro.compressors.bwt.mtf_encode`.  The
    recency list is never materialized: with the input split into
    64-position blocks (one ``uint64`` bit lane per block), a position's
    rank decomposes as

    * **in-block case** (its byte already occurred in this block): the
      number of distinct bytes strictly inside the window ``(P[i], i)``,
      which is the popcount of *{positions ranked at or below i in the
      within-block sort by previous-occurrence time}* AND *{positions in
      the window}* -- every mask a single ``uint64`` per position;
    * **cross-block case**: the byte's rank in the block-start recency
      list (a ``searchsorted`` against per-block sorted last-occurrence
      rows) plus the popcount of first-in-block positions before ``i``
      whose byte sat behind ours at the block start.

    The block-start state itself comes from a (byte, block) grid of
    within-block last occurrences swept with one running maximum.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n = data.size
    if n == 0:
        return np.empty(0, dtype=np.int64)

    # Repeated bytes have rank 0 and leave the recency list untouched,
    # so only *change points* (data[i] != data[i-1]) need sequential
    # work.  When those are sparse -- post-BWT data is dominated by
    # runs -- a scalar walk over just the change points beats the
    # block machinery below by an order of magnitude.
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = data[1:] != data[:-1]
    cp = np.flatnonzero(change)
    if cp.size * 6 <= n:
        alphabet = list(range(256))
        vals = []
        append = vals.append
        for byte in data[cp].tolist():
            r = alphabet.index(byte)
            if r:
                del alphabet[r]
                alphabet.insert(0, byte)
            append(r)
        out = np.zeros(n, dtype=np.int64)
        out[cp] = vals
        return out

    B = _MTF_BLOCK
    nb = (n + B - 1) // B
    npad = nb * B

    # Previous occurrence of the same byte (-1: never), via one radix
    # argsort -- same construction as the LZ77 chain links.
    order = np.argsort(data, kind="stable").astype(np.int32)
    P = np.full(npad, -1, dtype=np.int32)
    if n > 1:
        same = data[order[1:]] == data[order[:-1]]
        P[order[1:][same]] = order[:-1][same]

    # Block-start last-occurrence grid lastpos[c, k]: last index of byte
    # c before block k, or the virtual time -(c+1) encoding the initial
    # alphabet order.  Within-byte positions are ascending in ``order``,
    # so the last occurrence per (byte, block) group is one edge detect;
    # a shifted running maximum turns per-block occurrences into
    # "state before block k".
    grid = np.full((256, nb + 1), -(n + 512), dtype=np.int32)
    grid[:, 0] = -1 - np.arange(256, dtype=np.int32)
    blk_of = order >> 6
    key = data[order].astype(np.int32) * np.int32(nb) + blk_of
    last_in_group = np.empty(n, dtype=bool)
    last_in_group[:-1] = key[1:] != key[:-1]
    last_in_group[-1] = True
    tail = order[last_in_group]
    grid[data[tail], blk_of[last_in_group] + 1] = tail
    lastpos = np.maximum.accumulate(grid, axis=1)[:, :-1]  # (256, nb)
    lpT = np.ascontiguousarray(lastpos.T)  # (nb, 256)

    pblk = np.arange(npad, dtype=np.int32) >> 6
    dpad = np.zeros(npad, dtype=np.int32)
    dpad[:n] = data
    flat_idx = (pblk << 8) + dpad
    L = lpT.reshape(-1)[flat_idx]  # own byte's lastpos at the block start
    s = pblk << 6
    inb = (P >= s).reshape(nb, B)

    local = np.arange(B, dtype=np.int32)
    bit = np.uint64(1) << local.astype(np.uint64)
    lt_mask = _LOW[local][None, :]  # bits of positions before i

    # Case A masks.  Ties in P occur only at -1, strictly below every
    # in-block threshold, so any tie order sorts identically for the
    # prefixes we read.
    Pr = P.reshape(nb, B)
    sP = np.argsort(Pr, axis=1)
    rP = np.empty((nb, B), dtype=np.int32)
    np.put_along_axis(rP, sP, np.broadcast_to(local, (nb, B)), axis=1)
    pmP = np.bitwise_or.accumulate(
        np.uint64(1) << sP.astype(np.uint64), axis=1
    )
    mask_le = np.take_along_axis(pmP, rP, axis=1)  # {p: P[p] <= P[i]}
    lo = np.clip(Pr - s.reshape(nb, B) + 1, 0, 64)  # window floor bit
    cnt_a = np.bitwise_count(mask_le & ~_LOW[lo] & lt_mask)

    # Case B masks.  L values tie only between identical bytes, which
    # cannot both be first-in-block, so the first-in-block AND filter
    # makes any tie order exact here as well.
    Lr = L.reshape(nb, B)
    sL = np.argsort(Lr, axis=1)
    rL = np.empty((nb, B), dtype=np.int32)
    np.put_along_axis(rL, sL, np.broadcast_to(local, (nb, B)), axis=1)
    pmL = np.bitwise_or.accumulate(
        np.uint64(1) << sL.astype(np.uint64), axis=1
    )
    pmL = np.concatenate(
        (np.zeros((nb, 1), dtype=np.uint64), pmL[:, :-1]), axis=1
    )
    mask_lt = np.take_along_axis(pmL, rL, axis=1)  # {p: L[p] < L[i]}
    fm = np.bitwise_or.reduce(
        np.where(inb, np.uint64(0), bit[None, :]), axis=1
    )
    cnt_b = np.bitwise_count(mask_lt & fm[:, None] & lt_mask)

    # Block-start rank of every byte: lastpos values are distinct inside
    # a block row (real positions are unique, virtual times are unique,
    # and the two ranges never meet), so the descending rank is a
    # permutation scatter of the ascending argsort -- no searchsorted.
    asc = np.argsort(lpT, axis=1)
    rnk = np.empty((nb, 256), dtype=np.int32)
    np.put_along_axis(
        rnk,
        asc,
        np.broadcast_to(np.arange(255, -1, -1, dtype=np.int32), (nb, 256)),
        axis=1,
    )
    base = rnk.reshape(-1)[flat_idx].reshape(nb, B)

    out = np.where(
        inb, cnt_a.astype(np.int32), base + cnt_b.astype(np.int32)
    )
    return out.reshape(-1)[:n].astype(np.int64)


def mtf_decode(ranks: np.ndarray) -> np.ndarray:
    """Inverse MTF, byte-identical to the reference decoder.

    Rank 0 leaves the alphabet order untouched, so the only sequential
    work is at *non-zero* ranks: walk those with a plain list alphabet
    (each step is one pop + insert), collect the emitted bytes, then
    scatter them over the zero stretches with one cumulative-count
    gather.  Post-BWT streams are mostly zeros, so the scalar walk
    touches a small fraction of the positions.
    """
    rk = np.ascontiguousarray(ranks, dtype=np.int64)
    n = rk.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    if int(rk.min()) < 0 or int(rk.max()) > 255:
        raise CodecError("MTF rank out of range")
    nonzero = rk != 0
    alphabet = list(range(256))
    emitted = [0]  # the front byte before any non-zero rank: byte 0
    append = emitted.append
    for r in rk[nonzero].tolist():
        byte = alphabet.pop(r)
        alphabet.insert(0, byte)
        append(byte)
    vals = np.array(emitted, dtype=np.uint8)
    # Position i outputs the byte emitted by the latest non-zero rank
    # at or before i (vals[0] when there is none yet).
    return vals[np.cumsum(nonzero)]


def rle0_encode(ranks: np.ndarray) -> np.ndarray:
    """Vectorized RLE0: bijective base-2 RUNA/RUNB digits for zero runs.

    Byte-identical to ``bwt._rle0_encode``.  Zero runs come from one
    edge-detection pass; each run of length ``m`` emits the low bits of
    ``m + 1`` (its bijective base-2 digits), generated for all runs at
    once with a ``repeat``/``cumsum`` ragged expansion; literal symbols
    shift up by one and everything lands at its output offset with one
    scatter.
    """
    v = np.ascontiguousarray(ranks, dtype=np.int64)
    n = v.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    zero = v == 0
    nz_pos = np.flatnonzero(~zero)

    # Zero-run starts / lengths via edge detection.
    run_start = np.flatnonzero(zero & np.concatenate(([True], ~zero[:-1])))
    if run_start.size:
        if nz_pos.size:
            nxt = np.searchsorted(nz_pos, run_start)
            run_end = np.where(
                nxt < nz_pos.size,
                nz_pos[np.minimum(nxt, nz_pos.size - 1)],
                n,
            )
        else:
            run_end = np.full(run_start.size, n, dtype=np.int64)
        run_len = run_end - run_start
        # Digit count = bit_length(m + 1) - 1; frexp is exact here.
        m1 = (run_len + 1).astype(np.float64)
        n_digits = (np.frexp(m1)[1] - 1).astype(np.int64)
    else:
        run_len = np.empty(0, dtype=np.int64)
        n_digits = np.empty(0, dtype=np.int64)

    total = int(n_digits.sum()) + nz_pos.size
    out = np.empty(total, dtype=np.int64)

    # Event order == input order; each event's output offset is the
    # running sum of preceding event widths.
    ev_pos = np.concatenate((nz_pos, run_start))
    ev_width = np.concatenate(
        (np.ones(nz_pos.size, dtype=np.int64), n_digits)
    )
    order = np.argsort(ev_pos, kind="stable")
    ev_width = ev_width[order]
    ev_off = np.concatenate(([0], np.cumsum(ev_width)[:-1]))

    is_lit = order < nz_pos.size
    out[ev_off[is_lit]] = v[nz_pos] + _SYM_SHIFT - 1

    run_off = ev_off[~is_lit]  # run events keep their original order
    if run_off.size:
        digit_idx = np.arange(int(n_digits.sum()), dtype=np.int64)
        k = digit_idx - np.repeat(
            np.concatenate(([0], np.cumsum(n_digits)[:-1])), n_digits
        )
        m_rep = np.repeat(run_len + 1, n_digits)
        out[np.repeat(run_off, n_digits) + k] = (m_rep >> k) & 1
    return out


def rle0_decode(
    symbols: np.ndarray, max_size: int | None = None
) -> np.ndarray:
    """Vectorized inverse of :func:`rle0_encode` (and the reference).

    ``max_size`` bounds the expanded output; a corrupt stream whose runs
    would exceed it fails with :class:`CodecError` *before* any giant
    allocation (the reference decoder only notices after expanding).
    """
    s = np.ascontiguousarray(symbols, dtype=np.int64)
    n = s.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if int(s.min()) < 0:
        raise CodecError("negative RLE0 symbol")
    is_digit = s <= _RUNB
    d_pos = np.flatnonzero(is_digit)

    run_total = np.empty(0, dtype=np.int64)
    group_start_pos = np.empty(0, dtype=np.int64)
    if d_pos.size:
        # Maximal digit groups = consecutive positions in d_pos.
        new_group = np.concatenate(([True], np.diff(d_pos) > 1))
        group_heads = np.flatnonzero(new_group)
        group_sizes = np.diff(np.append(group_heads, d_pos.size))
        if int(group_sizes.max()) > 62:
            raise CodecError("RLE0 run overflows 62 bits")
        j = np.arange(d_pos.size, dtype=np.int64) - np.repeat(
            group_heads, group_sizes
        )
        contrib = (s[d_pos] + 1) << j
        run_total = np.add.reduceat(contrib, group_heads)
        group_start_pos = d_pos[group_heads]

    # Per-symbol output widths: literals 1, digit-group heads the whole
    # run, other digits 0.  Zeros need no scatter -- the output buffer
    # starts zeroed.
    width = np.ones(n, dtype=np.int64)
    width[is_digit] = 0
    width[group_start_pos] = run_total
    total = int(width.sum())
    if max_size is not None and total > max_size:
        raise CodecError("RLE0 stream expands past the declared size")
    off = np.concatenate(([0], np.cumsum(width)[:-1]))
    out = np.zeros(total, dtype=np.int64)
    lit_pos = np.flatnonzero(~is_digit)
    out[off[lit_pos]] = s[lit_pos] - _SYM_SHIFT + 1
    return out


def bwt_inverse(last: np.ndarray, primary: int) -> np.ndarray:
    """Invert the BWT by walking the LF permutation with take-doubling.

    Byte-identical to :func:`repro.compressors.bwt.bwt_inverse`.  The
    n-step Python walk becomes ``O(log n)`` vectorized gathers:
    ``seq[f:2f] = J[seq[:f]]`` with ``J`` squared (``J = J[J]``) as the
    filled prefix doubles.  All tables are ``int32`` (block sizes are
    far below 2^31), halving gather traffic.
    """
    last = np.ascontiguousarray(last, dtype=np.uint8)
    n = last.size
    if n == 0:
        return last.copy()
    if not 0 <= primary < n:
        raise CodecError("BWT primary index out of range")
    counts = np.bincount(last, minlength=256)
    starts = np.zeros(256, dtype=np.int32)
    starts[1:] = np.cumsum(counts[:-1], dtype=np.int32)
    order = np.argsort(last, kind="stable")
    occ = np.empty(n, dtype=np.int32)
    occ[order] = np.arange(n, dtype=np.int32) - starts[last[order]]
    lf = starts[last] + occ

    seq = np.empty(n, dtype=np.int32)
    seq[0] = primary
    filled = 1
    jump = lf
    while filled < n:
        m = min(filled, n - filled)
        seq[filled : filled + m] = jump[seq[:m]]
        filled += m
        if filled < n:
            jump = jump[jump]
    return last[seq][::-1].copy()
