"""Random-value generation for the randomized local algorithms.

Both Algorithm 1 and Algorithm 2 draw uniform random values from half-open
ranges ``[low, high)``.  On integral domains (the paper's experiments use the
integer domain [1, 10000]) the draw must itself be an integer, or injected
noise would be trivially distinguishable from real values — which would hand
an adversary a perfect test for "this output is the node's real value" and
destroy the privacy argument.

The second half of this module is the vectorized replay substrate for the
batch kernel (:mod:`repro.core.batch`): a numpy reimplementation of CPython's
``random.Random`` seeding (MT19937 ``init_by_array``) that materializes the
first output words of thousands of independent RNG streams at once (keeping
the last such harvest, read-only, for the next call to gather from), plus a
:class:`WordPool` that serves those words back through the exact draw
algorithms CPython uses (``random()``, ``getrandbits``, ``randint``'s
rejection sampling).  Bit-identical replay is the contract: every word a pool
hands out equals what ``random.Random(seed)`` would have produced, verified
stream-for-stream by the parity tests.
"""

from __future__ import annotations

import math
import random
import numpy as np


class SamplingError(ValueError):
    """Raised when a random range is empty."""


def random_value_in(
    rng: random.Random, low: float, high: float, *, integral: bool
) -> float:
    """Uniform draw from ``[low, high)``.

    ``integral=True`` draws an integer; the range must then contain at least
    one integer.  Algorithm 1 guarantees ``low < high`` whenever it asks for a
    draw (it only randomizes when ``g_{i-1}(r) < v_i``), and Algorithm 2's
    ``delta`` keeps its range non-empty; an empty range here is a protocol
    bug, reported loudly.
    """
    if low >= high:
        raise SamplingError(f"empty random range [{low}, {high})")
    if integral:
        lo = math.ceil(low)
        hi = math.ceil(high) - 1  # largest integer strictly below high
        if hi < lo:
            raise SamplingError(
                f"no integer in random range [{low}, {high})"
            )
        return float(rng.randint(lo, hi))
    value = rng.uniform(low, high)
    # uniform() may return high on pathological rounding; fold it back.
    if value >= high:
        value = low
    return value


# -- vectorized MT19937 streams ------------------------------------------------
#
# CPython seeds ``random.Random(seed)`` by splitting the (non-negative) seed
# into 32-bit words and feeding them to the reference MT19937
# ``init_by_array``; every generator output is then a tempered word of the
# twisted state.  Both halves are pure 32-bit integer arithmetic, so they
# vectorize directly over a *batch axis of streams*: the state becomes a
# ``(624, S)`` uint32 matrix and each reference-loop step updates one row for
# all S streams at once.  uint32 gives mod-2**32 for free.

_MT_N = 624
# The seeding loops' constant operands are 0-d arrays, not numpy scalars:
# those loops are ~12k ufunc calls per block, and a call on 0-d arrays skips
# NumPy 2's scalar promotion (a 768-stream block seeds in ~5 ms instead of
# ~10 ms, 2-vCPU Xeon, NumPy 2.4).
_MT_M1 = np.array(1664525, dtype=np.uint32)
_MT_M2 = np.array(1566083941, dtype=np.uint32)
_MT_SHIFT = np.array(30, dtype=np.uint32)
_MT_UPPER = np.uint32(0x80000000)
_MT_LOWER = np.uint32(0x7FFFFFFF)
_MT_MATRIX = np.uint32(0x9908B0DF)

#: Streams seeded at once: a 4 MiB state budget over 624 words x 4 B, so
#: 1,680.  A harvest seeds its streams a block at a time into one
#: ``(624, block)`` state, so its working set is bounded by bytes, not by
#: how many streams it asks for.  The 1247 sequential ``init_by_array``
#: steps each cost numpy dispatches per block, so a smaller budget pays more
#: of them on a large harvest (6,400 streams: 4 blocks instead of 1) for a
#: smaller peak (a 4 MiB state instead of 15.2 MiB); a harvest of at most
#: one block is untouched by the budget.  ``scripts/size_mt_block.py``
#: measures the trade.
_MT_BLOCK = (4 << 20) // (_MT_N * 4)

#: The maximum words obtainable from a single partial twist: ``mt[i + 397]``
#: must stay inside the untwisted tail, so only the first 227 outputs are
#: available without a second (full) twist pass.
MAX_HARVEST_WORDS = _MT_N - 397


def _mt_base_state() -> np.ndarray:
    """The reference ``init_genrand(19650218)`` state shared by every seed."""
    mt = np.empty(_MT_N, dtype=np.uint64)
    mt[0] = 19650218
    for i in range(1, _MT_N):
        prev = int(mt[i - 1])
        mt[i] = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
    return mt.astype(np.uint32)


_MT_INIT = _mt_base_state()
#: ``_MT_INIT[i]`` and ``i`` as 0-d arrays, one per state index.
_MT_INIT_0D = [np.array(word) for word in _MT_INIT]
_MT_INDEX_0D = [np.array(i, dtype=np.uint32) for i in range(_MT_N)]


def _mt_words_chunk(seeds: np.ndarray, words: int, mt: np.ndarray) -> np.ndarray:
    """``init_by_array`` + partial twist + temper for one block of seeds.

    ``mt`` is the block's ``(624, len(seeds))`` uint32 state, a view of a
    buffer the caller reuses across blocks; every word is written before it
    is read, so whatever an earlier block left there cannot leak in.
    Returns a ``(len(seeds), words)`` view (the transpose of the block's
    tempered words).
    """
    count = seeds.shape[0]
    key0 = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    key1 = (seeds >> np.uint64(32)).astype(np.uint32)
    # Seeds below 2**32 have key length 1 (key0 repeats); larger seeds have
    # key length 2, where odd steps add key1 plus the key index 1.
    long_key = seeds >= np.uint64(1 << 32)
    add_even = key0
    add_odd = np.where(long_key, key1 + np.uint32(1), key0)

    tmp = np.empty(count, dtype=np.uint32)

    # init_by_array loop 1: 624 steps of
    #   mt[i] = (mt[i] ^ ((mt[i-1] ^ (mt[i-1] >> 30)) * 1664525)) + key[j] + j
    # starting from the shared init_genrand state; i wraps 623 -> 1.
    prev = np.full(count, _MT_INIT[0], dtype=np.uint32)
    for step in range(_MT_N - 1):
        i = step + 1
        row = mt[i]
        np.right_shift(prev, _MT_SHIFT, out=row)
        row ^= prev
        row *= _MT_M1
        row ^= _MT_INIT_0D[i]
        row += add_even if step % 2 == 0 else add_odd
        prev = row
    mt[0] = mt[_MT_N - 1]
    prev = mt[0]
    row = mt[1]  # wrap step 623 writes i=1 with key index 623 % keylen
    np.right_shift(prev, _MT_SHIFT, out=tmp)
    tmp ^= prev
    tmp *= _MT_M1
    row ^= tmp
    row += add_odd
    prev = row

    # init_by_array loop 2: 623 steps of
    #   mt[i] = (mt[i] ^ ((mt[i-1] ^ (mt[i-1] >> 30)) * 1566083941)) - i
    for step in range(_MT_N - 2):
        i = step + 2
        row = mt[i]
        np.right_shift(prev, _MT_SHIFT, out=tmp)
        tmp ^= prev
        tmp *= _MT_M2
        row ^= tmp
        row -= _MT_INDEX_0D[i]
        prev = row
    mt[0] = mt[_MT_N - 1]
    prev = mt[0]
    row = mt[1]
    np.right_shift(prev, _MT_SHIFT, out=tmp)
    tmp ^= prev
    tmp *= _MT_M2
    row ^= tmp
    row -= _MT_INDEX_0D[1]
    mt[0] = _MT_UPPER

    # Partial twist: the first ``words`` outputs only need state words up to
    # index words + 397, so the remaining twist (and any reseeding of the
    # tail) never runs.  All rows twist in one 2D pass.
    y = mt[:words] & _MT_UPPER
    y |= mt[1 : words + 1] & _MT_LOWER
    out = (y & np.uint32(1)) * _MT_MATRIX
    y >>= np.uint32(1)
    out ^= y
    out ^= mt[397 : words + 397]

    # Temper (vectorized over every word at once).
    out ^= out >> np.uint32(11)
    out ^= (out << np.uint32(7)) & np.uint32(0x9D2C5680)
    out ^= (out << np.uint32(15)) & np.uint32(0xEFC60000)
    out ^= out >> np.uint32(18)
    return out.T


#: The harvest :func:`mt19937_words` returned last, held by reference:
#: ``(seeds in sorted order, the matrix row of each, the read-only matrix)``.
#: Per-node seeds derive from the run seed, so a sweep's consecutive calls
#: (fig9's 16 parameter pairs over one setup's trials, benchmark reps) ask
#: for the same streams again and the ~1.2k-step ``init_by_array`` replay,
#: the batch kernel's dominant setup cost, is skipped for every seed found
#: here.  Only the last call is kept, so the memory held is the matrix its
#: caller already holds and no capacity needs choosing.  Replaced whole,
#: never mutated: a reader that takes the tuple once sees one harvest.
_kept: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None


def prefix_cache_clear() -> None:
    """Drop the kept harvest: the next call seeds every stream it asks for."""
    global _kept
    _kept = None


def mt19937_words(seeds: "np.ndarray | list[int]", words: int) -> np.ndarray:
    """First ``words`` output words of ``random.Random(seed)`` per seed.

    ``seeds`` must be non-negative and below 2**64 (the batch kernel only
    seeds node streams from ``getrandbits(64)`` draws).  Returns a read-only
    ``(len(seeds), words)`` uint32 array whose row ``s`` equals the raw
    ``genrand_uint32`` sequence of ``random.Random(int(seeds[s]))``.

    A seed the previous call also asked for (with at least ``words`` words)
    is served from that call's kept harvest by one gather; the rest are
    seeded ``_MT_BLOCK`` streams at a time into one reused state, so a
    harvest's working set stays bounded however many streams it seeds.  The
    returned array then becomes the kept harvest, which is why it is
    read-only.
    """
    global _kept
    if not 0 < words <= MAX_HARVEST_WORDS:
        raise ValueError(
            f"words must be in [1, {MAX_HARVEST_WORDS}], got {words}"
        )
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((seeds.shape[0], words), dtype=np.uint32)
    miss = np.arange(seeds.shape[0])
    kept = _kept
    if kept is not None and kept[2].shape[1] >= words and kept[0].shape[0]:
        kept_seeds, kept_rows, matrix = kept
        at = np.minimum(np.searchsorted(kept_seeds, seeds), kept_seeds.shape[0] - 1)
        hit = kept_seeds[at] == seeds
        out[hit] = matrix[kept_rows[at[hit]], :words]
        miss = np.flatnonzero(~hit)
    if miss.shape[0]:
        miss_seeds = seeds[miss]
        state = np.empty((_MT_N, min(_MT_BLOCK, miss.shape[0])), dtype=np.uint32)
        for start in range(0, miss.shape[0], _MT_BLOCK):
            stop = min(start + _MT_BLOCK, miss.shape[0])
            out[miss[start:stop]] = _mt_words_chunk(
                miss_seeds[start:stop], words, state[:, : stop - start]
            )
    out.flags.writeable = False
    order = np.argsort(seeds, kind="stable")
    _kept = (seeds[order], order, out)
    return out


#: ``random()`` builds a 53-bit double from two words exactly like CPython:
#: ``((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)``.
_RANDOM_SCALE = 1.0 / 9007199254740992.0


def words_to_unit_floats(w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """CPython's ``random()`` from two raw words (element-wise)."""
    a = (w0 >> np.uint32(5)).astype(np.float64)
    b = (w1 >> np.uint32(6)).astype(np.float64)
    return (a * 67108864.0 + b) * _RANDOM_SCALE


class WordPool:
    """Pre-harvested output words for many independent ``Random`` streams.

    Serves the batch kernel its raw words (:meth:`take_block`) and, for the
    rare row whose rejection sampling outruns its block, ``randint`` —
    against a ``(streams, words)`` harvest, advancing a per-stream cursor.
    A stream that outruns its harvest demotes itself to a real
    ``random.Random`` fast-forwarded past the consumed words (consuming
    ``32 * cursor`` bits replays them exactly), so overflow costs speed, not
    correctness.
    """

    def __init__(
        self,
        seeds: "list[int] | np.ndarray",
        words: int,
    ) -> None:
        self.seeds = seeds
        self.words = words
        count = len(seeds)
        self._matrix = mt19937_words(seeds, words)
        self._flat = self._matrix.reshape(-1)
        self.cursor = np.zeros(count, dtype=np.int64)
        #: Streams demoted to a live ``random.Random`` after overflow.
        self._scalar: dict[int, random.Random] = {}
        self._demoted = np.zeros(count, dtype=bool)

    def _demote(self, stream: int, at_cursor: int) -> random.Random:
        rng = self._scalar.get(stream)
        if rng is None:
            rng = random.Random(int(self.seeds[stream]))
            if at_cursor:
                rng.getrandbits(32 * at_cursor)
            self._scalar[stream] = rng
            self._demoted[stream] = True
        return rng

    def _split(self, who: np.ndarray, need: int) -> tuple[np.ndarray | None, list[int]]:
        """Partition ``who`` into harvest-served and scalar-served streams.

        ``need`` is the minimum word count the caller is about to consume;
        streams that cannot honor it from the harvest (or were demoted
        earlier) go to the scalar side, demoting on first touch.  Returns
        ``(fast_mask, slow_streams)``; a ``None`` mask means every stream is
        harvest-served (the hot path — no mask allocation at all).  Streams
        within one ``who`` must be distinct.
        """
        over = self.cursor[who] + need > self.words
        if self._scalar:
            over |= self._demoted[who]
        if not over.any():
            return None, []
        slow = [int(s) for s in who[over]]
        for s in slow:
            self._demote(s, int(self.cursor[s]))
        return ~over, slow

    def take_block(
        self, who: np.ndarray, width: int
    ) -> tuple["np.ndarray | None", "np.ndarray | None"]:
        """Peek the next ``width`` raw words of every stream in ``who``.

        Returns ``(block, fast_mask)`` where ``block`` has one row per
        harvest-served stream (``who[fast_mask]``) and ``fast_mask`` is
        ``None`` when every stream is served.  Cursors do NOT advance —
        the caller works out how many words each draw sequence actually
        consumed and reports it via :meth:`advance`.  Streams that cannot
        honor ``width`` words are left untouched (no demotion): the caller
        serves them through the scalar draw path at its own pace.
        """
        over = self.cursor[who] + width > self.words
        if self._scalar:
            over |= self._demoted[who]
        if not over.any():
            base = who * self.words + self.cursor[who]
            return self._flat[base[:, None] + np.arange(width)], None
        fast_mask = ~over
        fast = who[fast_mask]
        if not fast.shape[0]:
            return None, fast_mask
        base = fast * self.words + self.cursor[fast]
        return self._flat[base[:, None] + np.arange(width)], fast_mask

    def advance(self, who: np.ndarray, consumed: np.ndarray) -> None:
        """Commit ``consumed`` words per stream after a :meth:`take_block`."""
        self.cursor[who] += consumed

    def scalar_rng(self, stream: int) -> random.Random:
        """Live ``Random`` for one stream, demoting it at its current cursor."""
        return self._demote(stream, int(self.cursor[stream]))

    def randint(self, who: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """One ``randint(low, high)`` per stream, replaying the rejection loop.

        ``low``/``high`` are int64 arrays aligned with ``who``; every width
        must fit 32 bits (``high - low + 1 < 2**32``), which the batch
        kernel's eligibility rules guarantee via the domain span.
        """
        width = high - low + 1
        out = np.empty(who.shape[0], dtype=np.int64)
        # CPython's _randbelow: k = width.bit_length(); draw getrandbits(k)
        # (one word, top k bits) until the value lands below width.
        shift = np.uint32(32) - np.frexp(width.astype(np.float64))[1].astype(np.uint32)
        pending = np.arange(who.shape[0])
        while pending.shape[0]:
            streams = who[pending]
            mask, slow = self._split(streams, 1)
            if mask is None:
                rows = pending
                fast = streams
            else:
                rows = pending[mask]
                fast = streams[mask]
            if fast.shape[0]:
                base = fast * self.words + self.cursor[fast]
                draws = self._flat[base] >> shift[rows]
                self.cursor[fast] += 1
                accepted = draws < width[rows]
                out[rows[accepted]] = draws[accepted]
                still = rows[~accepted]
            else:
                still = rows
            if slow:
                slow_set = set(slow)
                for row in pending:
                    s = int(who[row])
                    if s in slow_set:
                        out[row] = self._scalar[s].randint(
                            int(low[row]), int(high[row])
                        ) - int(low[row])
            pending = still
        return low + out
