"""Vectorized batch kernel: whole trial batches as numpy array ops.

The scalar kernel (:mod:`repro.core.kernel`) already strips the transport
away, but it still walks every ring hop in pure Python — per-trial cost is
dominated by interpreter dispatch, not arithmetic.  The figures' Monte Carlo
sweeps run thousands of structurally identical trials, so this module turns
the trial axis into a numpy batch axis: Eq. 2 coin flips, noise draws,
k-vector merges, per-round ring remaps and the closed-form byte accounting
all execute as array operations over ``trials x rounds``.

It is not an approximation.  Phase A replays every trial's *run* RNG
(``config.rng()``) — ring shuffle, starter choice, per-node stream seeds,
remap shuffles — by harvesting raw MT19937 output words and feeding them
through CPython's exact draw algorithms (:class:`~repro.core.sampling.
WordPool`, :class:`_RunPool`).  Phase B then executes all trials
cell-by-cell over the ring schedule, drawing each node-stream's coins and
noise values in the scalar draw order, so every :class:`ProtocolResult` is
**bit-identical** to both the scalar kernel and the transport-backed
session under the same seed: final vector, snapshots, ring history, traffic
stats, simulated clock, and every event-log observation (message ids aside,
which are process-global).

This module is also where the second half of the executor rule lives (the
first half — a failure injector runs the session — is
:mod:`repro.core.driver`'s): :func:`execute_many` is the kernel path's one
entry, it forms the shape groups, and a group runs here only when it has at
least :data:`VECTOR_CROSSOVER` members.  Smaller groups run one by one on
the scalar kernel (same results, and faster at that size), as does every
job the engine cannot replay exactly: non-probabilistic protocols,
re-insertion mode, custom noise strategies, custom rings, seeded initial
vectors, and data/domain shapes whose byte accounting or draw replay has
scalar-only edge cases (domains spanning zero, non-integer data on integral
domains, values below the domain floor).
"""

from __future__ import annotations

import json
import time
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ..network.stats import TrafficStats
from ..network.transport import LINK_SECONDS
from .kernel import (
    _FIXED,
    _RESULT_LEN,
    _TOKEN_LEN,
    KernelPhaseSample,
    _LazyKernelLog,
    _id_len,
    _stats_counters,
    execute as execute_scalar,
    kernel_refusal,
    phase_sink,
    synthesize_trace,
)
from .noise import HighBiasedNoise, LowBiasedNoise, UniformNoise
from .results import ProtocolResult
from .sampling import MAX_HARVEST_WORDS, WordPool, words_to_unit_floats
from .session import PROBABILISTIC, PreparedQuery, prepare_query_vectors

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (driver imports us)
    from .driver import RunConfig

__all__ = ["VECTOR_CROSSOVER", "execute_many"]

#: Smallest shape group the vectorized engine runs.  Measured, not chosen:
#: below it the scalar kernel is faster per run, at it and above the engine
#: is (``scripts/size_executor_crossover.py``; table, methodology and
#: environment in DESIGN.md, "Which executor runs").  A constant on purpose:
#: nothing a caller can set reaches it.
VECTOR_CROSSOVER = 16

_NOISE_KINDS = {UniformNoise: "uniform", HighBiasedNoise: "high", LowBiasedNoise: "low"}

#: float64 holds integers exactly below 2**52; beyond that the whole-number
#: and ceil arithmetic the integral replay relies on can round.
_EXACT_INT_BOUND = float(2**52)

#: ``searchsorted`` thresholds for digit counts of whole-valued floats;
#: ``repr`` stays in positional notation strictly below 1e16.
_POW10 = 10.0 ** np.arange(17)


# -- run-RNG replay -----------------------------------------------------------

class _RunPool:
    """The per-trial run RNG (``config.rng()``), batched across trials.

    One ``getrandbits(32 * words)`` call per trial harvests the raw output
    words *and* leaves the live ``Random`` object positioned exactly past
    them, so a trial that outruns its harvest continues scalar from its own
    object with no replay bookkeeping.  Unlike node streams, run RNGs may be
    seeded with ``None`` — harvesting through the live object (instead of
    reseeding numpy-side) keeps those trials exact too.
    """

    def __init__(self, rngs: list, words: int) -> None:
        self._rngs = rngs
        self._words = words
        count = len(rngs)
        nbytes = 4 * words
        harvest = np.empty((count, words), dtype=np.uint32)
        for t, rng in enumerate(rngs):
            raw = rng.getrandbits(32 * words).to_bytes(nbytes, "little")
            harvest[t] = np.frombuffer(raw, dtype="<u4")
        self._flat = harvest.reshape(-1)
        self._cursor = np.zeros(count, dtype=np.int64)
        self._all = np.arange(count)

    def _word(self, rows: np.ndarray) -> np.ndarray:
        """Next raw 32-bit word for every trial in ``rows``."""
        cur = self._cursor[rows]
        self._cursor[rows] = cur + 1
        fast = cur < self._words
        if fast.all():
            return self._flat[rows * self._words + cur]
        out = np.empty(rows.shape[0], dtype=np.uint32)
        out[fast] = self._flat[rows[fast] * self._words + cur[fast]]
        for i in np.nonzero(~fast)[0]:
            out[i] = self._rngs[int(rows[i])].getrandbits(32)
        return out

    def randbelow(self, bound: int) -> np.ndarray:
        """CPython ``_randbelow(bound)`` for every trial at once."""
        shift = np.uint32(32 - bound.bit_length())
        out = np.empty(self._all.shape[0], dtype=np.int64)
        pending = self._all
        while pending.shape[0]:
            draws = (self._word(pending) >> shift).astype(np.int64)
            ok = draws < bound
            out[pending[ok]] = draws[ok]
            pending = pending[~ok]
        return out

    def getrandbits64(self) -> np.ndarray:
        """``getrandbits(64)`` per trial (two words, low word first)."""
        w0 = self._word(self._all).astype(np.uint64)
        w1 = self._word(self._all).astype(np.uint64)
        return w0 | (w1 << np.uint64(32))


def _shuffle_columns(order: np.ndarray, pool: _RunPool) -> None:
    """In-place ``random.shuffle`` of every trial's row of ``order``."""
    rows = np.arange(order.shape[0])
    for i in range(order.shape[1] - 1, 0, -1):
        j = pool.randbelow(i + 1)
        tmp = order[rows, i]
        order[rows, i] = order[rows, j]
        order[rows, j] = tmp


def _run_word_budget(n: int, rounds: int, remap: bool) -> int:
    # Shuffles reject at most half their draws in expectation; 3n + 8 words
    # per shuffle makes overflow (handled, but scalar-speed) vanishingly
    # rare.  Plus the starter choice and n two-word node-seed draws.
    shuffles = rounds if remap else 1
    return shuffles * (3 * n + 8) + 4 + 2 * n


# -- byte accounting ----------------------------------------------------------

def _vector_body_bytes(rows: np.ndarray) -> np.ndarray:
    """Encoded length of ``[v1,...,vk]`` per row (kernel ``_vector_bytes``).

    Whole-valued floats below 1e16 repr as ``<digits>.0`` (sign included),
    so their lengths come from a digit count; anything else falls back to
    ``repr`` per value.  All values are finite and nonzero (eligibility
    guarantees), so ``searchsorted`` against powers of ten is exact.
    """
    width = rows.shape[1]
    absr = np.abs(rows)
    if (absr < 1e16).all() and (rows == np.floor(rows)).all():
        digits = np.searchsorted(_POW10, absr, side="right")
        return (digits + 2 + (rows < 0.0)).sum(axis=1) + (1 + width)
    totals = np.empty(rows.shape[0], dtype=np.int64)
    base = 1 + width
    for i, row in enumerate(rows.tolist()):
        totals[i] = base + sum(len(repr(v)) for v in row)
    return totals


# -- eligibility --------------------------------------------------------------

def _config_eligible(config: "RunConfig") -> bool:
    """Config-shape gate shared by the fast probe and ``_classify``.

    Refused configs (failure injectors) fall through to the scalar kernel,
    which raises :class:`~repro.core.kernel.KernelUnsupported` — the loud
    refusal, never a silently mis-accounted vectorized run.
    """
    return (
        config.protocol == PROBABILISTIC
        and config.ring_builder is None
        and kernel_refusal(config) is None
    )


def _shape_key(params, query) -> tuple | None:
    """The ``(params, query)`` slice of a group key; ``None`` if ineligible.

    Every refusal here is conservative: the scalar path is bit-identical,
    just slower, and it also *raises* exactly where the session would
    (mid-protocol sampling errors on pathological schedules).
    """
    if not params.insert_once:
        return None
    noise_kind = _NOISE_KINDS.get(type(params.noise))
    if noise_kind is None:
        return None
    try:
        rounds = params.resolved_rounds()
        probs = tuple(params.probability(r) for r in range(1, rounds + 1))
    except Exception:
        return None  # the scalar path raises the identical error in order
    domain = query.domain
    dom_low = float(domain.low)
    dom_high = float(domain.high)
    if dom_low <= 0.0 <= dom_high:
        # Zero crossings bring repr(-0.0) and cache-disable semantics the
        # vectorized byte accounting does not model; keep those scalar.
        return None
    integral = domain.integral
    if integral:
        if params.delta < 1:
            return None  # scalar raises SamplingError on an empty int range
        if abs(dom_low) >= _EXACT_INT_BOUND or abs(dom_high) >= _EXACT_INT_BOUND:
            return None
        if dom_high - dom_low >= float(2**31 - 1):
            return None  # randint widths must fit one 32-bit word
    return (
        query.k,
        rounds,
        probs,
        params.delta,
        params.remap_each_round,
        noise_kind,
        getattr(params.noise, "order", 1),
        dom_low,
        dom_high,
        integral,
        type(domain.low) is int,
    )


def _classify(prepared, config: "RunConfig"):
    """Group signature + padded matrix if the engine can replay this job.

    Returns ``None`` to send the job to the scalar kernel.
    """
    if not _config_eligible(config):
        return None
    shape = _shape_key(config.params, prepared.query)
    if shape is None:
        return None
    k = prepared.query.k
    dom_low, dom_high, integral = shape[7], shape[8], shape[9]
    rows = []
    for node_id in sorted(prepared.vectors):
        values = prepared.vectors[node_id]
        if len(values) < k:
            if values and dom_low > values[-1]:
                return None  # pad_to_k raises; the scalar path reproduces it
            values = values + [dom_low] * (k - len(values))
        rows.append(values)
    matrix = np.array(rows, dtype=np.float64)
    if not np.isfinite(matrix).all():
        return None
    if (matrix == 0.0).any() or (matrix < dom_low).any():
        return None
    if integral and (
        (matrix != np.floor(matrix)).any()
        or (matrix > dom_high).any()
    ):
        return None
    return (matrix.shape[0], *shape), matrix


# -- bulk preparation ---------------------------------------------------------

class _FastItem:
    """Stand-in for ``PreparedQuery`` on the bulk-prepared fast path.

    Bulk-converted jobs skip python-side preparation entirely; the group
    matrix holds their sorted local top-k and ``finalize`` rebuilds
    ``local_vectors`` from it.  ``smallest`` queries never take this path,
    so the negation fields are fixed.
    """

    __slots__ = ("query", "ids", "original_query")
    negated = False

    def __init__(self, query, ids) -> None:
        self.query = query
        self.ids = ids
        self.original_query = query


def _fast_probe(vectors, query, config, probe_cache, id_cache):
    """``(group key, sorted ids, row width)`` if the job can bulk-convert.

    Sweep-style batches reuse one params/query object across thousands of
    trials; the per-``(params, query)`` shape key is cached by object
    identity (the cache holds the references, so ids stay valid for its
    lifetime).  Returns ``None`` to route through python preparation.
    """
    if not _config_eligible(config):
        return None
    n = len(vectors)
    if n < 3 or query.smallest:
        return None
    cache_key = (id(config.params), id(query))
    hit = probe_cache.get(cache_key)
    if hit is None:
        hit = probe_cache[cache_key] = (
            config.params,
            query,
            _shape_key(config.params, query),
        )
    shape = hit[2]
    if shape is None:
        return None
    try:
        widths = set(map(len, vectors.values()))
    except TypeError:
        return None  # unsized rows (generators): python prep handles them
    if len(widths) != 1:
        return None
    width = widths.pop()
    if width < query.k:
        return None  # short rows need python padding semantics
    id_key = tuple(vectors)
    ids = id_cache.get(id_key)
    if ids is None:
        ids = id_cache[id_key] = sorted(id_key)
    return (n, *shape), ids, width


def _slow_classify(index, vectors, query, config, groups, scalar_jobs) -> None:
    """Python-prepare one job and route it to its group or the scalar list."""
    prepared = prepare_query_vectors(vectors, query)
    signature = _classify(prepared, config)
    if signature is None:
        scalar_jobs.append((index, prepared, config))
    else:
        key, matrix = signature
        groups.setdefault(key, []).append((index, prepared, config, matrix))


def _bulk_prepare(n, width, entries, groups, scalar_jobs) -> None:
    """Convert one ``(n, width)`` shape-batch of fast-probed jobs to members.

    One ``fromiter`` pass builds the whole value tensor; the local sort and
    the per-value data checks run vectorized.  Items that fail a data check
    — or carry non-finite values, whose sort placement differs between
    numpy and python — drop back to python preparation, where they land on
    the scalar kernel with byte-for-byte session semantics.
    """
    count = len(entries)
    try:
        flat = np.fromiter(
            chain.from_iterable(
                chain.from_iterable(entry[1][node] for node in entry[5])
                for entry in entries
            ),
            dtype=np.float64,
            count=count * n * width,
        )
    except (TypeError, ValueError, KeyError):
        # Non-numeric values or rows mutated mid-scan: python preparation
        # raises (or handles) exactly what the session would.
        for index, vectors, query, config, _key, _ids in entries:
            _slow_classify(index, vectors, query, config, groups, scalar_jobs)
        return
    tensor = flat.reshape(count, n, width)
    finite = np.isfinite(tensor).all(axis=(1, 2))
    tensor.sort(axis=2)
    by_key: dict[tuple, list[int]] = {}
    for pos, entry in enumerate(entries):
        by_key.setdefault(entry[4], []).append(pos)
    for key, positions in by_key.items():
        k = key[1]
        dom_low, dom_high, integral = key[8], key[9], key[10]
        pos_arr = np.array(positions)
        # Local top-k, descending: ascending sort read right-to-left.
        stop = width - k - 1
        sub = tensor[pos_arr, :, -1 : (stop if stop >= 0 else None) : -1]
        checked = sub.reshape(len(positions), -1)
        ok = finite[pos_arr]
        ok &= (checked != 0.0).all(axis=1)
        ok &= ~(checked < dom_low).any(axis=1)
        if integral:
            ok &= (checked == np.floor(checked)).all(axis=1)
            ok &= ~(checked > dom_high).any(axis=1)
        ok_list = ok.tolist()
        for i, pos in enumerate(positions):
            index, vectors, query, config, _key, ids = entries[pos]
            if ok_list[i]:
                groups.setdefault(key, []).append(
                    (index, _FastItem(query, ids), config, sub[i])
                )
            else:
                _slow_classify(index, vectors, query, config, groups, scalar_jobs)


# -- lazy traffic stats -------------------------------------------------------

class _BatchStats(TrafficStats):
    """Traffic stats whose per-key breakdowns materialize on first access.

    The batch engine knows ``messages_total``/``bytes_total`` in closed
    form; the four breakdown counters cost more to build than the rest of
    a trial's finalize and most callers never read them.  Equality and
    pickling behave like a plain :class:`TrafficStats`.
    """

    # Mutable-stats semantics, same as the dataclass parent.
    __hash__ = None

    def __init__(self, messages_total, bytes_total, builder):
        self.messages_total = messages_total
        self.bytes_total = bytes_total
        self._builder = builder

    def __getattr__(self, name):
        if name in ("per_link", "per_round", "per_type", "per_query"):
            counters = self._builder()
            self.__dict__.update(counters)
            return self.__dict__[name]
        raise AttributeError(name)

    def __eq__(self, other):
        if not isinstance(other, TrafficStats):
            return NotImplemented
        return (
            self.messages_total == other.messages_total
            and self.bytes_total == other.bytes_total
            and self.per_link == other.per_link
            and self.per_round == other.per_round
            and self.per_type == other.per_type
            and self.per_query == other.per_query
        )

    def __reduce__(self):
        return (
            TrafficStats,
            (
                self.messages_total,
                self.bytes_total,
                self.per_link,
                self.per_round,
                self.per_type,
                self.per_query,
            ),
        )


# -- the group engine ---------------------------------------------------------

_CLOCK_CACHE: dict[tuple[int, int], float] = {}


def _simulated_seconds(n: int, rounds: int) -> float:
    """The transport clock: ``n * (rounds + 1)`` float additions of a hop."""
    key = (n, rounds)
    value = _CLOCK_CACHE.get(key)
    if value is None:
        clock = 0.0
        for _ in range(n * (rounds + 1)):
            clock += LINK_SECONDS
        value = _CLOCK_CACHE[key] = clock
    return value


class _Group:
    """All jobs sharing one signature, executed as a single numpy batch."""

    def __init__(self, key, members):
        (
            self.n,
            self.k,
            self.rounds,
            self.probs,
            self.delta,
            self.remap,
            noise_kind,
            noise_order,
            self.dom_low,
            self.dom_high,
            self.integral,
            self.low_is_int,
        ) = key
        self.noise_kind = noise_kind
        self.noise_order = noise_order
        self.members = members  # (job index, prepared, config, matrix)
        self.count = len(members)
        # Degenerate ranges inject the *raw* ``domain.low``; on int domains
        # that is an int for exactly one hop before float coercion, so the
        # int-repr hop pays fewer bytes than the float accounting assumes.
        if self.low_is_int:
            self.int_repr_delta = len(repr(self.dom_low)) - len(repr(int(self.dom_low)))
        else:
            self.int_repr_delta = 0
        self._events_by_trial = None

    # -- Phase A: replay every run RNG up front -------------------------------

    def replay_run_rngs(self) -> None:
        n, rounds, count = self.n, self.rounds, self.count
        pool = _RunPool(
            [config.rng() for (_, _, config, _) in self.members],
            _run_word_budget(n, rounds, self.remap),
        )
        rows_all = np.arange(count)
        order = np.tile(np.arange(n, dtype=np.int64), (count, 1))
        _shuffle_columns(order, pool)
        ring_orders = [order.copy()]
        # Starter choice draws over the *sorted* node ids, not ring order.
        self.starter = pool.randbelow(n)
        node_seeds = np.empty((count, n), dtype=np.uint64)
        for i in range(n):
            node_seeds[:, i] = pool.getrandbits64()
        if self.remap:
            for _ in range(rounds - 1):
                _shuffle_columns(order, pool)
                ring_orders.append(order.copy())
        self.ring_orders = ring_orders
        # Token-passing order per round: the ring walk from the starter.
        offsets = np.arange(n, dtype=np.int64)
        walks = []
        for ring in ring_orders:
            pos = np.argmax(ring == self.starter[:, None], axis=1)
            walks.append(ring[rows_all[:, None], (pos[:, None] + offsets) % n])
        self.walks = walks
        # Per-node streams: worst case per round is one coin plus k noise
        # values; overflow demotes that stream to a live Random, exactly.
        draw_words = {
            "uniform": 3 if self.integral else 2,
            "high": 2 * self.noise_order,
            "low": 2 * self.noise_order,
        }[self.noise_kind]
        words = min(MAX_HARVEST_WORDS, rounds * (2 + self.k * draw_words) + 4)
        self.node_pool = WordPool(node_seeds.reshape(-1), words)

    # -- Phase B: the vectorized round loop -----------------------------------

    def _cell_draws(self, streams, m, low, high, deg, p_r):
        """All RNG draws for one ring position: coin + noise, one block read.

        Every candidate stream consumes exactly the scalar draw sequence:
        two words for the Eq. 2 coin, then — only when the coin says
        randomize and the noise range is non-degenerate — the words for its
        ``m`` noise draws.  Instead of one pool call per draw column, the
        next ``B`` words of every stream come out as a single 2D gather and
        the variable consumption (rejection sampling included) is computed
        arithmetically; cursors then advance by each stream's actual use.

        Returns ``(u, noise)``: the unit coin per stream and a ``(ncand,
        k)`` noise matrix whose rows are meaningful only where the coin
        randomizes and ``deg`` is false (the merge masks the rest).
        """
        pool = self.node_pool
        k = self.k
        kind = self.noise_kind
        order = self.noise_order
        integral = self.integral
        strategy = self.noise_strategy
        ncand = streams.shape[0]
        max_m = int(m.max())
        if kind == "uniform" and integral:
            # Each rejection retry costs one word at < 50% probability;
            # twelve extra words make a shortfall vanishingly rare (and a
            # shortfall only costs a slower exact fallback).
            B = 2 + 2 * max_m + 12
        elif kind == "uniform":
            B = 2 + 2 * max_m
        else:
            B = 2 + 2 * order * max_m
        block, fast_mask = pool.take_block(streams, B)
        u = np.empty(ncand, dtype=np.float64)
        noise = np.zeros((ncand, k), dtype=np.float64)
        if fast_mask is None:
            frows = None  # all streams served from the block
        else:
            frows = np.nonzero(fast_mask)[0]
        if block is not None:
            bu = words_to_unit_floats(block[:, 0], block[:, 1])
            if frows is None:
                u[:] = bu
                m_f, low_f, high_f, deg_f = m, low, high, deg
            else:
                u[frows] = bu
                m_f, low_f, high_f, deg_f = m[frows], low[frows], high[frows], deg[frows]
            active = (bu < p_r) & ~deg_f
            need = np.where(active, m_f, 0)
            if kind == "uniform" and integral:
                lo = np.ceil(low_f).astype(np.int64)
                hi = np.ceil(high_f).astype(np.int64) - 1
                width = np.maximum(hi - lo + 1, 1)  # clamp masked-out rows
                shift = np.uint32(32) - np.frexp(width.astype(np.float64))[1].astype(np.uint32)
                attempts = block[:, 2:] >> shift[:, None]
                ok = attempts < width[:, None]
                csum = np.cumsum(ok, axis=1)
                short = csum[:, -1] < need
                if short.any():
                    # Not enough slack for this row's rejections: take the
                    # coin only and draw its noise through the pool below.
                    need = np.where(short, 0, need)
                used = ok & (csum <= need[:, None])
                r_idx, c_idx = np.nonzero(used)
                vals = (lo[r_idx] + attempts[r_idx, c_idx]).astype(np.float64)
                cols = csum[r_idx, c_idx] - 1
                if frows is None:
                    noise[r_idx, cols] = vals
                else:
                    noise[frows[r_idx], cols] = vals
                stop = np.argmax(csum == need[:, None], axis=1)
                consumed = np.where(need > 0, stop + 3, 2)
                pool.advance(streams if frows is None else streams[frows], consumed)
                if short.any():
                    srows = np.nonzero(short)[0] if frows is None else frows[np.nonzero(short)[0]]
                    for d in range(int(m[srows].max())):
                        sel = srows[m[srows] > d]
                        if not sel.shape[0]:
                            break
                        noise[sel, d] = pool.randint(
                            streams[sel],
                            np.ceil(low[sel]).astype(np.int64),
                            np.ceil(high[sel]).astype(np.int64) - 1,
                        )
            else:
                if kind == "uniform":
                    U = words_to_unit_floats(block[:, 2::2], block[:, 3::2])
                    vals = low_f[:, None] + (high_f[:, None] - low_f[:, None]) * U
                    vals = np.where(vals < high_f[:, None], vals, low_f[:, None])
                    consumed = 2 + 2 * need
                else:
                    U = words_to_unit_floats(block[:, 2::2], block[:, 3::2])
                    U = U.reshape(bu.shape[0], max_m, order) if max_m else U.reshape(bu.shape[0], 0, order)
                    uv = U.max(axis=2) if kind == "high" else U.min(axis=2)
                    if integral:
                        lo = np.ceil(low_f)[:, None]
                        hi = np.ceil(high_f)[:, None] - 1.0
                        vals = lo + np.floor(uv * (hi - lo + 1.0))
                    else:
                        vals = low_f[:, None] + uv * (high_f[:, None] - low_f[:, None])
                        vals = np.where(vals < high_f[:, None], vals, low_f[:, None])
                    consumed = 2 + 2 * order * need
                if max_m:
                    if frows is None:
                        noise[:, :max_m] = vals
                    else:
                        noise[frows, :max_m] = vals
                pool.advance(streams if frows is None else streams[frows], consumed)
        if fast_mask is not None:
            # Streams that outran their harvest replay on a live Random,
            # running the scalar noise strategy verbatim.
            for i in np.nonzero(~fast_mask)[0]:
                rng = pool.scalar_rng(int(streams[i]))
                ui = rng.random()
                u[i] = ui
                if ui < p_r and not deg[i]:
                    lo_i, hi_i = float(low[i]), float(high[i])
                    for d in range(int(m[i])):
                        noise[i, d] = strategy.draw(rng, lo_i, hi_i, integral=integral)
        return u, noise

    def run_rounds(self) -> None:
        n, k, rounds, count = self.n, self.k, self.rounds, self.count
        delta, dom_low = self.delta, self.dom_low
        self.noise_strategy = self.members[0][2].params.noise
        integral = self.integral
        rows_all = np.arange(count)
        V, Vfirst = self.V, self.Vfirst
        G = np.full((count, k), dom_low, dtype=np.float64)
        vb = np.full(count, int(_vector_body_bytes(G[:1])[0]), dtype=np.int64)
        bytes_total = np.zeros(count, dtype=np.int64)
        prev_pos = np.empty(count, dtype=np.int64)
        inserted = np.zeros((count, n), dtype=bool)
        snapshots = np.empty((count, rounds, k), dtype=np.float64)
        # Per-message constants vary per item only through the query tag and
        # the node-id byte lengths.
        qe = np.array(
            [
                (9 + len(json.dumps(qid))) if qid else 0
                for qid in self.query_ids
            ],
            dtype=np.int64,
        )
        # Bulk-converted members share one ids list per distinct input shape,
        # so the id-byte sum is computed once per distinct list object.
        idsb_cache: dict[int, int] = {}
        idsb_vals = []
        for ids in self.node_ids:
            cached = idsb_cache.get(id(ids))
            if cached is None:
                cached = idsb_cache[id(ids)] = 2 * sum(
                    _id_len(node_id) for node_id in ids
                )
            idsb_vals.append(cached)
        idsb = np.array(idsb_vals, dtype=np.int64)
        per_message_fixed = n * qe + idsb
        events: list = []
        kk = np.arange(k)
        for round_number in range(1, rounds + 1):
            p_r = self.probs[round_number - 1]
            walk = self.walks[round_number - 1] if self.remap else self.walks[0]
            prev_pos[:] = 0
            for pos in range(n):
                node = walk[:, pos]
                cand = (Vfirst[rows_all, node] > G[:, k - 1]) & ~inserted[
                    rows_all, node
                ]
                crows = np.nonzero(cand)[0]
                ncand = crows.shape[0]
                if ncand == 0:
                    continue
                cnodes = node[crows]
                streams = crows * n + cnodes
                Vc = V[crows, cnodes]
                Gc = G[crows]
                # m = |topk(G u V) - G|: position j contributes iff
                # V[j] > G[k-1-j] (ties favor the circulating copy).
                m = (Vc > Gc[:, ::-1]).sum(axis=1)
                idx = np.arange(ncand)
                # kth_real = real_topk[k-1]; anchor = g_prev[k-m].
                kth = np.where(
                    m == k,
                    Vc[:, k - 1],
                    np.minimum(Gc[idx, k - 1 - m], Vc[idx, m - 1]),
                )
                anchor = Gc[idx, k - m]
                low = np.maximum(np.minimum(kth - delta, anchor), dom_low)
                high = kth
                deg = low >= high
                u, noise = self._cell_draws(streams, m, low, high, deg, p_r)
                reveal = u >= p_r
                # One merge serves all three outcomes: the tail is the
                # node's own top-m on reveal, the drawn noise on randomize,
                # and the domain floor when the noise range is empty.
                tail = noise
                if deg.any():
                    tail[deg] = dom_low
                if reveal.any():
                    tail[reveal] = Vc[reveal]
                    inserted[crows[reveal], cnodes[reveal]] = True
                    deg &= ~reveal
                head = np.where(kk < (k - m)[:, None], Gc, -np.inf)
                tailm = np.where(kk < m[:, None], tail, -np.inf)
                merged = np.concatenate([head, tailm], axis=1)
                merged.sort(axis=1)
                new_rows = merged[:, -1 : -k - 1 : -1]
                # Byte span: hops since the previous event went out at the
                # old body length; this hop onward pays the new one.
                bytes_total[crows] += vb[crows] * (pos - prev_pos[crows])
                prev_pos[crows] = pos
                G[crows] = new_rows
                vb[crows] = _vector_body_bytes(new_rows)
                if deg.any() and self.int_repr_delta:
                    bytes_total[crows[deg]] -= self.int_repr_delta * m[deg]
                events.append((round_number, pos, crows, new_rows, m, deg))
            bytes_total += vb * (n - prev_pos)
            bytes_total += (
                n * (_FIXED + len(str(round_number)) + _TOKEN_LEN)
                + per_message_fixed
            )
            snapshots[:, round_number - 1] = G
            if round_number < rounds and not (
                (Vfirst > G[:, k - 1 : k]) & ~inserted
            ).any():
                # Every trial is inert: no node can contribute again, so the
                # remaining rounds circulate fixed vectors.  Close their byte
                # accounting and snapshots without walking the cells.
                for tail_round in range(round_number + 1, rounds + 1):
                    bytes_total += vb * n + (
                        n * (_FIXED + len(str(tail_round)) + _TOKEN_LEN)
                        + per_message_fixed
                    )
                    snapshots[:, tail_round - 1] = G
                break
        # Result broadcast: one more pass of the final vector.
        bytes_total += (
            n * (_FIXED + len(str(rounds + 1)) + _RESULT_LEN)
            + per_message_fixed
            + n * vb
        )
        self.bytes_total = bytes_total
        self.snapshots = snapshots
        self.events = events

    # -- event-log reconstruction ---------------------------------------------

    def _trial_events(self, t: int):
        by_trial = self._events_by_trial
        if by_trial is None:
            by_trial = self._events_by_trial = {}
            for round_number, pos, crows, new_rows, m, deg in self.events:
                vals = new_rows.tolist()
                for i, row in enumerate(crows.tolist()):
                    by_trial.setdefault(row, []).append(
                        (round_number, pos, vals[i], int(m[i]), bool(deg[i]))
                    )
        return by_trial.get(t, ())

    def _build_passes(self, t: int):
        """Reconstruct the scalar kernel's per-pass log records for trial t."""
        n, k, rounds = self.n, self.k, self.rounds
        ids = self.node_ids[t]
        int_low = int(self.dom_low) if self.low_is_int else None
        state = (self.dom_low,) * k
        events = iter(self._trial_events(t))
        event = next(events, None)
        passes = []
        for round_number in range(1, rounds + 1):
            walk = self.walks[round_number - 1] if self.remap else self.walks[0]
            walk_ids = tuple(ids[j] for j in walk[t].tolist())
            hops = []
            for pos in range(n):
                if (
                    event is not None
                    and event[0] == round_number
                    and event[1] == pos
                ):
                    _, _, row, m, degenerate = event
                    state = tuple(row)
                    if degenerate and int_low is not None:
                        # The degenerate hop carries raw ints for one hop;
                        # the receiver re-reads the payload as floats.
                        hops.append(state[: k - m] + (int_low,) * m)
                    else:
                        hops.append(state)
                    event = next(events, None)
                else:
                    hops.append(state)
            passes.append(("token", round_number, walk_ids, hops))
        final_walk = self.walks[-1] if self.remap else self.walks[0]
        passes.append(
            (
                "result",
                rounds + 1,
                tuple(ids[j] for j in final_walk[t].tolist()),
                state,
            )
        )
        return passes

    # -- finalize -------------------------------------------------------------

    def finalize(self, results) -> None:
        n, k, rounds, count = self.n, self.k, self.rounds, self.count
        messages_total = n * (rounds + 1)
        clock = _simulated_seconds(n, rounds)
        snapshot_rounds = range(1, rounds + 1)
        # Ring member names: one object-array gather per ring when every
        # member shares the same ids list (the common bulk case).
        ids0 = self.node_ids[0]
        shared_ids = all(ids is ids0 for ids in self.node_ids)
        if shared_ids:
            ids_arr = np.array(ids0, dtype=object)
            rings_names = [ids_arr[ring].tolist() for ring in self.ring_orders]
        # One C-level conversion for the whole batch beats ``count`` small
        # per-trial ``tolist`` calls.
        all_snaps = self.snapshots.tolist()
        all_values = self.V.tolist()
        starters = self.starter.tolist()
        for t, (index, prepared, config, matrix) in enumerate(self.members):
            ids = self.node_ids[t]
            if shared_ids:
                ring_lists = [names[t] for names in rings_names]
            else:
                ring_lists = [
                    [ids[j] for j in ring[t].tolist()]
                    for ring in self.ring_orders
                ]
            ring_ids = [tuple(members) for members in ring_lists]
            stats = _BatchStats(
                messages_total,
                int(self.bytes_total[t]),
                lambda lists=ring_lists, qid=self.query_ids[t]: (
                    _stats_counters(lists, rounds, qid)
                ),
            )
            snaps = all_snaps[t]
            log = _LazyKernelLog(
                (lambda trial=t: self._build_passes(trial)), self.query_ids[t]
            )
            result = ProtocolResult(
                query=prepared.query,
                protocol=PROBABILISTIC,
                final_vector=snaps[rounds - 1],
                ring_order=ring_ids[0],
                starter=ids[starters[t]],
                local_vectors=(
                    dict(zip(ids, all_values[t]))
                    if type(prepared) is _FastItem
                    # ``prepare_query_vectors`` already sorted these.
                    else {node: list(v) for node, v in prepared.vectors.items()}
                ),
                round_snapshots=dict(zip(snapshot_rounds, snaps)),
                event_log=log,
                stats=stats,
                ring_history=dict(zip(snapshot_rounds, ring_ids)),
                simulated_seconds=clock,
                schedule=config.params.schedule,
            )
            result.negated = prepared.negated
            result.original_query = prepared.original_query
            results[index] = result

    def execute(self, query_ids, results) -> None:
        sink = phase_sink()
        t0 = time.perf_counter() if sink is not None else 0.0
        self.node_ids = [
            prepared.ids
            if type(prepared) is _FastItem
            else sorted(prepared.vectors)
            for (_, prepared, _, _) in self.members
        ]
        self.query_ids = [query_ids[index] for (index, _, _, _) in self.members]
        self.V = np.stack([matrix for (_, _, _, matrix) in self.members])
        self.Vfirst = np.ascontiguousarray(self.V[:, :, 0])
        self.replay_run_rngs()
        t1 = time.perf_counter() if sink is not None else 0.0
        self.run_rounds()
        t2 = time.perf_counter() if sink is not None else 0.0
        self.finalize(results)
        if sink is not None:
            sink(
                KernelPhaseSample(
                    setup_seconds=t1 - t0,
                    round_loop_seconds=t2 - t1,
                    finalize_seconds=time.perf_counter() - t2,
                    rounds=self.rounds * self.count,
                    runs=self.count,
                )
            )


# -- entry point --------------------------------------------------------------

def execute_many(
    jobs,
    *,
    traces=None,
    query_ids=None,
) -> list[ProtocolResult]:
    """Run ``(local_vectors, query, config)`` jobs on the message-free kernels.

    The kernel path's single entry.  Jobs with the same protocol shape (n,
    k, rounds, schedule, delta, noise, domain) form a group; a group of at
    least :data:`VECTOR_CROSSOVER` executes as one numpy batch, and every
    other job — smaller groups, shapes the engine cannot replay — runs on
    the scalar kernel.  ``query_ids`` defaults to the transport batch's
    ``q{index}`` tagging; pass explicit ids (or ``""`` for untagged
    single-query accounting) to control the per-message tag.  Results come
    back in job order and are bit-identical to the session backend per job,
    whichever kernel ran them; traced jobs get their spans synthesized in
    job order.

    A failing job aborts the whole batch with that job's exception; when
    several jobs would fail, which exception surfaces first may differ from
    the transport path's construction order.
    """
    jobs = list(jobs)
    if traces is None:
        traces = [None] * len(jobs)
    if query_ids is None:
        query_ids = [f"q{index}" for index in range(len(jobs))]
    results: list[ProtocolResult | None] = [None] * len(jobs)
    groups: dict[tuple, list] = {}
    scalar_jobs: list[tuple[int, object, "RunConfig"]] = []
    if len(jobs) < VECTOR_CROSSOVER:
        # No group can reach the crossover, so nothing needs classifying.
        scalar_jobs = [
            (index, prepare_query_vectors(vectors, query), config)
            for index, (vectors, query, config) in enumerate(jobs)
        ]
    else:
        bulk_shapes: dict[tuple[int, int], list] = {}
        probe_cache: dict = {}
        id_cache: dict = {}
        for index, (vectors, query, config) in enumerate(jobs):
            fast = _fast_probe(vectors, query, config, probe_cache, id_cache)
            if fast is None:
                _slow_classify(index, vectors, query, config, groups, scalar_jobs)
            else:
                key, ids, width = fast
                bulk_shapes.setdefault((key[0], width), []).append(
                    (index, vectors, query, config, key, ids)
                )
        for (n, width), entries in bulk_shapes.items():
            _bulk_prepare(n, width, entries, groups, scalar_jobs)
        for key in [k for k, m in groups.items() if len(m) < VECTOR_CROSSOVER]:
            for index, prepared, config, _matrix in groups.pop(key):
                if not isinstance(prepared, PreparedQuery):
                    # Bulk-converted: the scalar kernel wants python prep.
                    prepared = prepare_query_vectors(*jobs[index][:2])
                scalar_jobs.append((index, prepared, config))
    # Scalar jobs first, in job order: they are the only jobs that can
    # raise mid-protocol, and grouped jobs are error-free by construction.
    scalar_jobs.sort(key=lambda job: job[0])
    for index, prepared, config in scalar_jobs:
        results[index] = execute_scalar(
            prepared, config, query_id=query_ids[index]
        ).result
    for key, members in groups.items():
        _Group(key, members).execute(query_ids, results)
    for trace, result in zip(traces, results):
        if trace is not None:
            synthesize_trace(trace, result)
    return results
