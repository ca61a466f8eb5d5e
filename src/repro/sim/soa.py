"""Structure-of-arrays swarm backend: whole-swarm rounds at array speed.

The object backend (:class:`~repro.sim.swarm.Swarm`) walks Python
``Peer`` objects — clear, instrumentable, and the fingerprint reference,
but bounded at a few hundred peers per wall-second.  This module holds
the same protocol round as flat numpy arrays:

* **bitfields** live in a packed ``(capacity, ceil(B/64))`` uint64
  matrix; interest between two peers is one XOR/AND over their rows and
  replication counts come from ``np.bitwise_count``;
* **interest edges** are computed once per round for the whole swarm
  (leecher neighbor rows gathered into an edge list, per-edge novelty
  flags from the packed matrix) and reused by connection maintenance,
  potential-set sizes, and slot-filling proposals;
* **noisy-rarest selection** is a row-wise inverse-transform draw: a
  weight matrix over unpacked candidates, a row cumsum, one pooled
  uniform per transfer;
* **matching and capacity limits** (slot filling, seed upload slots,
  bandwidth caps) use a rank filter — random priorities, per-endpoint
  group ranks, accept while rank < open capacity;
* **arrivals, departures and churn** recycle slots through a LIFO free
  list; neighbor adjacency is a fixed-width int matrix for leechers and
  a bare degree counter for seeds (seeds never initiate trades, so
  their rows are never enumerated — which keeps the matrix width at the
  leecher accept cap even when a seed is neighbor to the whole swarm);
* **membership tests** in the steady round ("already partners?",
  "which rows name a departing slot?", "which receivers got a piece?")
  index a per-round partner table or a capacity-sized boolean mask
  instead of sorting (``np.isin``/``np.unique``).

The backend is selected with ``Swarm(config, backend="soa")`` (see
:meth:`~repro.sim.swarm.Swarm.__new__`) and is *statistically*
equivalent to the object engine — same protocol decisions with the same
probabilities, different RNG stream consumption — verified by
``tests/sim/test_soa_equivalence.py``.  Within the soa backend itself,
runs are deterministic and checkpoint/resume is fingerprint-identical
(``tests/checkpoint/test_soa_checkpoint.py``).

The soa backend intentionally supports the paper-scale configuration
subset: global rarity view, blind matching, whole-piece transfers and
no per-peer instrumentation.  Unsupported options raise
:class:`~repro.errors.ParameterError` at construction with a pointer
back to ``backend="object"``.
"""

from __future__ import annotations

import math
import time as _time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.runtime.profiler import RoundProfiler, SOA_STAGES
from repro.sim.choking import ConnectionStats
from repro.sim.config import SimConfig
from repro.sim.engine import DiscreteEventEngine, Event
from repro.sim.metrics import CompletedDownload, MetricsCollector
from repro.sim.peer import PeerStats
from repro.sim.piece_selection import RARITY_EXPONENT

__all__ = [
    "PeerStore",
    "ScratchArena",
    "SoaSwarm",
    "pack_rows",
    "unpack_rows",
    "popcount_rows",
    "pack_mask",
    "words_for",
    "interest_flags",
    "group_ranks",
    "fill_partner_table",
    "is_partner",
    "weighted_pick_rows",
]

_ONE = np.uint64(1)

#: Unpack/selection work is chunked to roughly this many matrix cells so
#: a 100k-transfer round never materialises a multi-GB boolean matrix.
_CHUNK_CELLS = 1 << 22


# ----------------------------------------------------------------------
# Packed-bitfield kernels (unit-tested against the scalar Bitfield)
# ----------------------------------------------------------------------
def words_for(num_pieces: int) -> int:
    """uint64 words needed to hold ``num_pieces`` bits."""
    return (num_pieces + 63) // 64


def pack_mask(num_pieces: int, mask: int) -> np.ndarray:
    """Pack a Python-int piece mask into a ``(W,)`` uint64 row."""
    words = np.zeros(words_for(num_pieces), dtype=np.uint64)
    for w in range(words.size):
        words[w] = np.uint64((mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF)
    return words

def mask_from_words(words: np.ndarray) -> int:
    """Inverse of :func:`pack_mask` (for tests and checkpoints)."""
    mask = 0
    for w in range(words.size):
        mask |= int(words[w]) << (64 * w)
    return mask


def pack_rows(held: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, B)`` matrix into ``(n, W)`` uint64 rows."""
    n, num_pieces = held.shape
    padded = num_pieces + (-num_pieces) % 64
    buf = np.zeros((n, padded), dtype=bool)
    buf[:, :num_pieces] = held
    packed = np.packbits(buf, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(n, padded // 64)


def unpack_rows(words: np.ndarray, num_pieces: int) -> np.ndarray:
    """Unpack ``(n, W)`` uint64 rows into a boolean ``(n, B)`` matrix."""
    n = words.shape[0]
    as_bytes = words.view(np.uint8).reshape(n, -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little",
                         count=num_pieces)
    return bits.astype(bool)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Held-piece count per packed row."""
    return np.bitwise_count(words).sum(axis=1).astype(np.int64)


def interest_flags(
    bits: np.ndarray, src: np.ndarray, dst: np.ndarray,
    chunk: int = 1 << 18,
    counts: Optional[np.ndarray] = None,
    num_pieces: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge novelty flags from the packed bitfield matrix.

    Returns ``(give_sd, give_ds)``: whether ``src`` holds a piece
    ``dst`` lacks (src can give, i.e. dst is interested in src) and the
    reverse.  Mutual interest is the AND of both.  Chunked so the edge
    list can be swarm-sized without a matching blow-up in temporaries.

    When ``counts`` (per-slot held-piece counts) and ``num_pieces`` are
    supplied, edges with an empty or complete endpoint are decided from
    the counts alone — an empty peer wants everything and offers
    nothing; a complete peer offers everything and wants nothing — and
    the packed-word XOR only runs on the residual edges where both
    endpoints hold a strict subset.  During a flash-crowd bootstrap
    (almost everyone empty) this skips nearly all the gather work.
    """
    n = src.size
    if counts is None:
        give_sd = np.empty(n, dtype=bool)
        give_ds = np.empty(n, dtype=bool)
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            bs = bits[src[lo:hi]]
            bd = bits[dst[lo:hi]]
            diff = bs ^ bd
            give_sd[lo:hi] = (diff & bs).any(axis=1)
            give_ds[lo:hi] = (diff & bd).any(axis=1)
        return give_sd, give_ds
    if num_pieces is None:
        raise ValueError("num_pieces is required when counts is given")
    cs = counts[src]
    cd = counts[dst]
    # Count-only rules (exact for empty/complete endpoints):
    #   src empty     -> give_sd False;  src complete -> give_sd = dst
    #   incomplete; dst empty -> give_sd = src non-empty; symmetric for
    #   give_ds.  Both strict subsets -> actual bitfield comparison.
    give_sd = (cs > 0) & (cd < num_pieces)
    give_ds = (cd > 0) & (cs < num_pieces)
    hard = (
        (cs > 0) & (cs < num_pieces) & (cd > 0) & (cd < num_pieces)
    )
    idx = np.flatnonzero(hard)
    for lo in range(0, idx.size, chunk):
        sel = idx[lo: lo + chunk]
        bs = bits[src[sel]]
        bd = bits[dst[sel]]
        diff = bs ^ bd
        give_sd[sel] = (diff & bs).any(axis=1)
        give_ds[sel] = (diff & bd).any(axis=1)
    return give_sd, give_ds


def group_ranks(keys: np.ndarray, priority: np.ndarray) -> np.ndarray:
    """Rank of each element within its key group, ordered by priority.

    The vectorized backbone of every capacity limit here: give each
    proposal a random priority, rank it among the proposals incident to
    each endpoint, and accept while the rank is below the endpoint's
    open capacity — the array form of "shuffle, then take the first
    ``cap`` per group".
    """
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1 or bool((priority[1:] > priority[:-1]).all()):
        # Ascending priority: a stable sort on keys alone keeps the
        # within-group priority order.
        order = np.argsort(keys, kind="stable")
    else:
        kmax = int(keys.max())
        pmax = int(priority.max())
        if int(priority.min()) >= 0 and kmax < (1 << 62) // (pmax + 1):
            # Fuse (key, priority) into one int64 so a single argsort
            # replaces the two-key lexsort.
            order = np.argsort(
                keys * np.int64(pmax + 1) + priority, kind="stable"
            )
        else:
            order = np.lexsort((priority, keys))
    sorted_keys = keys[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    positions = np.arange(n, dtype=np.int64)
    group_start = np.maximum.accumulate(np.where(boundary, positions, 0))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = positions - group_start
    return ranks


def _contiguous_ranks(keys: np.ndarray) -> np.ndarray:
    """Within-group rank for an array whose equal keys are contiguous.

    A sort-free :func:`group_ranks` for the common case where proposals
    are *generated* grouped (e.g. ``np.repeat(announcers, need)``) and
    every subsequent mask-compaction preserves that grouping; priority
    is array position.
    """
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = keys[1:] != keys[:-1]
    positions = np.arange(n, dtype=np.int64)
    return positions - np.maximum.accumulate(
        np.where(boundary, positions, 0)
    )


def weighted_pick_rows(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One weighted draw per row; -1 for all-zero rows.

    The row-wise inverse transform mirrors the scalar
    :func:`~repro.sim.piece_selection.select_piece` draw: cumsum the
    weights, scale one uniform per row by the row total, count the
    entries at or below it.
    """
    if weights.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    cdf = np.cumsum(weights, axis=1)
    total = cdf[:, -1]
    u = rng.random(weights.shape[0]) * total
    idx = (cdf <= u[:, None]).sum(axis=1).astype(np.int64)
    np.minimum(idx, weights.shape[1] - 1, out=idx)
    idx[total <= 0.0] = -1
    return idx


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class PeerStore:
    """Structure-of-arrays peer state with free-list slot recycling.

    Every per-peer scalar of the object backend's ``Peer`` lives here as
    one array indexed by *slot*.  Slots are recycled LIFO so array reads
    stay dense; ``alive`` masks out the free ones.  Neighbor adjacency:

    * leechers keep a fixed-width row in ``nbr`` (width = the tracker
      accept cap) plus its fill ``nbr_deg``;
    * seeds keep only ``nbr_deg`` as a relation counter — their side of
      each symmetric relation is recovered by scanning leecher rows,
      which the round does anyway to build the interest edge list.

    Trading connections are *not* stored here: the swarm keeps them as
    an ``(M, 2)`` pair array (see :class:`SoaSwarm`), which makes
    drop/filter/append operations single array ops.
    """

    def __init__(self, capacity: int, num_pieces: int, nbr_width: int):
        self.num_pieces = num_pieces
        self.words = words_for(num_pieces)
        self.nbr_width = nbr_width
        self.capacity = 0
        self.free: List[int] = []
        self._allocate_arrays(max(capacity, 8))

    def _allocate_arrays(self, capacity: int) -> None:
        self.alive = np.zeros(capacity, dtype=bool)
        self.is_seed = np.zeros(capacity, dtype=bool)
        self.shaken = np.zeros(capacity, dtype=bool)
        self.peer_id = np.full(capacity, -1, dtype=np.int64)
        self.counts = np.zeros(capacity, dtype=np.int64)
        self.bits = np.zeros((capacity, self.words), dtype=np.uint64)
        self.joined_at = np.zeros(capacity, dtype=np.float64)
        self.seed_until = np.full(capacity, np.nan)
        self.first_piece_at = np.full(capacity, np.nan)
        self.prelast_at = np.full(capacity, np.nan)
        self.shaken_at = np.full(capacity, np.nan)
        #: Uploads per round under heterogeneous bandwidth; -1 means
        #: unconstrained (the paper's homogeneous setting).
        self.upload_capacity = np.full(capacity, -1, dtype=np.int64)
        self.nbr = np.full((capacity, self.nbr_width), -1, dtype=np.int64)
        self.nbr_deg = np.zeros(capacity, dtype=np.int64)
        #: Pieces a seed has already injected (super-seeding mode).
        self.seeded = np.zeros((capacity, self.words), dtype=np.uint64)
        self.free = list(range(capacity - 1, -1, -1))
        self.capacity = capacity

    def grow(self, min_capacity: int) -> None:
        """Double capacity (at least to ``min_capacity``), keep contents."""
        new_cap = max(self.capacity * 2, min_capacity)
        old_cap = self.capacity
        old = self.__dict__.copy()
        self._allocate_arrays(new_cap)
        for name in (
            "alive", "is_seed", "shaken", "peer_id", "counts", "bits",
            "joined_at", "seed_until", "first_piece_at", "prelast_at",
            "shaken_at", "upload_capacity", "nbr", "nbr_deg", "seeded",
        ):
            getattr(self, name)[:old_cap] = old[name]
        # _allocate_arrays reset the free list to cover everything; keep
        # the old list (LIFO order preserved) plus the new slots on top.
        self.free = list(range(new_cap - 1, old_cap - 1, -1)) + old["free"]

    def allocate(self, count: int) -> np.ndarray:
        """Take ``count`` slots off the free list, fully reset."""
        if count > len(self.free):
            self.grow(self.capacity + count)
        # The last `count` entries reversed == `count` repeated pops.
        take = self.free[len(self.free) - count:]
        del self.free[len(self.free) - count:]
        slots = np.array(take[::-1], dtype=np.int64)
        self.alive[slots] = True
        self.is_seed[slots] = False
        self.shaken[slots] = False
        self.counts[slots] = 0
        self.bits[slots] = 0
        self.seed_until[slots] = np.nan
        self.first_piece_at[slots] = np.nan
        self.prelast_at[slots] = np.nan
        self.shaken_at[slots] = np.nan
        self.upload_capacity[slots] = -1
        self.nbr[slots] = -1
        self.nbr_deg[slots] = 0
        self.seeded[slots] = 0
        return slots

    def release(self, slots: np.ndarray) -> None:
        """Return slots to the free list (ascending push order)."""
        self.alive[slots] = False
        self.peer_id[slots] = -1
        self.nbr[slots] = -1
        self.nbr_deg[slots] = 0
        self.free.extend(np.sort(slots).tolist())

    def append_neighbor(self, row: int, value: int) -> None:
        """Append ``value`` to a leecher's neighbor row."""
        deg = int(self.nbr_deg[row])
        if deg >= self.nbr_width:
            raise SimulationError(
                f"neighbor row overflow at slot {row} "
                f"(width {self.nbr_width})"
            )
        self.nbr[row, deg] = value
        self.nbr_deg[row] = deg + 1

    def remove_row_entries(self, rows: np.ndarray, gone: np.ndarray) -> None:
        """Delete every entry pointing at a ``gone`` slot from ``rows``.

        ``rows`` are distinct neighbor-row indices.  ``gone`` is a
        boolean slot mask of ``capacity + 1`` cells whose spare last
        cell stays False: a row's -1 blanks index that cell, so the
        doomed cells are one gather ``gone[nbr[rows]]``.  Every affected
        row is stable-partitioned so kept entries slide left in order,
        then its tail is blanked.
        """
        if gone.size != self.capacity + 1 or gone[-1]:
            raise SimulationError(
                f"gone mask must have capacity + 1 = {self.capacity + 1} "
                f"cells with the last one False, got {gone.size}"
            )
        if rows.size == 0:
            return
        sub = self.nbr[rows]
        drop = gone[sub]
        order = np.argsort(drop, axis=1, kind="stable")
        packed = np.take_along_axis(sub, order, axis=1)
        new_deg = self.nbr_deg[rows] - drop.sum(axis=1)
        tail = np.arange(self.nbr_width)[None, :] >= new_deg[:, None]
        packed[tail] = -1
        self.nbr[rows] = packed
        self.nbr_deg[rows] = new_deg


def fill_partner_table(pairs: np.ndarray, table: np.ndarray) -> None:
    """Scatter the connection list into a per-slot partner table.

    ``table`` is a ``(width, capacity)`` int array preset to -1, with
    ``width`` at least the largest partner degree; afterwards column
    ``j`` of slot ``s`` holds one of ``s``'s partners (in no particular
    order) or -1.  Sort-free: each pass writes every unplaced endpoint
    into row ``j`` of the table (of several writers to one slot, one
    sticks), keeps the writes that stuck and retries the rest one row
    down.  Pairs are unique, so a stuck write is recognised by value.
    """
    ends = pairs.ravel()
    others = pairs[:, ::-1].ravel()
    for line in table:
        if ends.size == 0:
            return
        line[ends] = others
        left = line[ends] != others
        ends = ends[left]
        others = others[left]
    if ends.size:
        raise SimulationError(
            f"partner table of width {table.shape[0]} is too narrow"
        )


def is_partner(
    table: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Per edge: is ``dst`` already a partner of ``src``?

    One ``==`` per table row (``width <= k``) instead of a sorted
    membership test over the whole connection list.
    """
    hit = np.zeros(src.size, dtype=bool)
    for line in table:
        hit |= line[src] == dst
    return hit


# ----------------------------------------------------------------------
# The scratch arena
# ----------------------------------------------------------------------
class ScratchArena:
    """Reusable per-round work buffers, keyed by name.

    Steady-state rounds of the SoA engine need a handful of
    capacity-sized temporaries (masks, quotas, sweep buffers).  The
    arena keeps one persistent buffer per name and hands out zeroed or
    filled *views* of the requested size, so a settled swarm allocates
    ~zero fresh arrays per round; buffers grow geometrically with the
    slab.  ``created`` counts (re)allocations — the reuse test pins it
    flat across steady-state rounds.

    Values are always explicitly reset on take, so arena reuse is
    bit-invisible to the simulation.
    """

    __slots__ = ("_buffers", "created")

    def __init__(self):
        self._buffers: Dict[str, np.ndarray] = {}
        self.created = 0

    def take(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """An *uninitialized* length-``size`` view of buffer ``name``."""
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            grown = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(grown, dtype=dtype)
            self._buffers[name] = buf
            self.created += 1
        return buf[:size]

    def zeros(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        view = self.take(name, size, dtype)
        view.fill(0)
        return view

    def full(self, name: str, size: int, fill, dtype=np.int64) -> np.ndarray:
        view = self.take(name, size, dtype)
        view.fill(fill)
        return view


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
from repro.sim.swarm import Swarm, SwarmResult  # noqa: E402  (cycle-safe: swarm imports soa lazily)


#: Options of ``Swarm(config, backend="sharded", shards=1)``, which
#: dispatches to :class:`SoaSwarm` (see ``Swarm.__new__``).
_SINGLE_SHARD_OPTIONS = frozenset(
    ("shards", "shard_mix", "max_worker_restarts")
)


class SoaSwarm(Swarm):
    """Array-native swarm: same protocol, same config, ~2 orders faster.

    Construction mirrors :class:`~repro.sim.swarm.Swarm`; options that
    require per-peer objects (instrumentation, neighborhood rarity,
    greedy matching, sub-piece blocks, tracker bootstrap bias, and the
    sequential/windowed streaming policies) raise
    :class:`~repro.errors.ParameterError` pointing at the object
    backend.

    ``Swarm(config, backend="sharded", shards=1)`` also constructs this
    class (one shard *is* the soa engine), so the constructor accepts
    that spelling; the sharded-only options it may carry (``shard_mix``,
    ``max_worker_restarts``) steer workers and are inert here.
    """

    def __init__(
        self,
        config: SimConfig,
        *,
        backend: str = "soa",
        instrument_first: int = 0,
        instrumented_avoid_seeds: bool = False,
        instrumented_start_empty: bool = True,
        rarity_view: str = "global",
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultPlan] = None,
        profile: bool = False,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
        **sharded,
    ):
        single_shard = (
            backend == "sharded"
            and sharded.get("shards") == 1
            and set(sharded) <= _SINGLE_SHARD_OPTIONS
        )
        if not (single_shard or (backend == "soa" and not sharded)):
            raise ParameterError(
                f"SoaSwarm is the 'soa' backend (or 'sharded' with "
                f"shards=1), got backend={backend!r}"
                + "".join(f", {k}={v!r}" for k, v in sorted(sharded.items()))
            )
        self._check_supported(
            config, instrument_first, instrumented_avoid_seeds, rarity_view
        )
        self.backend = "soa"
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.engine = DiscreteEventEngine()
        self.metrics = metrics or MetricsCollector(config.max_conns)
        self.instrument_first = 0
        self.instrumented_avoid_seeds = instrumented_avoid_seeds
        self.instrumented_start_empty = instrumented_start_empty
        self.rarity_view = rarity_view
        self.instrumented_peers: list = []
        self.piece_counts = np.zeros(config.num_pieces, dtype=np.int64)
        self.connection_stats = ConnectionStats()
        self.profiler: Optional[RoundProfiler] = (
            RoundProfiler(stages=SOA_STAGES) if profile else None
        )
        self.seed_upload_count = 0
        self._rounds = 0
        self._setup_done = False
        if checkpoint_every < 0:
            raise ParameterError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ParameterError(
                "checkpoint_every > 0 requires a checkpoint_path"
            )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.checkpoints_written = 0
        self.resumed_from_round: Optional[int] = None
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None:
            self.fault_injector = FaultInjector(faults, config.seed)
            self.engine.add_pre_dispatch_hook(self.fault_injector.observe)
        self.engine.register("round", self._on_round)
        self.engine.register("arrival", self._on_arrival)

        self._accept_cap = max(
            int(config.ns_size * config.ns_accept_factor), config.ns_size
        )
        expected = (
            config.num_seeds
            + config.initial_leechers
            + config.flash_size
            + int(config.arrival_rate * config.max_time * 1.25)
            + 64
        )
        self.store = PeerStore(
            expected, config.num_pieces, self._accept_cap
        )
        #: Reusable per-round temporaries (masks, quotas, sweeps): a
        #: settled swarm's rounds run allocation-free out of this arena.
        self.scratch = ScratchArena()
        #: Active trading connections as (slot_a, slot_b) rows, a < b.
        #: Row order is part of the deterministic state (checkpointed).
        self._pairs = np.zeros((0, 2), dtype=np.int64)
        self._id_to_slot: Dict[int, int] = {}
        self._next_id = 0
        self._n_leech = 0
        self._n_seeds = 0
        self._population_log: List[Tuple[float, int, int]] = []
        self._full_words = pack_mask(
            config.num_pieces, (1 << config.num_pieces) - 1
        )
        self._counts_snapshot: Optional[np.ndarray] = None
        self._snapshot_round = -1
        self._alive_cache = np.zeros(0, dtype=np.int64)
        self._alive_dirty = True
        #: Arrival slots whose tracker announce is deferred to the next
        #: round boundary (neighbor rows are only read during rounds,
        #: so coalescing the announces there is observation-equivalent
        #: and turns per-arrival work into one batch per round).
        self._pending_announce: List[int] = []

    @staticmethod
    def _check_supported(
        config: SimConfig,
        instrument_first: int,
        instrumented_avoid_seeds: bool,
        rarity_view: str,
    ) -> None:
        hint = "; use Swarm(config, backend='object') for this option"
        if instrument_first > 0 or instrumented_avoid_seeds:
            raise ParameterError(
                "the soa backend does not support per-peer "
                "instrumentation" + hint
            )
        if rarity_view != "global":
            raise ParameterError(
                f"the soa backend supports rarity_view='global' only, "
                f"got {rarity_view!r}" + hint
            )
        if config.piece_selection not in ("rarest", "strict-rarest", "random"):
            raise ParameterError(
                f"the soa backend supports piece_selection in "
                f"('rarest', 'strict-rarest', 'random'), "
                f"got {config.piece_selection!r}" + hint
            )
        if config.matching != "blind":
            raise ParameterError(
                f"the soa backend supports matching='blind' only, "
                f"got {config.matching!r}" + hint
            )
        if config.blocks_per_piece != 1:
            raise ParameterError(
                f"the soa backend transfers whole pieces "
                f"(blocks_per_piece=1), got {config.blocks_per_piece}"
                + hint
            )
        if config.tracker_bias_bootstrap:
            raise ParameterError(
                "the soa backend does not support "
                "tracker_bias_bootstrap" + hint
            )

    # ------------------------------------------------------------------
    # Setup / spawning
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Create the initial population and schedule the event skeleton."""
        if self._setup_done:
            raise SimulationError("setup() called twice")
        self._setup_done = True
        config = self.config

        if config.num_seeds:
            self._spawn_batch(0.0, config.num_seeds, is_seed=True)
        if config.initial_leechers:
            self._spawn_batch(
                0.0,
                config.initial_leechers,
                init_words=self._initial_words(config.initial_leechers),
            )
        if config.arrival_process == "flash" and config.flash_size:
            self._spawn_batch(0.0, config.flash_size)
        elif config.arrival_process == "poisson" and config.arrival_rate > 0:
            self._schedule_next_arrival()

        expected_rounds = int(config.max_time / config.piece_time)
        self.metrics.set_expected_rounds(expected_rounds)
        self.engine.schedule_at(config.piece_time, Event("round"))

    def _initial_words(self, count: int) -> Optional[np.ndarray]:
        """Packed initial bitfields for ``count`` initial leechers."""
        config = self.config
        if config.initial_distribution == "empty":
            return None
        prob = np.full(config.num_pieces, config.initial_fill)
        if config.initial_distribution == "skewed":
            prob[: config.skewed_pieces] *= config.skew_factor
        held = self.rng.random((count, config.num_pieces)) < prob[None, :]
        # A complete "initial leecher" would depart instantly; drop one
        # random piece so it participates at least one round.
        full_rows = np.flatnonzero(held.all(axis=1))
        if full_rows.size:
            drops = self.rng.integers(
                0, config.num_pieces, size=full_rows.size
            )
            held[full_rows, drops] = False
        return pack_rows(held)

    def _spawn_batch(
        self,
        time: float,
        count: int,
        *,
        is_seed: bool = False,
        init_words: Optional[np.ndarray] = None,
        announce: bool = True,
    ) -> np.ndarray:
        config = self.config
        store = self.store
        slots = store.allocate(count)
        self._alive_dirty = True
        ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        self._next_id += count
        store.peer_id[slots] = ids
        self._id_to_slot.update(zip(ids.tolist(), slots.tolist()))
        store.joined_at[slots] = time
        if is_seed:
            store.is_seed[slots] = True
            store.bits[slots] = self._full_words[None, :]
            store.counts[slots] = config.num_pieces
            self.piece_counts += count
            self._n_seeds += count
        else:
            self._n_leech += count
            if init_words is not None:
                store.bits[slots] = init_words
                counts = popcount_rows(init_words)
                store.counts[slots] = counts
                self.piece_counts += unpack_rows(
                    init_words, config.num_pieces
                ).sum(axis=0)
                store.first_piece_at[slots[counts > 0]] = time
                store.prelast_at[
                    slots[counts >= config.num_pieces - 1]
                ] = time
            if config.bandwidth_classes is not None:
                fractions = [f for f, _ in config.bandwidth_classes]
                caps = np.array(
                    [int(c) for _, c in config.bandwidth_classes],
                    dtype=np.int64,
                )
                chosen = self.rng.choice(
                    len(fractions), size=count, p=fractions
                )
                store.upload_capacity[slots] = caps[chosen]
        if announce:
            self._announce_batch(slots)
        else:
            self._pending_announce.extend(slots.tolist())
        return slots

    # ------------------------------------------------------------------
    # Tracker announce (slot-native, whole batches at once)
    # ------------------------------------------------------------------
    def _announce_batch(self, slots: np.ndarray) -> None:
        """Fill each announcer's neighbor set toward ``ns_size``.

        The tracker's sequential permutation walk becomes rejection
        sampling over the whole announcer batch: every announcer draws
        an oversampled batch of uniform candidates, invalid draws
        (self, duplicates, existing neighbors, at-cap leechers) are
        masked, and per-endpoint rank filters enforce the announce
        quota and the row-space cap; unfilled announcers redraw for a
        few passes.  A near-saturated swarm can leave an announcer
        slightly under-filled where the sequential walk would have
        scanned every peer — it retries at the next refill interval.
        """
        store = self.store
        config = self.config
        injector = self.fault_injector
        if injector is not None:
            outage = injector.announce_outage()
            if outage is not None:
                if outage.mode == "empty":
                    for _ in range(slots.size):
                        injector.record_empty_announce()
                    return
                for slot in slots:
                    deficit = config.ns_size - int(store.nbr_deg[slot])
                    if deficit > 0:
                        self._announce_stale(int(slot), deficit, outage)
                return
        alive = self._alive_slots()
        if alive.size <= 1:
            return
        need = config.ns_size - store.nbr_deg[slots]
        ann = slots[need > 0]
        for _ in range(3):
            need = config.ns_size - store.nbr_deg[ann]
            ann = ann[need > 0]
            need = need[need > 0]
            if ann.size == 0:
                break
            admitted = self._announce_pass(ann, need, alive)
            if not admitted:
                break

    def _announce_pass(
        self, ann: np.ndarray, need: np.ndarray, alive: np.ndarray
    ) -> int:
        """One oversampled draw-filter-admit pass; returns additions.

        Two structural facts keep this cheap: proposals are generated
        grouped by announcer (``repeat``), so the announce-quota rank
        needs no sort; and the announcer's row always has room for its
        quota (``accept_cap >= ns_size``), so row space only binds on
        the *candidate* role — and only for the handful of candidates
        actually oversubscribed this pass, which are rank-filtered in
        isolation.
        """
        store = self.store
        cap = store.capacity
        oversample = np.maximum((3 * need) // 2, 4)
        prop_ann = np.repeat(ann, oversample)
        n_prop = prop_ann.size
        cand = alive[self.rng.integers(0, alive.size, size=n_prop)]
        ok = cand != prop_ann
        if int(store.nbr_deg.sum()) > 0:
            # Existing-relation check against the announcer's row
            # (chunked: the row slice is n_prop x accept_cap).  The
            # relation is symmetric, so one side suffices — unless the
            # announcer is a seed (counter-only, no row), where the
            # candidate's row is the only record.  A fresh swarm (flash
            # setup) has no relations at all and skips the gather.
            chunk = max(1, _CHUNK_CELLS // max(store.nbr_width, 1))
            seed_ann = store.is_seed[prop_ann]
            for lo in range(0, n_prop, chunk):
                hi = min(n_prop, lo + chunk)
                side = np.where(
                    seed_ann[lo:hi], cand[lo:hi], prop_ann[lo:hi]
                )
                other = np.where(
                    seed_ann[lo:hi], prop_ann[lo:hi], cand[lo:hi]
                )
                known = (store.nbr[side] == other[:, None]).any(axis=1)
                ok[lo:hi] &= ~known
        # Leecher candidates with a full row decline.
        ok &= store.is_seed[cand] | (
            store.nbr_deg[cand] < self._accept_cap
        )
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            return 0
        p_ann = prop_ann[idx]
        p_cand = cand[idx]
        # Announce quota: proposals stay grouped by announcer in draw
        # order, so the within-group rank is position minus group start.
        quota = self.scratch.zeros("announce_quota", cap)
        quota[ann] = need
        admit = _contiguous_ranks(p_ann) < quota[p_ann]
        p_ann = p_ann[admit]
        p_cand = p_cand[admit]
        if p_ann.size == 0:
            return 0
        # Dedupe repeated unordered pairs within the batch (keep the
        # earliest draw, like the tracker's walk visiting each peer
        # once).  A duplicate inside the quota window wastes its slot —
        # the next pass redraws it.
        key = (
            np.minimum(p_ann, p_cand) * cap
            + np.maximum(p_ann, p_cand)
        )
        _, first = np.unique(key, return_index=True)
        first.sort()
        p_ann = p_ann[first]
        p_cand = p_cand[first]
        # Candidate-role row space: capacity left after this pass's own
        # announcer-role additions.  Only oversubscribed candidates
        # (rare outside flash setup) need the rank filter.
        space = self.scratch.take("announce_space", cap)
        np.subtract(self._accept_cap, store.nbr_deg, out=space)
        space[store.is_seed] = np.iinfo(np.int64).max
        space -= np.bincount(p_ann, minlength=cap)
        load = np.bincount(p_cand, minlength=cap)
        over = load > space
        if over.any():
            viol = over[p_cand]
            v_idx = np.flatnonzero(viol)
            ranks = group_ranks(p_cand[v_idx], v_idx)
            keep = np.ones(p_ann.size, dtype=bool)
            keep[v_idx] = ranks < space[p_cand[v_idx]]
            p_ann = p_ann[keep]
            p_cand = p_cand[keep]
        if p_ann.size == 0:
            return 0
        self._append_relations(p_ann, p_cand, grouped=True)
        self._append_relations(p_cand, p_ann)
        return p_ann.size

    def _append_relations(
        self,
        holders: np.ndarray,
        values: np.ndarray,
        *,
        grouped: bool = False,
    ) -> None:
        """Record one direction of new relations (holders may repeat).

        Seed holders are counter-only; leecher holders get the values
        scattered into their rows at their current fill positions.
        ``grouped=True`` asserts equal holders are already contiguous
        (announce proposals are generated that way), skipping the sort.
        """
        store = self.store
        seed_side = store.is_seed[holders]
        if seed_side.any():
            np.add.at(store.nbr_deg, holders[seed_side], 1)
            holders = holders[~seed_side]
            values = values[~seed_side]
        if holders.size == 0:
            return
        if grouped:
            h = holders
            v = values
        else:
            order = np.argsort(holders, kind="stable")
            h = holders[order]
            v = values[order]
        pos = store.nbr_deg[h] + _contiguous_ranks(h)
        store.nbr[h, pos] = v
        np.add.at(store.nbr_deg, holders, 1)

    def _announce_stale(self, slot: int, deficit: int, outage) -> int:
        """Stale-window announce: a fixed handout from the snapshot."""
        store = self.store
        injector = self.fault_injector
        pool_ids = injector.stale_peer_ids(
            outage, sorted(self._id_to_slot)
        )
        deg = int(store.nbr_deg[slot])
        neighbor_slots = {int(v) for v in store.nbr[slot, :deg]}
        my_id = int(store.peer_id[slot])
        candidates = []
        for pid in pool_ids:
            if pid == my_id:
                continue
            cand_slot = self._id_to_slot.get(pid, -1)
            if cand_slot in neighbor_slots:
                continue
            candidates.append(pid)
        if not candidates:
            return 0
        permuted = [
            candidates[j] for j in self.rng.permutation(len(candidates))
        ]
        added = 0
        for pid in permuted[:deficit]:
            cand_slot = self._id_to_slot.get(pid)
            if cand_slot is None:
                continue  # departed during the outage: wasted handout
            if (
                not store.is_seed[cand_slot]
                and store.nbr_deg[cand_slot] >= self._accept_cap
            ):
                continue
            self._add_relation(slot, int(cand_slot))
            added += 1
        return added

    def _add_relation(self, a: int, b: int) -> None:
        """Record the symmetric neighbor relation between two slots."""
        store = self.store
        if store.is_seed[a]:
            store.nbr_deg[a] += 1
        else:
            store.append_neighbor(a, b)
        if store.is_seed[b]:
            store.nbr_deg[b] += 1
        else:
            store.append_neighbor(b, a)

    def _alive_slots(self) -> np.ndarray:
        if self._alive_dirty:
            self._alive_cache = np.flatnonzero(self.store.alive)
            self._alive_dirty = False
        return self._alive_cache

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.config.arrival_rate))
        when = self.engine.now + delay
        if when <= self.config.max_time:
            self.engine.schedule_at(when, Event("arrival"))

    def _on_arrival(self, time: float, event: Event) -> None:
        self._spawn_batch(time, 1, announce=False)
        self._schedule_next_arrival()

    # ------------------------------------------------------------------
    # The protocol round
    # ------------------------------------------------------------------
    def _on_round(self, time: float, event: Event) -> None:
        config = self.config
        store = self.store
        self._rounds += 1
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_round()

        if self._pending_announce:
            self._announce_batch(
                np.array(self._pending_announce, dtype=np.int64)
            )
            self._pending_announce.clear()
        self._depart_lingering_seeds(time)
        self._handle_aborts(time)
        self._inject_churn(time)
        self._maintain_connections()
        if profiler is not None:
            profiler.lap("store")

        leech = np.flatnonzero(store.alive & ~store.is_seed)
        pot_full = self.scratch.zeros("pot_full", store.capacity)
        if leech.size:
            src, dst, row_idx = self._leech_edges(leech)
            if src.size:
                give_sd, give_ds = interest_flags(
                    store.bits, src, dst,
                    counts=store.counts,
                    num_pieces=self.config.num_pieces,
                )
                mutual = give_sd & give_ds
                pot = np.bincount(
                    row_idx[mutual], minlength=leech.size
                )
            else:
                give_sd = give_ds = mutual = np.zeros(0, dtype=bool)
                pot = np.zeros(leech.size, dtype=np.int64)
            pot_full[leech] = pot
            if profiler is not None:
                profiler.lap("interest")

            self._fill_slots(leech, dst, row_idx, mutual, pot)
            if profiler is not None:
                profiler.lap("selection")

            self._exchange(time)
            if profiler is not None:
                profiler.lap("exchange")

            self._seed_uploads(src, dst, time)
            self._donations(leech, time)
            if profiler is not None:
                profiler.lap("seeds")

            self._handle_completions(time)
            self._handle_shakes(time)
            self._refill_neighbor_sets()
        else:
            if profiler is not None:
                profiler.lap("interest")

        self._log_round(time, pot_full)
        if profiler is not None:
            profiler.lap("bookkeeping")

        next_time = time + config.piece_time
        if next_time <= config.max_time and (
            (self._n_leech + self._n_seeds) > 0
            or self.engine.pending_events > 0
        ):
            self.engine.schedule_at(next_time, Event("round"))

        if (
            self.checkpoint_every > 0
            and self._rounds % self.checkpoint_every == 0
        ):
            self.write_checkpoint()

    # -- store maintenance -------------------------------------------------
    def _depart_lingering_seeds(self, time: float) -> None:
        if self.config.completed_become_seeds <= 0:
            return  # origin seeds have no deadline and never leave
        store = self.store
        due = np.flatnonzero(
            store.alive & store.is_seed & (store.seed_until <= time)
        )
        if due.size:
            self._remove_peers(due)

    def _handle_aborts(self, time: float) -> None:
        """Leechers abandon at rate ``abort_rate`` via one batched draw."""
        rate = self.config.abort_rate
        if rate <= 0.0:
            return
        store = self.store
        leech = np.flatnonzero(store.alive & ~store.is_seed)
        if leech.size == 0:
            return
        mask = self.rng.random(leech.size) < rate
        if mask.any():
            gone = leech[mask]
            for slot in gone:
                self.metrics.record_abort(time, int(store.counts[slot]))
            self._remove_peers(gone)

    def _inject_churn(self, time: float) -> None:
        """Fault-plan churn through the injector's batched mask."""
        injector = self.fault_injector
        if injector is None or injector.plan.churn_hazard <= 0.0:
            return
        store = self.store
        leech = np.flatnonzero(store.alive & ~store.is_seed)
        if leech.size == 0:
            return
        mask = injector.churn_mask(leech.size)
        if mask.any():
            gone = leech[mask]
            for slot in gone:
                self.metrics.record_abort(time, int(store.counts[slot]))
            self._remove_peers(gone)

    def _maintain_connections(self) -> None:
        """Drop pairs that lost interest or failed exogenously."""
        pairs = self._pairs
        if pairs.shape[0] == 0:
            return
        config = self.config
        a = pairs[:, 0]
        b = pairs[:, 1]
        give_ab, give_ba = interest_flags(
            self.store.bits, a, b,
            counts=self.store.counts,
            num_pieces=config.num_pieces,
        )
        if config.strict_tft:
            alive = give_ab & give_ba
        else:
            alive = give_ab | give_ba
        if config.connection_failure_prob > 0.0:
            idx = np.flatnonzero(alive)
            if idx.size:
                failed = (
                    self.rng.random(idx.size)
                    < config.connection_failure_prob
                )
                alive[idx[failed]] = False
        injector = self.fault_injector
        if (
            injector is not None
            and injector.plan.connection_break_prob > 0.0
        ):
            idx = np.flatnonzero(alive)
            broken = injector.break_mask(idx.size)
            if broken.any():
                alive[idx[broken]] = False
        survived = int(alive.sum())
        self.connection_stats.survived += survived
        self.connection_stats.dropped += pairs.shape[0] - survived
        if survived < pairs.shape[0]:
            self._pairs = pairs[alive]

    # -- interest edges ----------------------------------------------------
    def _leech_edges(
        self, leech: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge list (src leecher, dst neighbor) over all leecher rows."""
        store = self.store
        deg = store.nbr_deg[leech]
        total = int(deg.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        width = int(deg.max())
        sub = store.nbr[leech][:, :width]
        mask = np.arange(width)[None, :] < deg[:, None]
        dst = sub[mask]
        row_idx = np.repeat(
            np.arange(leech.size, dtype=np.int64), deg
        )
        src = leech[row_idx]
        return src, dst, row_idx

    # -- matching ----------------------------------------------------------
    def _partner_degrees(self) -> np.ndarray:
        if self._pairs.shape[0] == 0:
            return np.zeros(self.store.capacity, dtype=np.int64)
        return np.bincount(
            self._pairs.ravel(), minlength=self.store.capacity
        )

    def _fill_slots(
        self,
        leech: np.ndarray,
        dst: np.ndarray,
        row_idx: np.ndarray,
        mutual: np.ndarray,
        pot: np.ndarray,
    ) -> None:
        """Blind bilateral matching over the mutual-interest edges.

        Each leecher proposes one uniformly drawn potential partner per
        open slot; proposals then pass a handshake/setup gate and a
        two-sided rank filter that admits at most ``open`` new
        connections per endpoint (an endpoint whose earlier-priority
        proposal fails elsewhere simply under-fills, exactly like the
        object backend's busy-candidate waste).
        """
        config = self.config
        cap = self.store.capacity
        degrees = self._partner_degrees()
        open_slots = config.max_conns - degrees[leech]
        # Candidate pool per proposer = potential minus current partners
        # (the object backend's ``candidates`` list).  Only rows with an
        # open slot propose, so only their edges are kept; the per-row
        # edge order, and with it every draw below, is unchanged.
        edges = np.flatnonzero(mutual & (open_slots > 0)[row_idx])
        m_row = row_idx[edges]
        m_dst = dst[edges]
        if self._pairs.shape[0]:
            # Sized for k rows up front so a widening table does not
            # regrow the arena buffer mid-run.
            width = int(degrees.max())
            table = self.scratch.take(
                "partner_table", max(width, config.max_conns) * cap
            )[: width * cap].reshape(width, cap)
            table.fill(-1)
            fill_partner_table(self._pairs, table)
            keep = ~is_partner(table, leech[m_row], m_dst)
            m_row = m_row[keep]
            m_dst = m_dst[keep]
        avail = np.bincount(m_row, minlength=leech.size)
        proposing = (avail > 0) & (open_slots > 0)
        if not proposing.any():
            return
        starts = np.cumsum(avail) - avail
        rows = np.flatnonzero(proposing)
        prop_row = np.repeat(rows, open_slots[rows])
        n_prop = prop_row.size
        self.connection_stats.attempts += n_prop
        u = self.rng.random(n_prop)
        span = avail[prop_row]
        pick = starts[prop_row] + np.minimum(
            (u * span).astype(np.int64), span - 1
        )
        candidate = m_dst[pick]
        proposer = leech[prop_row]
        # Per-peer sweep positions (the object backend's random
        # processing order); a proposal's priority is its owner's turn,
        # slots within the turn in draw order.
        sweep = self.scratch.full("sweep", cap, -1)
        sweep[leech[rows]] = self.rng.permutation(rows.size)
        priority = (
            sweep[proposer] * config.max_conns
            + _contiguous_ranks(prop_row)
        )

        key = (
            np.minimum(proposer, candidate) * cap
            + np.maximum(proposer, candidate)
        )
        ok = np.ones(n_prop, dtype=bool)
        if config.connection_setup_prob < 1.0:
            idx = np.flatnonzero(ok)
            keep = (
                self.rng.random(idx.size) < config.connection_setup_prob
            )
            ok[idx[~keep]] = False
        injector = self.fault_injector
        if (
            injector is not None
            and injector.plan.handshake_failure_prob > 0.0
        ):
            idx = np.flatnonzero(ok)
            failed = injector.handshake_mask(idx.size)
            if failed.any():
                ok[idx[failed]] = False
        ok_idx = np.flatnonzero(ok)
        if ok_idx.size == 0:
            return
        # Dedupe duplicate proposals of the same unordered pair, keeping
        # the earliest sweep turn (the object backend's repeat draws of
        # a formed partner are wasted attempts, so they stay counted).
        keep = group_ranks(key[ok_idx], priority[ok_idx]) == 0
        keep_idx = ok_idx[keep]
        end_a = proposer[keep_idx]
        end_b = candidate[keep_idx]
        remaining = self.scratch.zeros("remaining", cap)
        remaining[leech] = open_slots
        priority = priority[keep_idx]
        # Iterated two-sided rank filter: each pass admits proposals
        # ranked inside both endpoints' residual capacity, then charges
        # the accepted ones and retries the rest — converging on the
        # sequential walk's fill level without its O(N) loop.
        accept = np.zeros(keep_idx.size, dtype=bool)
        pending = np.arange(keep_idx.size)
        for _ in range(3):
            if pending.size == 0:
                break
            pr = priority[pending]
            # Rank both endpoint roles in one group per slot: a peer
            # proposing while also being proposed to spends the same
            # open slots either way (the object backend's busy check
            # counts total partners, not per-role).
            ends = np.concatenate([end_a[pending], end_b[pending]])
            ranks = group_ranks(ends, np.concatenate([pr, pr]))
            n_pend = pending.size
            admitted = (ranks[:n_pend] < remaining[end_a[pending]]) & (
                ranks[n_pend:] < remaining[end_b[pending]]
            )
            if not admitted.any():
                break
            taken = pending[admitted]
            accept[taken] = True
            np.subtract.at(remaining, end_a[taken], 1)
            np.subtract.at(remaining, end_b[taken], 1)
            pending = pending[~admitted]
            if pending.size:
                # A failed attempt is wasted, not queued: proposals
                # whose endpoint ran out of slots can never be admitted
                # and must stop occupying ranks ahead of later-priority
                # proposals (the object backend's busy-candidate waste
                # does not reserve the proposer's own slot either).
                live = (remaining[end_a[pending]] > 0) & (
                    remaining[end_b[pending]] > 0
                )
                pending = pending[live]
        formed = int(accept.sum())
        if formed:
            # Sequential-sweep attempt accounting: a formed connection
            # consumes one of the candidate's open slots *before its
            # own turn* when the candidate proposes later, so that slot
            # never becomes an attempt in the object backend.
            acc = np.flatnonzero(accept)
            later = (sweep[end_b[acc]] >= 0) & (
                sweep[end_b[acc]] > sweep[end_a[acc]]
            )
            self.connection_stats.attempts -= int(later.sum())
        if formed:
            new_pairs = np.stack(
                [
                    np.minimum(end_a, end_b)[accept],
                    np.maximum(end_a, end_b)[accept],
                ],
                axis=1,
            )
            self._pairs = np.concatenate([self._pairs, new_pairs], axis=0)
        self.connection_stats.formed += formed

    # -- piece transfer ----------------------------------------------------
    def _rarity_snapshot(self) -> np.ndarray:
        """Round-start replication counts (one snapshot per round)."""
        if self._snapshot_round != self._rounds:
            self._snapshot_round = self._rounds
            self._counts_snapshot = self.piece_counts.copy()
        return self._counts_snapshot

    def _select_pieces(
        self,
        recv: np.ndarray,
        send: Optional[np.ndarray] = None,
        offer_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized piece choice per (receiver, sender) transfer.

        Candidates are the sender's (or explicit offer's) pieces the
        receiver lacks; the policy weights mirror
        :func:`~repro.sim.piece_selection.select_piece` — uniform below
        the random-first cutoff, ``(count + 1) ** -RARITY_EXPONENT``
        for noisy rarest, argmin-mask for strict rarest.  Returns -1
        for transfers with no candidates.
        """
        config = self.config
        store = self.store
        n = recv.size
        num_pieces = config.num_pieces
        out = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return out
        policy = config.piece_selection
        counts_snap = self._rarity_snapshot()
        if policy == "rarest":
            rarity_w = (counts_snap + 1.0) ** -RARITY_EXPONENT
        chunk = max(1, _CHUNK_CELLS // max(num_pieces, 1))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            if offer_words is not None:
                offered = offer_words[lo:hi]
            else:
                offered = store.bits[send[lo:hi]]
            cand_words = offered & ~store.bits[recv[lo:hi]]
            cand = unpack_rows(cand_words, num_pieces)
            if policy == "random":
                weights = cand.astype(np.float64)
            elif policy == "rarest":
                weights = cand * rarity_w[None, :]
                below = (
                    store.counts[recv[lo:hi]]
                    < config.random_first_cutoff
                )
                if below.any():
                    weights[below] = cand[below]
            else:  # strict-rarest
                masked = np.where(
                    cand, counts_snap[None, :], np.iinfo(np.int64).max
                )
                row_min = masked.min(axis=1)
                weights = (
                    (masked == row_min[:, None]) & cand
                ).astype(np.float64)
                below = (
                    store.counts[recv[lo:hi]]
                    < config.random_first_cutoff
                )
                if below.any():
                    weights[below] = cand[below]
            out[lo:hi] = weighted_pick_rows(weights, self.rng)
        return out

    def _apply_grants(
        self, r: np.ndarray, p: np.ndarray, time: float
    ) -> int:
        """Land granted pieces: bits, counts, replication, milestones.

        Callers guarantee ``(r, p)`` rows are unique and that no
        receiver already holds its piece (selection draws candidates
        from the live bitfields).
        """
        if r.size == 0:
            return 0
        store = self.store
        num_pieces = self.config.num_pieces
        word = (p >> 6).astype(np.int64)
        bit = _ONE << (p & 63).astype(np.uint64)
        np.bitwise_or.at(store.bits, (r, word), bit)
        touched = self.scratch.zeros("grant_rows", store.capacity, np.bool_)
        touched[r] = True
        affected = np.flatnonzero(touched)
        before = store.counts[affected].copy()
        np.add.at(store.counts, r, 1)
        after = store.counts[affected]
        started = affected[(before == 0) & (after > 0)]
        store.first_piece_at[started] = time
        prelast = affected[
            (before < num_pieces - 1) & (after >= num_pieces - 1)
        ]
        store.prelast_at[prelast] = time
        self.piece_counts += np.bincount(p, minlength=num_pieces)
        return int(r.size)

    def _transfer(
        self,
        recv: np.ndarray,
        send: Optional[np.ndarray],
        time: float,
        offer_words: Optional[np.ndarray] = None,
        max_retry: int = 4,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run a batch of transfers, re-drawing collisions.

        The object backend applies grants sequentially, so two senders
        pointed at one receiver deliver two *distinct* pieces.  One
        batched draw would collide them onto the same piece and silently
        halve the receiver's round; instead, the first transfer per
        ``(receiver, piece)`` key lands and the collided remainder
        re-selects against the updated bitfields — a couple of
        iterations over a shrinking tail recovers the sequential
        cascade's throughput.  Returns the landed
        ``(recv, pieces, send)`` triples.
        """
        landed_recv: List[np.ndarray] = []
        landed_piece: List[np.ndarray] = []
        landed_send: List[np.ndarray] = []
        if send is None:
            send = np.full(recv.size, -1, dtype=np.int64)
        for _ in range(max_retry):
            if recv.size == 0:
                break
            pieces = self._select_pieces(
                recv,
                send=None if offer_words is not None else send,
                offer_words=offer_words,
            )
            valid = pieces >= 0
            recv_v = recv[valid]
            pieces_v = pieces[valid]
            send_v = send[valid]
            offer_v = offer_words[valid] if offer_words is not None else None
            if recv_v.size == 0:
                break
            key = recv_v * self.config.num_pieces + pieces_v
            _, first = np.unique(key, return_index=True)
            land = np.zeros(recv_v.size, dtype=bool)
            land[first] = True
            self._apply_grants(recv_v[land], pieces_v[land], time)
            landed_recv.append(recv_v[land])
            landed_piece.append(pieces_v[land])
            landed_send.append(send_v[land])
            recv = recv_v[~land]
            send = send_v[~land]
            if offer_v is not None:
                offer_words = offer_v[~land]
        if not landed_recv:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        return (
            np.concatenate(landed_recv),
            np.concatenate(landed_piece),
            np.concatenate(landed_send),
        )

    def _exchange(self, time: float) -> int:
        """Tit-for-tat swaps over the pair list, both directions batched."""
        pairs = self._pairs
        if pairs.shape[0] == 0:
            return 0
        config = self.config
        store = self.store
        a = pairs[:, 0]
        b = pairs[:, 1]
        give_ab, give_ba = interest_flags(
            store.bits, a, b,
            counts=store.counts, num_pieces=config.num_pieces,
        )
        if config.strict_tft:
            both = give_ab & give_ba
            act_ab = both
            act_ba = both
        else:
            act_ab = give_ab
            act_ba = give_ba
        if config.bandwidth_classes is not None:
            # Per-endpoint upload budget: rank the pairs randomly and
            # keep each pair only while both uplinks have capacity left.
            capacity = np.where(
                store.upload_capacity >= 0,
                store.upload_capacity,
                np.iinfo(np.int64).max,
            )
            priority = self.rng.permutation(pairs.shape[0])
            rank_a = group_ranks(a, priority)
            rank_b = group_ranks(b, priority)
            budget_ok = (rank_a < capacity[a]) & (rank_b < capacity[b])
            act_ab = act_ab & budget_ok
            act_ba = act_ba & budget_ok
        recv = np.concatenate([b[act_ab], a[act_ba]])
        send = np.concatenate([a[act_ab], b[act_ba]])
        if recv.size == 0:
            return 0
        landed, _, _ = self._transfer(recv, send, time)
        return landed.size

    def _seed_uploads(
        self, src: np.ndarray, dst: np.ndarray, time: float
    ) -> int:
        """Seed grants via the reverse edges of the leecher rows.

        Every (leecher, seed) relation appears exactly once as a leecher
        edge whose destination is a seed, so the seeds' interested
        neighbors come straight from the round's edge list — no seed
        rows needed.  Each seed serves up to ``seed_upload_slots``
        distinct receivers per round (rank filter = the object
        backend's ``permutation(interested)[:slots]``).
        """
        config = self.config
        store = self.store
        slots = config.seed_upload_slots
        if slots <= 0 or self._n_seeds == 0 or src.size == 0:
            return 0
        to_seed = store.is_seed[dst] & (
            store.counts[src] < config.num_pieces
        )
        s_recv = src[to_seed]
        s_seed = dst[to_seed]
        if s_recv.size == 0:
            return 0
        priority = self.rng.permutation(s_recv.size)
        rank = group_ranks(s_seed, priority)
        chosen = rank < slots
        s_recv = s_recv[chosen]
        s_seed = s_seed[chosen]
        if config.super_seeding:
            for seed_slot in np.unique(s_seed):
                remaining = (
                    ~store.seeded[seed_slot] & self._full_words
                )
                if not remaining.any():
                    # Every piece injected at least once: reset the
                    # restriction (the seed starts a second pass).
                    store.seeded[seed_slot] = 0
            offer = ~store.seeded[s_seed] & self._full_words[None, :]
            landed, pieces, senders = self._transfer(
                s_recv, s_seed, time, offer_words=offer
            )
            for seed_slot, piece in zip(senders, pieces):
                store.seeded[int(seed_slot), int(piece) >> 6] |= (
                    _ONE << np.uint64(int(piece) & 63)
                )
        else:
            landed, _, _ = self._transfer(s_recv, s_seed, time)
        self.seed_upload_count += landed.size
        return landed.size

    def _donations(self, leech: np.ndarray, time: float) -> int:
        """Optimistic unchokes: free pieces for neighbors that can't pay."""
        config = self.config
        prob = config.optimistic_unchoke_prob
        if prob <= 0.0 or leech.size == 0:
            return 0
        store = self.store
        donating = (store.counts[leech] >= 1) & (
            self.rng.random(leech.size) < prob
        )
        donors = leech[donating]
        if donors.size == 0:
            return 0
        d_src, d_dst, d_row = self._leech_edges(donors)
        if d_src.size == 0:
            return 0
        to_leech = ~store.is_seed[d_dst]
        if config.optimistic_targets == "empty":
            eligible = to_leech & (store.counts[d_dst] == 0)
        else:
            # Starved: wants something from the donor but has nothing
            # novel to trade back (post-exchange bitfields, like the
            # object backend's donation pass).
            give_dn, give_nd = interest_flags(
                store.bits, d_src, d_dst,
                counts=store.counts, num_pieces=config.num_pieces,
            )
            eligible = to_leech & give_dn & ~give_nd
        per_donor = np.bincount(d_row[eligible], minlength=donors.size)
        has_target = per_donor > 0
        if not has_target.any():
            return 0
        pool_dst = d_dst[eligible]
        starts = np.cumsum(per_donor) - per_donor
        rows = np.flatnonzero(has_target)
        u = self.rng.random(rows.size)
        span = per_donor[rows]
        pick = starts[rows] + np.minimum(
            (u * span).astype(np.int64), span - 1
        )
        receivers = pool_dst[pick]
        senders = donors[rows]
        landed, _, _ = self._transfer(receivers, senders, time)
        return landed.size

    # -- bookkeeping -------------------------------------------------------
    def _record_completion(self, slot: int, time: float) -> None:
        store = self.store
        stats = PeerStats(joined_at=float(store.joined_at[slot]))
        stats.completed_at = time
        # Compressed acquisition timeline: the phase boundaries the
        # paper's analyses read (first piece = bootstrap exit, B-1
        # pieces = last-phase entry, completion).
        timeline = []
        for mark in (store.first_piece_at[slot], store.prelast_at[slot]):
            if not math.isnan(mark):
                timeline.append(float(mark))
        timeline.append(time)
        stats.piece_times = timeline
        if not math.isnan(store.shaken_at[slot]):
            stats.shaken_at = float(store.shaken_at[slot])
        capacity = int(store.upload_capacity[slot])
        self.metrics.completed.append(
            CompletedDownload(
                peer_id=int(store.peer_id[slot]),
                joined_at=float(store.joined_at[slot]),
                completed_at=time,
                stats=stats,
                shaken=bool(store.shaken[slot]),
                upload_capacity=capacity if capacity >= 0 else None,
            )
        )

    def _handle_completions(self, time: float) -> None:
        config = self.config
        store = self.store
        done = np.flatnonzero(
            store.alive
            & ~store.is_seed
            & (store.counts >= config.num_pieces)
        )
        if done.size == 0:
            return
        for slot in done:
            self._record_completion(int(slot), time)
        if config.completed_become_seeds > 0:
            store.is_seed[done] = True
            store.seed_until[done] = time + config.completed_become_seeds
            self._n_leech -= done.size
            self._n_seeds += done.size
            # Converted seeds become counter-only like origin seeds:
            # their own rows are dropped (the symmetric halves survive
            # in the leechers' rows, which is all the reverse-edge seed
            # uploads read); their trading pairs are severed.
            store.nbr[done] = -1
            self._drop_pairs_touching(done)
        else:
            self._remove_peers(done)

    def _drop_pairs_touching(self, slots: np.ndarray) -> None:
        if self._pairs.shape[0] == 0:
            return
        gone = self.scratch.zeros("pair_gone", self.store.capacity, np.bool_)
        gone[slots] = True
        keep = ~(gone[self._pairs[:, 0]] | gone[self._pairs[:, 1]])
        if not keep.all():
            self._pairs = self._pairs[keep]

    def _scrub_rows(self, slots: np.ndarray) -> np.ndarray:
        """Sever leecher ``slots``'s relations, batch-wise.

        Decrements every seed neighbor's relation counter (duplicates
        across slots accumulate via ``subtract.at``; entries within one
        row are unique) and returns the leech neighbors whose rows
        still carry an entry for one of ``slots`` (they may repeat).
        """
        store = self.store
        deg = store.nbr_deg[slots]
        width = int(deg.max()) if deg.size else 0
        if width == 0:
            return np.zeros(0, dtype=np.int64)
        sub = store.nbr[slots, :width]
        mask = np.arange(width)[None, :] < deg[:, None]
        entries = sub[mask]
        seed_mask = store.is_seed[entries]
        np.subtract.at(store.nbr_deg, entries[seed_mask], 1)
        return entries[~seed_mask]

    def _unlink(
        self, slots: np.ndarray, holders: np.ndarray, scan: bool = False
    ) -> None:
        """Delete every entry pointing at ``slots`` from other rows.

        The rows to touch are ``holders`` (plus, with ``scan``, every
        row holding one of ``slots`` — seeds keep no rows, so their
        relations are found by one gather over the whole adjacency),
        minus ``slots`` themselves, whose rows are cleared by the
        caller.  Leecher relations are symmetric, so a holder's entries
        that point at ``slots`` are exactly its scrubbed relations.
        """
        store = self.store
        gone = self.scratch.zeros("unlink_gone", store.capacity + 1, np.bool_)
        gone[slots] = True
        touched = self.scratch.zeros("unlink_rows", store.capacity, np.bool_)
        touched[holders] = True
        if scan:
            touched |= gone[store.nbr].any(axis=1)
        touched[slots] = False
        store.remove_row_entries(np.flatnonzero(touched), gone)

    def _handle_shakes(self, time: float) -> None:
        threshold = self.config.shake_threshold
        if threshold is None:
            return
        store = self.store
        num_pieces = self.config.num_pieces
        candidates = np.flatnonzero(
            store.alive
            & ~store.is_seed
            & ~store.shaken
            & (store.counts < num_pieces)
        )
        if candidates.size == 0:
            return
        ratios = store.counts[candidates] / num_pieces
        shakers = candidates[ratios >= threshold]
        if shakers.size == 0:
            return
        self._unlink(shakers, self._scrub_rows(shakers))
        store.nbr[shakers] = -1
        store.nbr_deg[shakers] = 0
        store.shaken[shakers] = True
        store.shaken_at[shakers] = time
        self._drop_pairs_touching(shakers)
        injector = self.fault_injector
        if injector is not None:
            blocked = injector.shake_mask(shakers.size)
        else:
            blocked = np.zeros(shakers.size, dtype=bool)
        if (~blocked).any():
            self._announce_batch(shakers[~blocked])

    def _refill_neighbor_sets(self) -> None:
        config = self.config
        interval_rounds = max(
            int(config.announce_interval / config.piece_time), 1
        )
        if self._rounds % interval_rounds != 0:
            return
        store = self.store
        depleted = np.flatnonzero(
            store.alive
            & ~store.is_seed
            & (store.nbr_deg < config.ns_size)
        )
        if depleted.size:
            self._announce_batch(depleted)

    def _remove_peers(self, slots: np.ndarray) -> None:
        """Depart peers: scrub relations, replication counts, free slots."""
        store = self.store
        seed_departing = store.is_seed[slots]
        holders = self._scrub_rows(slots[~seed_departing])
        self._unlink(slots, holders, scan=bool(seed_departing.any()))
        self.piece_counts -= unpack_rows(
            store.bits[slots], self.config.num_pieces
        ).sum(axis=0)
        seeds_gone = int(store.is_seed[slots].sum())
        self._n_seeds -= seeds_gone
        self._n_leech -= slots.size - seeds_gone
        self._drop_pairs_touching(slots)
        for pid in store.peer_id[slots].tolist():
            del self._id_to_slot[pid]
        store.release(slots)
        self._alive_dirty = True

    def _log_round(self, time: float, pot_full: np.ndarray) -> None:
        store = self.store
        metrics = self.metrics
        self._population_log.append((time, self._n_leech, self._n_seeds))
        degrees = None
        if (metrics.rounds_observed + 1) % metrics.entropy_every == 0:
            if metrics.entropy_includes_seeds:
                degrees = self.piece_counts
            else:
                degrees = self.piece_counts - self._n_seeds
        conn_counts = None
        leech_end = np.flatnonzero(store.alive & ~store.is_seed)
        if leech_end.size:
            partner_counts = self._partner_degrees()[leech_end]
            if metrics.occupancy_scope == "trading":
                in_scope = (store.counts[leech_end] >= 1) & (
                    pot_full[leech_end] >= 1
                )
                conn_counts = partner_counts[in_scope]
            else:
                conn_counts = partner_counts
        metrics.record_round(
            time,
            self._n_leech,
            self._n_seeds,
            degrees=degrees,
            conn_counts=conn_counts,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Soa snapshot document (dense arrays, ``backend`` marker)."""
        from repro.checkpoint.schema import snapshot_soa_swarm

        return snapshot_soa_swarm(self)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> SwarmResult:
        """Run to the configured horizon and return the result bundle."""
        start = _time.perf_counter()
        if not self._setup_done:
            self.setup()
        self.engine.run_until(self.config.max_time)
        return SwarmResult(
            config=self.config,
            metrics=self.metrics,
            instrumented=[],
            total_rounds=self._rounds,
            final_leechers=self._n_leech,
            final_seeds=self._n_seeds,
            tracker_population_log=list(self._population_log),
            connection_stats=self.connection_stats,
            seed_upload_count=self.seed_upload_count,
            events_processed=self.engine.processed_events,
            wall_time=_time.perf_counter() - start,
            fault_stats=(
                self.fault_injector.stats if self.fault_injector else None
            ),
            round_profile=(
                self.profiler.as_dict()
                if self.profiler is not None
                else None
            ),
            resumed_from_round=self.resumed_from_round,
            checkpoints_written=self.checkpoints_written,
            backend="soa",
        )
