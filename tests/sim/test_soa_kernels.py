"""Unit tests for the soa backend's array kernels.

Each kernel is checked against a straightforward scalar reference
(the ``Bitfield`` class, a per-group Python loop, or a brute-force
lexsort), including the fast paths that bypass the general code.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.bitfield import Bitfield
from repro.sim.config import SimConfig
from repro.sim.soa import (
    PeerStore,
    ScratchArena,
    SoaSwarm,
    _contiguous_ranks,
    fill_partner_table,
    group_ranks,
    interest_flags,
    is_partner,
    mask_from_words,
    pack_mask,
    pack_rows,
    popcount_rows,
    unpack_rows,
    weighted_pick_rows,
    words_for,
)


@pytest.mark.parametrize("num_pieces", [1, 7, 63, 64, 65, 70, 128, 200])
def test_pack_unpack_rows_round_trip(num_pieces):
    rng = np.random.default_rng(num_pieces)
    held = rng.random((17, num_pieces)) < 0.4
    packed = pack_rows(held)
    assert packed.shape == (17, words_for(num_pieces))
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(unpack_rows(packed, num_pieces), held)


@pytest.mark.parametrize("num_pieces", [1, 64, 70, 200])
def test_pack_rows_matches_bitfield_masks(num_pieces):
    """Row packing and the scalar ``Bitfield`` agree bit for bit."""
    rng = np.random.default_rng(3)
    held = rng.random((9, num_pieces)) < 0.5
    packed = pack_rows(held)
    for row, bools in zip(packed, held):
        pieces = [p for p in range(num_pieces) if bools[p]]
        mask = Bitfield.from_pieces(num_pieces, pieces)._mask
        assert mask_from_words(row) == mask
        np.testing.assert_array_equal(row, pack_mask(num_pieces, mask))


def test_pack_mask_high_bit():
    """Bit 63 set: the word value exceeds int64 range and must survive."""
    mask = 1 << 63
    words = pack_mask(64, mask)
    assert int(words[0]) == 1 << 63
    assert mask_from_words(words) == mask


def test_popcount_rows_matches_bitfield_count():
    rng = np.random.default_rng(11)
    held = rng.random((25, 130)) < 0.3
    counts = popcount_rows(pack_rows(held))
    np.testing.assert_array_equal(counts, held.sum(axis=1))


def test_interest_flags_matches_bitfield_reference():
    """Edge novelty flags equal the scalar subset comparisons."""
    rng = np.random.default_rng(5)
    num_pieces = 70
    held = rng.random((30, num_pieces)) < 0.5
    held[0, :] = False            # empty peer
    held[1, :] = True             # complete peer
    bits = pack_rows(held)
    src = rng.integers(0, 30, size=200)
    dst = rng.integers(0, 30, size=200)
    give_sd, give_ds = interest_flags(bits, src, dst)
    for k in range(src.size):
        s, d = held[src[k]], held[dst[k]]
        assert give_sd[k] == bool((s & ~d).any())
        assert give_ds[k] == bool((d & ~s).any())


def test_interest_flags_counts_path_is_exact():
    """The empty/complete count shortcut agrees with the full XOR path."""
    rng = np.random.default_rng(6)
    num_pieces = 40
    held = rng.random((50, num_pieces)) < 0.5
    held[:10, :] = False          # flash-crowd bootstrap: many empties
    held[10:14, :] = True
    bits = pack_rows(held)
    counts = popcount_rows(bits)
    src = rng.integers(0, 50, size=500)
    dst = rng.integers(0, 50, size=500)
    plain = interest_flags(bits, src, dst)
    fast = interest_flags(bits, src, dst, counts=counts,
                          num_pieces=num_pieces)
    np.testing.assert_array_equal(fast[0], plain[0])
    np.testing.assert_array_equal(fast[1], plain[1])


def test_interest_flags_counts_requires_num_pieces():
    bits = pack_rows(np.ones((2, 8), dtype=bool))
    counts = popcount_rows(bits)
    edge = np.array([0]), np.array([1])
    with pytest.raises(ValueError):
        interest_flags(bits, *edge, counts=counts)


def _rank_reference(keys, priority):
    """Brute-force group ranks: lexsort, then position within group."""
    order = np.lexsort((priority, keys))
    ranks = np.empty(keys.size, dtype=np.int64)
    for key in np.unique(keys):
        members = order[keys[order] == key]
        ranks[members] = np.arange(members.size)
    return ranks


def test_group_ranks_matches_reference():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 12, size=300)
    priority = rng.permutation(300)
    np.testing.assert_array_equal(
        group_ranks(keys, priority), _rank_reference(keys, priority)
    )


def test_group_ranks_ascending_priority_fast_path():
    """Already-ascending priorities take the single-sort branch."""
    rng = np.random.default_rng(8)
    keys = rng.integers(0, 9, size=120)
    priority = np.arange(120)
    np.testing.assert_array_equal(
        group_ranks(keys, priority), _rank_reference(keys, priority)
    )


def test_group_ranks_lexsort_fallback_on_huge_keys():
    """Keys too large for the fused int64 sort fall back to lexsort."""
    rng = np.random.default_rng(9)
    keys = rng.integers(0, 5, size=64) + (1 << 61)
    priority = rng.permutation(64)
    np.testing.assert_array_equal(
        group_ranks(keys, priority), _rank_reference(keys, priority)
    )


def test_group_ranks_empty_and_singleton():
    assert group_ranks(np.zeros(0, np.int64), np.zeros(0, np.int64)).size == 0
    np.testing.assert_array_equal(
        group_ranks(np.array([4]), np.array([0])), [0]
    )


def test_contiguous_ranks_matches_group_ranks():
    """For pre-grouped keys the sort-free rank equals the general one."""
    keys = np.repeat(np.array([3, 7, 7, 1, 9]), [2, 1, 3, 4, 2])
    expected = group_ranks(keys, np.arange(keys.size))
    np.testing.assert_array_equal(_contiguous_ranks(keys), expected)
    assert _contiguous_ranks(np.zeros(0, np.int64)).size == 0


def test_weighted_pick_rows_zero_rows_and_point_masses():
    rng = np.random.default_rng(10)
    weights = np.zeros((4, 6))
    weights[1, 3] = 2.5           # point mass -> always column 3
    weights[3, 0] = 1.0
    picks = weighted_pick_rows(weights, rng)
    assert picks[0] == -1 and picks[2] == -1
    assert picks[1] == 3 and picks[3] == 0
    assert weighted_pick_rows(np.zeros((0, 5)), rng).size == 0


def test_weighted_pick_rows_frequencies_track_weights():
    """The inverse-transform draw reproduces the weight distribution."""
    rng = np.random.default_rng(12)
    weights = np.tile(np.array([1.0, 2.0, 5.0]), (30_000, 1))
    picks = weighted_pick_rows(weights, rng)
    freq = np.bincount(picks, minlength=3) / picks.size
    np.testing.assert_allclose(freq, np.array([1, 2, 5]) / 8.0, atol=0.02)


# ----------------------------------------------------------------------
# Sort-free membership: the partner table, row scrubs, grant rows
# ----------------------------------------------------------------------
def _random_pairs(rng, capacity, max_degree, attempts):
    """Unique normalised pairs (a < b), every slot's degree capped."""
    degree = np.zeros(capacity, dtype=np.int64)
    seen = set()
    pairs = []
    for _ in range(attempts):
        a, b = sorted(rng.choice(capacity, size=2, replace=False).tolist())
        full = degree[a] >= max_degree or degree[b] >= max_degree
        if full or (a, b) in seen:
            continue
        seen.add((a, b))
        degree[a] += 1
        degree[b] += 1
        pairs.append((a, b))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), degree


def _partner_reference(pairs, capacity, src, dst):
    """The sorted membership test the partner table replaced."""
    edge_key = np.minimum(src, dst) * capacity + np.maximum(src, dst)
    return np.isin(edge_key, pairs[:, 0] * capacity + pairs[:, 1])


@pytest.mark.parametrize("seed", range(5))
def test_partner_table_membership_matches_isin(seed):
    rng = np.random.default_rng(seed)
    capacity, max_degree = 60, 4
    pairs, degree = _random_pairs(rng, capacity, max_degree, 150)
    width = int(degree.max())
    table = np.full((width, capacity), -1, dtype=np.int64)
    fill_partner_table(pairs, table)
    # Every slot's table column holds exactly its partners.
    for slot in range(capacity):
        held = sorted(int(v) for v in table[:, slot] if v >= 0)
        expected = sorted(
            int(b if a == slot else a)
            for a, b in pairs.tolist() if slot in (a, b)
        )
        assert held == expected
    # Random edges plus every pair in both orientations.
    src = np.concatenate([rng.integers(0, capacity, 400), pairs[:, 0],
                          pairs[:, 1]])
    dst = np.concatenate([rng.integers(0, capacity, 400), pairs[:, 1],
                          pairs[:, 0]])
    np.testing.assert_array_equal(
        is_partner(table, src, dst),
        _partner_reference(pairs, capacity, src, dst),
    )


def test_partner_table_empty_inputs():
    capacity = 10
    empty = np.zeros(0, dtype=np.int64)
    table = np.full((0, capacity), -1, dtype=np.int64)
    fill_partner_table(np.zeros((0, 2), dtype=np.int64), table)
    src = np.arange(capacity)
    assert not is_partner(table, src, src[::-1]).any()
    pairs = np.array([[1, 2]], dtype=np.int64)
    table = np.full((1, capacity), -1, dtype=np.int64)
    fill_partner_table(pairs, table)
    assert is_partner(table, empty, empty).size == 0
    np.testing.assert_array_equal(
        is_partner(table, np.array([1, 2, 1]), np.array([2, 1, 3])),
        [True, True, False],
    )


def test_partner_table_too_narrow_raises():
    pairs = np.array([[0, 1], [0, 2]], dtype=np.int64)
    table = np.full((1, 4), -1, dtype=np.int64)
    with pytest.raises(SimulationError, match="too narrow"):
        fill_partner_table(pairs, table)


def _remove_row_entries_reference(nbr, nbr_deg, holders, values):
    """The ``logical_or.at`` row scrub the mask gather replaced:
    delete ``values[i]`` from ``holders[i]``'s row."""
    if holders.size == 0:
        return
    rows = np.unique(holders)
    sub = nbr[rows]
    drop = np.zeros(sub.shape, dtype=bool)
    row_pos = np.searchsorted(rows, holders)
    np.logical_or.at(drop, row_pos, sub[row_pos] == values[:, None])
    order = np.argsort(drop, axis=1, kind="stable")
    packed = np.take_along_axis(sub, order, axis=1)
    new_deg = nbr_deg[rows] - drop.sum(axis=1)
    tail = np.arange(nbr.shape[1])[None, :] >= new_deg[:, None]
    packed[tail] = -1
    nbr[rows] = packed
    nbr_deg[rows] = new_deg


def _symmetric_store(rng, capacity, width, seeds):
    """Leecher rows with symmetric relations; ``seeds`` keep no rows
    (counter-only), like the engine's seeds."""
    store = PeerStore(capacity, num_pieces=8, nbr_width=width)
    store.allocate(capacity)
    store.is_seed[seeds] = True
    for _ in range(capacity * width):
        a, b = rng.choice(capacity, size=2, replace=False).tolist()
        row_a = store.nbr[a, : store.nbr_deg[a]]
        if b in row_a.tolist():
            continue
        if store.is_seed[a] and store.is_seed[b]:
            continue
        room_a = store.is_seed[a] or store.nbr_deg[a] < width
        room_b = store.is_seed[b] or store.nbr_deg[b] < width
        if not (room_a and room_b):
            continue
        for holder, value in ((a, b), (b, a)):
            if store.is_seed[holder]:
                store.nbr_deg[holder] += 1
            else:
                store.append_neighbor(holder, value)
    return store


@pytest.mark.parametrize("seed", range(6))
def test_remove_row_entries_matches_logical_or_reference(seed):
    rng = np.random.default_rng(seed)
    capacity, width = 40, 6
    seeds = rng.choice(capacity, size=4, replace=False)
    store = _symmetric_store(rng, capacity, width, seeds)
    gone_slots = rng.choice(capacity, size=int(rng.integers(0, 8)),
                            replace=False)
    gone = np.zeros(capacity + 1, dtype=bool)
    gone[gone_slots] = True
    # The (holder, value) list the callers used to build: a departing
    # leecher's own row names its holders, a departing seed's are found
    # by scanning every row.
    holders, values = [], []
    for v in gone_slots.tolist():
        if store.is_seed[v]:
            for h in range(capacity):
                if v in store.nbr[h, : store.nbr_deg[h]].tolist():
                    holders.append(h)
                    values.append(v)
        else:
            for h in store.nbr[v, : store.nbr_deg[v]].tolist():
                if not store.is_seed[h]:
                    holders.append(h)
                    values.append(v)
    holders = np.array(holders, dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    outside = ~gone[holders]
    nbr_ref = store.nbr.copy()
    deg_ref = store.nbr_deg.copy()
    _remove_row_entries_reference(
        nbr_ref, deg_ref, holders[outside], values[outside]
    )
    store.remove_row_entries(np.unique(holders[outside]), gone)
    np.testing.assert_array_equal(store.nbr, nbr_ref)
    np.testing.assert_array_equal(store.nbr_deg, deg_ref)


def test_remove_row_entries_empty_and_mask_contract():
    rng = np.random.default_rng(1)
    store = _symmetric_store(rng, 12, 4, np.array([0]))
    nbr = store.nbr.copy()
    deg = store.nbr_deg.copy()
    gone = np.zeros(13, dtype=bool)
    gone[3] = True
    store.remove_row_entries(np.zeros(0, dtype=np.int64), gone)
    np.testing.assert_array_equal(store.nbr, nbr)
    np.testing.assert_array_equal(store.nbr_deg, deg)
    # Rows without a gone entry are left as they are.
    store.remove_row_entries(np.arange(12), np.zeros(13, dtype=bool))
    np.testing.assert_array_equal(store.nbr, nbr)
    with pytest.raises(SimulationError, match="capacity"):
        store.remove_row_entries(np.arange(2), np.zeros(12, dtype=bool))
    spare_set = np.zeros(13, dtype=bool)
    spare_set[-1] = True
    with pytest.raises(SimulationError, match="capacity"):
        store.remove_row_entries(np.arange(2), spare_set)


def _grant_swarm():
    config = SimConfig(
        num_pieces=70,
        max_conns=3,
        ns_size=6,
        arrival_process="none",
        initial_leechers=40,
        initial_distribution="uniform",
        initial_fill=0.3,
        num_seeds=1,
        max_time=5.0,
        seed=21,
    )
    swarm = SoaSwarm(config)
    swarm.setup()
    return swarm


def _apply_grants_reference(swarm, r, p, time):
    """The ``np.unique`` grant landing on plain copies of the state."""
    store = swarm.store
    num_pieces = swarm.config.num_pieces
    bits = store.bits.copy()
    counts = store.counts.copy()
    first = store.first_piece_at.copy()
    prelast = store.prelast_at.copy()
    for row, piece in zip(r.tolist(), p.tolist()):
        bits[row, piece >> 6] |= np.uint64(1) << np.uint64(piece & 63)
    affected = np.unique(r)
    before = counts[affected].copy()
    np.add.at(counts, r, 1)
    after = counts[affected]
    first[affected[(before == 0) & (after > 0)]] = time
    prelast[
        affected[(before < num_pieces - 1) & (after >= num_pieces - 1)]
    ] = time
    replication = swarm.piece_counts + np.bincount(p, minlength=num_pieces)
    return bits, counts, first, prelast, replication


@pytest.mark.parametrize("seed", range(4))
def test_apply_grants_rows_match_unique_reference(seed):
    """Grant rows from a mark + flatnonzero equal ``np.unique(r)``:
    every receiver's milestones and counts match the sorted version."""
    swarm = _grant_swarm()
    store = swarm.store
    rng = np.random.default_rng(seed)
    num_pieces = swarm.config.num_pieces
    leech = np.flatnonzero(store.alive & ~store.is_seed)
    store.counts[leech[:3]] = 0          # exercise the first-piece mark
    store.bits[leech[:3]] = 0
    swarm.piece_counts = unpack_rows(
        store.bits[np.flatnonzero(store.alive)], num_pieces
    ).sum(axis=0)
    r_parts, p_parts = [], []
    for row in leech.tolist():
        held = unpack_rows(store.bits[row : row + 1], num_pieces)[0]
        missing = np.flatnonzero(~held)
        take = missing[rng.random(missing.size) < rng.random()]
        r_parts.append(np.full(take.size, row, dtype=np.int64))
        p_parts.append(take.astype(np.int64))
    r = np.concatenate(r_parts)
    p = np.concatenate(p_parts)
    order = rng.permutation(r.size)
    r, p = r[order], p[order]
    expected = _apply_grants_reference(swarm, r, p, 3.0)
    assert swarm._apply_grants(r, p, 3.0) == r.size
    assert (store.first_piece_at == 3.0).any()
    assert (store.prelast_at == 3.0).any()
    for got, want in zip(
        (store.bits, store.counts, store.first_piece_at,
         store.prelast_at, swarm.piece_counts),
        expected,
    ):
        np.testing.assert_array_equal(got, want)


def test_apply_grants_empty_is_a_no_op():
    swarm = _grant_swarm()
    store = swarm.store
    counts = store.counts.copy()
    empty = np.zeros(0, dtype=np.int64)
    assert swarm._apply_grants(empty, empty, 1.0) == 0
    np.testing.assert_array_equal(store.counts, counts)


# ----------------------------------------------------------------------
# Free-list kernels and the scratch arena
# ----------------------------------------------------------------------
def test_peer_store_allocate_release_matches_scalar_reference():
    """The vectorized free-list ops replay a scalar pop/append loop
    exactly, so slot recycling order (and thus checkpoints) is pinned."""
    store = PeerStore(32, num_pieces=10, nbr_width=4)
    reference = list(store.free)
    rng = np.random.default_rng(5)
    live: list = []
    for _ in range(200):
        if live and rng.random() < 0.45:
            pick = rng.permutation(len(live))[: rng.integers(1, 4)]
            slots = np.array([live[i] for i in pick], dtype=np.int64)
            live = [s for i, s in enumerate(live) if i not in set(pick)]
            store.release(slots)
            for slot in np.sort(slots):  # scalar reference: sorted appends
                reference.append(int(slot))
        else:
            count = int(rng.integers(1, 4))
            if count > len(reference):
                continue
            slots = store.allocate(count)
            expected = [reference.pop() for _ in range(count)]
            assert slots.tolist() == expected
            live.extend(slots.tolist())
        assert store.free == reference


def test_scratch_arena_reuses_buffers():
    arena = ScratchArena()
    first = arena.take("x", 8)
    assert arena.created == 1
    again = arena.take("x", 5)
    assert arena.created == 1
    assert np.shares_memory(first, again)
    assert again.size == 5


def test_scratch_arena_grows_and_switches_dtype():
    arena = ScratchArena()
    arena.take("x", 8)
    grown = arena.take("x", 20)
    assert arena.created == 2
    assert grown.size == 20
    # Growth is geometric: a slightly larger ask reuses the slack.
    assert arena.take("x", 16).size == 16
    assert arena.created == 2
    switched = arena.take("x", 4, np.bool_)
    assert switched.dtype == np.bool_
    assert arena.created == 3


def test_scratch_arena_views_are_reset():
    arena = ScratchArena()
    arena.take("z", 6)[:] = 7
    assert not arena.zeros("z", 6).any()
    np.testing.assert_array_equal(
        arena.full("z", 4, -1), np.full(4, -1, dtype=np.int64)
    )


def test_soa_steady_state_rounds_allocate_no_new_scratch():
    """After warm-up, rounds must not create new arena buffers: every
    per-round temporary is served from the reused slabs."""
    config = SimConfig(
        num_pieces=16,
        max_conns=2,
        ns_size=5,
        arrival_process="poisson",
        arrival_rate=0.5,
        initial_leechers=30,
        initial_distribution="uniform",
        initial_fill=0.7,
        num_seeds=2,
        seed_upload_slots=2,
        completed_become_seeds=0.0,
        abort_rate=0.05,
        shake_threshold=0.5,
        piece_selection="rarest",
        max_time=40.0,
        seed=3,
    )
    swarm = SoaSwarm(config)
    swarm.setup()
    while swarm._rounds < 10 and swarm.engine.step() is not None:
        pass
    assert swarm._rounds >= 10
    warm = swarm.scratch.created
    assert warm > 0
    capacity = swarm.store.capacity
    while swarm._rounds < 30 and swarm.engine.step() is not None:
        pass
    assert swarm._rounds >= 30
    assert swarm.store.capacity == capacity  # no slab growth mid-test
    assert swarm.scratch.created == warm
