"""Pinned soa fingerprints: the round kernels may get faster, never different.

The soa engine's steady round is free to change *how* it computes
(sorts, masks, tables), but every output of a seeded run must stay
bit-identical: the RNG stream, the peer-slot recycling order, the
series and every per-peer stat.  Each case below is the benchmark
swarm (B=60, k=4, s=25, half-filled leechers, Poisson arrivals,
rarest-first) scaled to ~2k peers, with one feature switched on, and
its fingerprint is pinned to the value the engine produced before the
sort-free membership kernels replaced ``np.isin``/``np.unique``.

A failure here means a kernel change altered a trajectory.  Re-pinning
is only right when the change is *meant* to alter the RNG stream or the
protocol, and then the statistical equivalence gates must be re-run.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm

PEERS = 2000
ROUNDS = 20


def bench_config(**overrides):
    """The benchmark swarm at ``PEERS`` leechers (see perfbench)."""
    base = dict(
        num_pieces=60,
        max_conns=4,
        ns_size=25,
        arrival_process="poisson",
        arrival_rate=3.0 * PEERS / 100.0,
        initial_leechers=PEERS,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=PEERS // 100,
        seed_upload_slots=2,
        piece_selection="rarest",
        max_time=float(ROUNDS),
        seed=401,
    )
    base.update(overrides)
    return SimConfig(**base)


FAULTS = FaultPlan(
    churn_hazard=0.02,
    connection_break_prob=0.1,
    handshake_failure_prob=0.2,
    shake_failure_prob=0.2,
)

#: name -> (config overrides, fault plan, pinned fingerprint)
LOCKS = {
    "rarest": (
        {}, None,
        "fd847f560f9eeb602d3a2b5809958761d0fdbf510a0f9053a0bb5c3dbddff127",
    ),
    "strict-rarest": (
        {"piece_selection": "strict-rarest"}, None,
        "36e7cc1abc3578dd2bbb10e77091370260136970571f48583b3cd59527648cdc",
    ),
    "random": (
        {"piece_selection": "random"}, None,
        "d095dec986e3ef6e420e4df7723f685268266e8e02dcb4465555831990a9f2e4",
    ),
    "shakes": (
        {"shake_threshold": 0.6}, None,
        "281e849cfd22e3ae7462a2e2be6925e135ad0b956a98cf566bac016a5e0d13de",
    ),
    "completed-become-seeds": (
        {"completed_become_seeds": 3.0, "abort_rate": 0.02}, None,
        "d33f45e5979d6448d1e3a282e92295b31fd4ce6bf9486e58d48fd6250209e78b",
    ),
    "faults": (
        {"shake_threshold": 0.6}, FAULTS,
        "b076c4c5520b86ac48589cd9e25c620fecab0cef00fca5b8bea7ccdedce378b4",
    ),
}


@pytest.mark.parametrize("name", sorted(LOCKS))
def test_soa_fingerprint_is_pinned(name):
    overrides, plan, pinned = LOCKS[name]
    swarm = Swarm(bench_config(**overrides), backend="soa", faults=plan)
    assert swarm.run().fingerprint() == pinned


#: The same pins through the sharded engine, whose workers run the soa
#: round kernels (``ShardEngine`` subclasses ``SoaSwarm``).
SHARDED_LOCKS = {
    "shakes": (
        {"shake_threshold": 0.6},
        "217353a7d951ed096677d5c3d9455ec6d217f74f80228dac63b1fd1507028bdd",
    ),
    "completed-become-seeds": (
        {"completed_become_seeds": 3.0, "abort_rate": 0.02},
        "ad70ce14a6e92156fbc0e5f0b61c6034f199838b9f9839fbcdea4763595912f4",
    ),
}


@pytest.mark.parametrize("name", sorted(SHARDED_LOCKS))
def test_two_shard_fingerprint_is_pinned(name):
    overrides, pinned = SHARDED_LOCKS[name]
    swarm = Swarm(bench_config(**overrides), backend="sharded", shards=2)
    assert swarm.run().fingerprint() == pinned
