"""Equivalence: sharded backend vs soa (exact) and object (statistical).

Two layers, matching the backend's contract:

* ``shards=1`` constructs the SoA engine itself, so its fingerprint
  must be *identical* to ``backend="soa"`` — byte-for-byte, including
  under fault plans and poisson arrivals.
* ``shards >= 2`` partitions the population: per-shard neighbor sets,
  coordinator-owned arrivals and round-boundary migration change the
  trajectory, so individual runs differ while ensemble statistics must
  agree.  These tests reuse the PR-8 statistical gates (seed-averaged
  completions, download times, connection probabilities, efficiency)
  against the object reference engine.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.sim.config import SimConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.sharded import ShardedSwarm
from repro.sim.soa import SoaSwarm
from repro.sim.swarm import Swarm, run_swarm

SEEDS = (0, 1, 2)


def steady_config(**overrides):
    """A dense steady swarm, big enough that a 4-way split still gives
    every shard a healthy neighborhood (>= ns_size peers per shard)."""
    base = dict(
        num_pieces=40,
        max_conns=3,
        ns_size=15,
        arrival_process="poisson",
        arrival_rate=8.0,
        initial_leechers=240,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=4,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        connection_setup_prob=0.8,
        connection_failure_prob=0.1,
        matching="blind",
        piece_selection="rarest",
        max_time=60.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def ensemble(config, backend, **swarm_kwargs):
    """Seed-averaged observables for one backend."""
    completed, duration, p_new, p_re, eta = [], [], [], [], []
    for seed in SEEDS:
        metrics = MetricsCollector(
            config.max_conns, entropy_every=1_000_000, occupancy_warmup=0.25
        )
        result = run_swarm(
            config.with_changes(seed=seed), metrics=metrics,
            backend=backend, **swarm_kwargs,
        )
        assert result.backend == backend
        completed.append(len(metrics.completed))
        duration.append(metrics.mean_download_duration())
        stats = result.connection_stats
        p_new.append(stats.p_new())
        p_re.append(stats.p_reenc())
        eta.append(metrics.efficiency())
    return {
        "completed": float(np.mean(completed)),
        "duration": float(np.mean(duration)),
        "p_new": float(np.mean(p_new)),
        "p_reenc": float(np.mean(p_re)),
        "eta": float(np.mean(eta)),
    }


class TestSingleShardIsExact:
    def test_single_shard_constructs_the_soa_engine(self):
        config = steady_config(seed=3)
        assert isinstance(
            Swarm(config, backend="sharded", shards=1), SoaSwarm
        )
        assert isinstance(Swarm(config, backend="sharded"), ShardedSwarm)
        with pytest.raises(ParameterError, match="backend='soa'"):
            ShardedSwarm(config, shards=1)
        with pytest.raises(ParameterError, match="shards >= 2"):
            Swarm(config, backend="sharded", shards=0)
        with pytest.raises(ParameterError, match="shards=2"):
            SoaSwarm(config, shards=2)

    def test_fingerprint_identical_to_soa(self):
        config = steady_config(
            initial_leechers=80, arrival_rate=4.0, max_time=30.0, seed=7
        )
        soa = run_swarm(config, backend="soa")
        sharded = run_swarm(config, backend="sharded", shards=1)
        assert sharded.backend == "soa"
        assert sharded.fingerprint() == soa.fingerprint()

    def test_fingerprint_identical_under_faults(self):
        config = steady_config(
            initial_leechers=60, arrival_rate=3.0, max_time=25.0, seed=11
        )
        plan = FaultPlan(
            churn_hazard=0.01,
            connection_break_prob=0.02,
            handshake_failure_prob=0.05,
            outages=(OutageWindow(8.0, 14.0, "stale"),),
        )
        soa = run_swarm(config, backend="soa", faults=plan)
        sharded = run_swarm(config, backend="sharded", shards=1, faults=plan)
        assert sharded.fingerprint() == soa.fingerprint()
        assert sharded.fault_stats.to_dict() == soa.fault_stats.to_dict()

    def test_flash_crowd_fingerprint_identical(self):
        config = steady_config(
            initial_leechers=0,
            arrival_process="flash",
            arrival_rate=0.0,
            flash_size=90,
            initial_fill=0.0,
            max_time=40.0,
            seed=5,
        )
        soa = run_swarm(config, backend="soa")
        sharded = run_swarm(config, backend="sharded", shards=1)
        assert sharded.fingerprint() == soa.fingerprint()


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_backend_is_statistically_equivalent(shards):
    """The PR-8 ensemble gates, sharded vs the object reference."""
    config = steady_config()
    obj = ensemble(config, "object")
    sharded = ensemble(config, "sharded", shards=shards)

    assert obj["completed"] > 0 and sharded["completed"] > 0
    rel_completed = (
        abs(sharded["completed"] - obj["completed"]) / obj["completed"]
    )
    assert rel_completed < 0.10, (obj, sharded)
    rel_duration = (
        abs(sharded["duration"] - obj["duration"]) / obj["duration"]
    )
    assert rel_duration < 0.10, (obj, sharded)
    assert abs(sharded["p_new"] - obj["p_new"]) < 0.05, (obj, sharded)
    assert abs(sharded["p_reenc"] - obj["p_reenc"]) < 0.03, (obj, sharded)
    assert abs(sharded["eta"] - obj["eta"]) < 0.05, (obj, sharded)


def test_sharded_runs_are_deterministic_for_a_fixed_seed():
    config = steady_config(
        initial_leechers=100, arrival_rate=4.0, max_time=30.0, seed=13
    )
    first = run_swarm(config, backend="sharded", shards=3)
    second = run_swarm(config, backend="sharded", shards=3)
    assert first.fingerprint() == second.fingerprint()
    # A different shard count is a different (but valid) trajectory.
    other = run_swarm(config, backend="sharded", shards=2)
    assert other.fingerprint() != first.fingerprint()
