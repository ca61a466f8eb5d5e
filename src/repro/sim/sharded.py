"""Sharded swarm: the SoA slab partitioned across worker processes.

:class:`ShardedSwarm` runs the PR-8 structure-of-arrays round kernels
on ``N`` forked worker processes, each owning one shard of the peer
population, while the coordinator process owns everything global: the
arrival process, global piece-replication counts (the rarest-first
view), peer-id allocation, cross-shard migration routing, the metrics
collector, and coordinated checkpoints.

Design contract (mirrors ``docs/RUNTIME.md``):

* **Lockstep rounds over a zero-copy data plane.** Every shard
  advances exactly one protocol round per coordinator cycle.  The hot
  per-round payloads — the global replication-count broadcast (for
  rarest-first), immigrant peer rows, the shard's round report, and
  its emigrant rows — travel through the preallocated shared-memory
  fabric of :mod:`repro.sim.shm` (double-buffered numpy views, stamped
  per round); the pipe carries only the low-rate control plane
  (init / step barrier with arrivals + quotas / snapshot / stop).
  Rows use the same column layout as the checkpoint store block, so a
  migration batch *is* a slice of a snapshot.
* **Splittable seeding.** Shard ``i`` of generation ``g`` seeds its
  engine from ``derive_seed(seed, SHARD_NS, 1 + g, shards, i)``; the
  coordinator's tracker stream is ``derive_seed(seed, SHARD_NS, 0)``.
  Fault injectors derive from the shard seed, so each shard draws an
  independent fault stream (the PR-1 seeding contract).
* **``shards=1`` is the soa engine.** ``Swarm(config,
  backend="sharded", shards=1)`` constructs a plain
  :class:`~repro.sim.soa.SoaSwarm` (see ``Swarm.__new__``), so it is
  identical to ``backend="soa"`` by construction and this class
  requires ``shards >= 2``.  Two or more shards change the trajectory
  (per-shard neighbor sets, coordinator-owned arrivals) and are held
  to the statistical equivalence gates instead.
* **Checkpoint = shard snapshots + coordinator block.** The sharded
  document embeds one soa-flavored document per shard, so elastic
  re-sharding is checkpoint -> repartition (rows rehashed by
  ``peer_id % M``) -> resume, and a worker death rolls every shard
  back to the last coordinated snapshot and replays — fingerprint
  identical to the uninterrupted run (the PR-2 recovery guarantee).
"""

from __future__ import annotations

import multiprocessing
import time as _time
import traceback
from multiprocessing import resource_tracker as _resource_tracker
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError, ParameterError, SimulationError
from repro.faults.plan import FaultPlan, FaultStats
from repro.runtime.profiler import SHARD_COORD_STAGES, RoundProfiler
from repro.runtime.seeding import derive_seed
from repro.runtime.telemetry import Telemetry
from repro.sim.config import SimConfig
from repro.sim.engine import Event
from repro.sim.metrics import MetricsCollector
from repro.sim.shm import ShardFabric, WorkerFabric
from repro.sim.soa import SoaSwarm, unpack_rows, words_for
from repro.sim.swarm import ConnectionStats, Swarm, SwarmResult

__all__ = ["ShardEngine", "ShardedSwarm", "restore_sharded_swarm", "SHARD_NS"]

#: Seed-derivation namespace for the sharded backend (PR-1 contract:
#: every independent stream hangs off the root seed under a distinct
#: path, so no shard shares a stream with the tracker or the faults).
SHARD_NS = 0x5AAD

#: Columns a peer carries across a shard boundary — exactly the
#: per-peer columns of the checkpoint store block.  Neighbor rows and
#: trading pairs are intentionally absent: migration severs relations
#: and the migrant re-announces at its destination, like a churn
#: re-arrival.
MIGRATION_COLUMNS = (
    "peer_id",
    "is_seed",
    "shaken",
    "counts",
    "bits",
    "joined_at",
    "seed_until",
    "first_piece_at",
    "prelast_at",
    "shaken_at",
    "upload_capacity",
    "seeded",
)

_FLOAT_COLUMNS = ("joined_at", "seed_until", "first_piece_at",
                  "prelast_at", "shaken_at")
_WORD_COLUMNS = ("bits", "seeded")
_BOOL_COLUMNS = ("is_seed", "shaken")


class _WorkerDied(Exception):
    """A shard worker process died mid-protocol (crash or SIGKILL)."""

    def __init__(self, shard: int):
        super().__init__(f"shard worker {shard} died")
        self.shard = shard


def _split(total: int, shards: int, index: int) -> int:
    """Size of partition ``index`` when ``total`` splits over ``shards``."""
    return total // shards + (1 if index < total % shards else 0)


# ----------------------------------------------------------------------
# Migration row helpers
# ----------------------------------------------------------------------
def _concat_rows(parts: List[dict]) -> Optional[dict]:
    parts = [p for p in parts if p is not None and p["peer_id"].size]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return {
        name: np.concatenate([p[name] for p in parts])
        for name in MIGRATION_COLUMNS
    }


def _rows_to_json(rows: Optional[dict]) -> Optional[dict]:
    """Checkpoint (JSON-safe) encoding of one migration row batch."""
    if rows is None:
        return None
    from repro.checkpoint.schema import _opt

    doc: dict = {}
    for name in MIGRATION_COLUMNS:
        column = rows[name]
        if name in _WORD_COLUMNS:
            doc[name] = [[int(w) for w in row] for row in column]
        elif name in _BOOL_COLUMNS:
            doc[name] = [bool(v) for v in column]
        elif name in _FLOAT_COLUMNS:
            doc[name] = [_opt(v) for v in column]
        else:
            doc[name] = [int(v) for v in column]
    return doc


def _rows_from_json(doc: Optional[dict], num_words: int) -> Optional[dict]:
    if doc is None or not doc["peer_id"]:
        return None
    from repro.checkpoint.schema import _nan_column

    rows: dict = {}
    for name in MIGRATION_COLUMNS:
        column = doc[name]
        if name in _WORD_COLUMNS:
            rows[name] = np.array(
                [[int(w) for w in row] for row in column], dtype=np.uint64
            ).reshape(len(column), num_words)
        elif name in _BOOL_COLUMNS:
            rows[name] = np.asarray(column, dtype=bool)
        elif name in _FLOAT_COLUMNS:
            rows[name] = _nan_column(column)
        else:
            rows[name] = np.asarray(column, dtype=np.int64)
    return rows


def _rows_from_store_block(st: dict, num_words: int) -> Optional[dict]:
    """Alive-peer rows of a snapshot ``store`` block, migration-shaped."""
    if not st["slots"]:
        return None
    doc = {name: st[name] for name in MIGRATION_COLUMNS}
    return _rows_from_json(doc, num_words)


def _select_rows(rows: dict, mask: np.ndarray) -> Optional[dict]:
    if not mask.any():
        return None
    return {name: rows[name][mask] for name in MIGRATION_COLUMNS}


# ----------------------------------------------------------------------
# The per-shard engine
# ----------------------------------------------------------------------
class ShardEngine(SoaSwarm):
    """One shard's round engine: an SoA swarm driven by a coordinator.

    Differences from a standalone :class:`SoaSwarm`:

    * rarest-first reads the coordinator-broadcast *global* replication
      counts instead of the shard-local ones;
    * the round event chain never dies while the coordinator keeps
      stepping (an empty shard may be repopulated by migration);
    * arrivals are injected by the coordinator with explicit globally
      unique peer ids (the shard never draws arrival times itself);
    * every round emits a report (populations, replication counts,
      trading-scope connection counts, completion/abort deltas) for
      the coordinator's metrics collector.
    """

    def __init__(self, config: SimConfig, **kwargs):
        super().__init__(config, **kwargs)
        self._global_counts: Optional[np.ndarray] = None
        self._round_report: Optional[dict] = None
        self._completed_reported = 0
        self._aborted_reported = 0

    # -- coordinator-facing hooks --------------------------------------
    def _rarity_snapshot(self) -> np.ndarray:
        if self._global_counts is not None:
            return self._global_counts
        return super()._rarity_snapshot()

    def _on_round(self, time: float, event: Event) -> None:
        super()._on_round(time, event)
        # Keep the lockstep alive even when this shard is empty: the
        # global swarm may still be running and migration or arrivals
        # can repopulate us.  (Shards schedule no arrival events, so an
        # empty queue here means the parent declined to reschedule.)
        next_time = time + self.config.piece_time
        if self.engine.pending_events == 0 and next_time <= self.config.max_time:
            self.engine.schedule_at(next_time, Event("round"))

    def _log_round(self, time: float, pot_full: np.ndarray) -> None:
        super()._log_round(time, pot_full)
        store = self.store
        conn_counts = None
        leech_end = np.flatnonzero(store.alive & ~store.is_seed)
        if leech_end.size:
            partner_counts = self._partner_degrees()[leech_end]
            if self.metrics.occupancy_scope == "trading":
                in_scope = (store.counts[leech_end] >= 1) & (
                    pot_full[leech_end] >= 1
                )
                conn_counts = partner_counts[in_scope]
            else:
                conn_counts = partner_counts
        stats = self.connection_stats
        self._round_report = {
            "time": time,
            "n_leech": self._n_leech,
            "n_seeds": self._n_seeds,
            "piece_counts": self.piece_counts.copy(),
            "conn_counts": conn_counts,
            "stats": (stats.survived, stats.dropped,
                      stats.attempts, stats.formed),
            "seed_uploads": self.seed_upload_count,
            "completed": list(
                self.metrics.completed[self._completed_reported:]
            ),
            "aborted": list(self.metrics.aborted[self._aborted_reported:]),
        }
        self._completed_reported = len(self.metrics.completed)
        self._aborted_reported = len(self.metrics.aborted)

    # -- cross-shard peer exchange -------------------------------------
    def spawn_arrivals(self, times: np.ndarray, ids: np.ndarray) -> None:
        """Admit coordinator-assigned arrivals (empty leechers)."""
        count = times.size
        if count == 0:
            return
        store = self.store
        slots = store.allocate(count)
        self._alive_dirty = True
        store.peer_id[slots] = ids
        self._id_to_slot.update(
            zip(np.asarray(ids).tolist(), slots.tolist())
        )
        store.joined_at[slots] = times
        self._n_leech += count
        config = self.config
        if config.bandwidth_classes is not None:
            fractions = [f for f, _ in config.bandwidth_classes]
            caps = np.array(
                [int(c) for _, c in config.bandwidth_classes], dtype=np.int64
            )
            chosen = self.rng.choice(len(fractions), size=count, p=fractions)
            store.upload_capacity[slots] = caps[chosen]
        self._pending_announce.extend(slots.tolist())

    def absorb_rows(self, rows: dict) -> None:
        """Admit immigrant peers; they re-announce next round."""
        ids = np.asarray(rows["peer_id"], dtype=np.int64)
        count = ids.size
        if count == 0:
            return
        store = self.store
        slots = store.allocate(count)
        self._alive_dirty = True
        store.peer_id[slots] = ids
        self._id_to_slot.update(zip(ids.tolist(), slots.tolist()))
        store.is_seed[slots] = rows["is_seed"]
        store.shaken[slots] = rows["shaken"]
        store.counts[slots] = rows["counts"]
        store.bits[slots] = rows["bits"]
        store.joined_at[slots] = rows["joined_at"]
        store.seed_until[slots] = rows["seed_until"]
        store.first_piece_at[slots] = rows["first_piece_at"]
        store.prelast_at[slots] = rows["prelast_at"]
        store.shaken_at[slots] = rows["shaken_at"]
        store.upload_capacity[slots] = rows["upload_capacity"]
        store.seeded[slots] = rows["seeded"]
        self.piece_counts += unpack_rows(
            store.bits[slots], self.config.num_pieces
        ).sum(axis=0)
        seeds = int(np.asarray(rows["is_seed"]).sum())
        self._n_seeds += seeds
        self._n_leech += count - seeds
        self._pending_announce.extend(slots.tolist())

    def extract_emigrants(self, count: int) -> Optional[dict]:
        """Remove up to ``count`` random alive peers, returning their rows."""
        alive = self._alive_slots()
        count = min(int(count), int(alive.size))
        if count <= 0:
            return None
        pick = alive[np.sort(self.rng.permutation(alive.size)[:count])]
        store = self.store
        rows = {
            name: getattr(store, name)[pick].copy()
            for name in MIGRATION_COLUMNS
        }
        self._remove_peers(pick)
        return rows

    # -- the lockstep entry point --------------------------------------
    def step_coordinated(
        self,
        global_counts: Optional[np.ndarray],
        immigrants: Optional[dict],
        arrivals: Optional[Tuple[np.ndarray, np.ndarray]],
        emigrate: int,
    ) -> dict:
        """Run exactly one round under the coordinator's instructions."""
        self._global_counts = global_counts
        if immigrants is not None:
            self.absorb_rows(immigrants)
        if arrivals is not None:
            self.spawn_arrivals(arrivals[0], arrivals[1])
        if self.engine.step() is None:
            raise SimulationError("shard round queue drained unexpectedly")
        report = self._round_report
        self._round_report = None
        report["emigrants"] = (
            self.extract_emigrants(emigrate) if emigrate > 0 else None
        )
        return report

    def state_summary(self) -> dict:
        """Report-shaped summary of current state (no round advanced)."""
        stats = self.connection_stats
        return {
            "time": None,
            "n_leech": self._n_leech,
            "n_seeds": self._n_seeds,
            "piece_counts": self.piece_counts.copy(),
            "conn_counts": None,
            "stats": (stats.survived, stats.dropped,
                      stats.attempts, stats.formed),
            "seed_uploads": self.seed_upload_count,
            "completed": [],
            "aborted": [],
            "emigrants": None,
        }


def _new_shard_engine(payload: dict) -> ShardEngine:
    """A fresh shard engine for an ``init``/``adopt`` payload.

    Its local collector is an internal ledger with entropy disabled
    (the coordinator computes global entropy from summed counts).
    """
    config = payload["config"]
    opts = payload["metrics_opts"]
    metrics = MetricsCollector(
        config.max_conns,
        entropy_every=1_000_000_000,
        entropy_includes_seeds=bool(opts["entropy_includes_seeds"]),
        occupancy_warmup=float(opts["occupancy_warmup"]),
        occupancy_scope=str(opts["occupancy_scope"]),
    )
    return ShardEngine(
        config, backend="soa", metrics=metrics,
        faults=payload["faults"], profile=payload["profile"],
    )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _shard_worker(conn) -> None:
    """Shard worker main loop: one command in, one reply out.

    Control messages (and the variable-size completion/abort records)
    ride the pipe; the per-round broadcast, migration rows, and the
    integer round report go through the attached :class:`WorkerFabric`.
    The worker only ever closes its attached segments — the
    coordinator owns and unlinks them.
    """
    engine: Optional[ShardEngine] = None
    fabric: Optional[WorkerFabric] = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # coordinator went away; die quietly
            command, payload = message
            if command == "stop":
                return
            try:
                if command == "init":
                    engine = _new_shard_engine(payload)
                    engine._next_id = payload["id_start"]
                    engine.setup()
                    fabric = WorkerFabric(payload["fabric"])
                    conn.send(("ok", engine.state_summary()))
                elif command == "restore":
                    from repro.checkpoint.schema import _restore_soa_swarm

                    engine = _restore_soa_swarm(
                        payload["document"],
                        swarm_cls=ShardEngine,
                        profile=payload["profile"],
                    )
                    engine._completed_reported = len(engine.metrics.completed)
                    engine._aborted_reported = len(engine.metrics.aborted)
                    fabric = WorkerFabric(payload["fabric"])
                    conn.send(("ok", engine.state_summary()))
                elif command == "adopt":
                    engine = _new_shard_engine(payload)
                    engine._setup_done = True
                    engine._rounds = payload["rounds"]
                    engine.metrics.set_expected_rounds(
                        int(payload["config"].max_time
                            / payload["config"].piece_time)
                    )
                    if payload["rows"] is not None:
                        engine.absorb_rows(payload["rows"])
                    engine.engine.schedule_at(
                        payload["next_round_time"], Event("round")
                    )
                    fabric = WorkerFabric(payload["fabric"])
                    conn.send(("ok", engine.state_summary()))
                elif command == "step":
                    fabric.apply_updates(payload.get("fabric_updates"))
                    round_index = payload["round"]
                    busy_start = _time.perf_counter()
                    report = engine.step_coordinated(
                        fabric.read_broadcast(round_index),
                        fabric.read_inbox(round_index),
                        payload["arrivals"],
                        payload["emigrate"],
                    )
                    busy = _time.perf_counter() - busy_start
                    fabric.write_outbox(
                        report.pop("emigrants"), round_index
                    )
                    fabric.write_report(report, round_index)
                    conn.send(("report", {
                        "time": report["time"],
                        "completed": report["completed"],
                        "aborted": report["aborted"],
                        "busy": busy,
                    }))
                elif command == "snapshot":
                    from repro.checkpoint.schema import snapshot_soa_swarm

                    conn.send(("doc", snapshot_soa_swarm(engine)))
                elif command == "final":
                    conn.send(("final", {
                        "fault_stats": (
                            engine.fault_injector.stats
                            if engine.fault_injector is not None
                            else None
                        ),
                        "profile": (
                            engine.profiler.as_dict()
                            if engine.profiler is not None
                            else None
                        ),
                        "events": engine.engine.processed_events,
                    }))
                else:  # pragma: no cover - protocol misuse
                    conn.send(("error", f"unknown command {command!r}"))
            except Exception:  # noqa: BLE001 - report, then die
                conn.send(("error", traceback.format_exc()))
                return
    finally:
        if engine is not None:
            # Drop the broadcast view so the fabric's mappings close
            # cleanly (a live numpy view would pin the mmap).
            engine._global_counts = None
        if fabric is not None:
            fabric.close()
        conn.close()


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ShardedSwarm(Swarm):
    """Coordinator for a swarm partitioned across shard processes.

    Args:
        config: the :class:`SimConfig` (same knobs as every backend).
        backend: must be ``"sharded"``.
        shards: worker count (``>= 2``), one forked process per
            shard.  ``Swarm(config, backend="sharded", shards=1)``
            constructs a :class:`SoaSwarm` instead.
        shard_mix: per-round probability that an alive peer migrates to
            a uniformly random other shard (coordinator-drawn, batched
            at round boundaries).  ``0`` disables migration.
        max_worker_restarts: how many worker deaths to survive by
            rolling back to the last coordinated snapshot (or round 0
            when none exists) before giving up.
        metrics / faults / profile / checkpoint_every / checkpoint_path:
            as for :class:`~repro.sim.swarm.Swarm`.
    """

    def __init__(
        self,
        config: SimConfig,
        *,
        backend: str = "sharded",
        shards: int = 2,
        shard_mix: float = 0.02,
        max_worker_restarts: int = 3,
        instrument_first: int = 0,
        instrumented_avoid_seeds: bool = False,
        instrumented_start_empty: bool = True,
        rarity_view: str = "global",
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultPlan] = None,
        profile: bool = False,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ):
        if backend != "sharded":
            raise ParameterError(
                f"ShardedSwarm is the 'sharded' backend, got "
                f"backend={backend!r}"
            )
        if shards < 2:
            raise ParameterError(
                f"ShardedSwarm needs shards >= 2, got {shards}; a single "
                f"shard is the soa engine: use Swarm(config, "
                f"backend='soa') (or backend='sharded', shards=1)"
            )
        if not 0.0 <= shard_mix <= 1.0:
            raise ParameterError(
                f"shard_mix must be in [0, 1], got {shard_mix}"
            )
        SoaSwarm._check_supported(
            config, instrument_first, instrumented_avoid_seeds, rarity_view
        )
        if checkpoint_every < 0:
            raise ParameterError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ParameterError(
                "checkpoint_every > 0 requires a checkpoint_path"
            )
        self.backend = "sharded"
        self.config = config
        self.shards = int(shards)
        self.shard_mix = float(shard_mix)
        self.max_worker_restarts = int(max_worker_restarts)
        self.metrics = metrics or MetricsCollector(config.max_conns)
        self.fault_plan = faults
        self.profile = bool(profile)
        self.instrumented_start_empty = instrumented_start_empty
        self.rarity_view = rarity_view
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.checkpoints_written = 0
        self.resumed_from_round: Optional[int] = None
        self.worker_restarts = 0
        self.telemetry: Optional[Telemetry] = None
        self.shard_profiles: Optional[Dict[str, Dict[str, float]]] = None

        self._procs: list = []
        self._conns: list = []
        self._started = False
        self._finished = False
        self._restore_docs: Optional[List[dict]] = None
        self._adopt_rows: Optional[List[Optional[dict]]] = None
        self._last_document: Optional[dict] = None
        self._fabric: Optional[ShardFabric] = None
        self._bytes_broadcast = 0
        self._bytes_migrated = 0
        self._comms_profiler: Optional[RoundProfiler] = None
        self._init_coordinator_state()

    # ------------------------------------------------------------------
    # Coordinator state
    # ------------------------------------------------------------------
    def _init_coordinator_state(self) -> None:
        config = self.config
        self._generation = 0
        self._tracker_rng = np.random.default_rng(
            derive_seed(config.seed, SHARD_NS, 0)
        )
        self._rounds = 0
        self._next_round_time = config.piece_time
        self._population_log: List[Tuple[float, int, int]] = []
        self._global_next_id = 0
        self._next_arrival: Optional[float] = None
        self._pending_rows: List[Optional[dict]] = [None] * self.shards
        self._shard_state: List[Optional[dict]] = [None] * self.shards
        self._carried = {
            "survived": 0, "dropped": 0, "attempts": 0, "formed": 0,
            "seed_uploads": 0, "events": 0,
        }
        self._carried_faults: Optional[FaultStats] = (
            FaultStats() if self.fault_plan is not None else None
        )

    def _shard_seed(self, index: int) -> int:
        return derive_seed(
            self.config.seed, SHARD_NS, 1 + self._generation,
            self.shards, index,
        )

    def _shard_config(self, index: int) -> SimConfig:
        """Shard ``index``'s partition of the global configuration."""
        config = self.config
        flash = (
            _split(config.flash_size, self.shards, index)
            if config.arrival_process == "flash"
            else 0
        )
        return config.with_changes(
            seed=self._shard_seed(index),
            num_seeds=_split(config.num_seeds, self.shards, index),
            initial_leechers=_split(
                config.initial_leechers, self.shards, index
            ),
            arrival_process=(
                "flash" if config.arrival_process == "flash" else "none"
            ),
            # Rate is unused under "none" but sizes the shard's slab
            # for the arrivals the coordinator will route its way.
            arrival_rate=config.arrival_rate / self.shards,
            flash_size=flash,
        )

    def _adopt_config(self, index: int) -> SimConfig:
        """An empty shard config for repartitioned (adopted) peers."""
        return self.config.with_changes(
            seed=self._shard_seed(index),
            num_seeds=0,
            initial_leechers=0,
            arrival_process="none",
            arrival_rate=self.config.arrival_rate / self.shards,
            flash_size=0,
        )

    def _metrics_opts(self) -> dict:
        return {
            "entropy_includes_seeds": self.metrics.entropy_includes_seeds,
            "occupancy_warmup": self.metrics.occupancy_warmup,
            "occupancy_scope": self.metrics.occupancy_scope,
        }

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_processes(self) -> None:
        context = multiprocessing.get_context("fork")
        # Start the resource tracker *before* forking so every worker
        # shares the coordinator's tracker: attach registrations and the
        # coordinator's unlink then net out in one ledger instead of a
        # per-child tracker unlinking live segments at worker exit.
        _resource_tracker.ensure_running()
        self._procs = []
        self._conns = []
        for _ in range(self.shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)

    def _send(self, index: int, message) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise _WorkerDied(index) from exc

    def _recv(self, index: int):
        try:
            kind, payload = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDied(index) from exc
        if kind == "error":
            raise SimulationError(
                f"shard worker {index} failed:\n{payload}"
            )
        return payload

    def worker_pids(self) -> List[int]:
        """PIDs of the live shard workers (for fault-injection tests)."""
        return [process.pid for process in self._procs]

    def close(self) -> None:
        """Tear down workers and unlink the fabric (idempotent)."""
        for index, conn in enumerate(self._conns):
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=2.0)
        self._procs = []
        self._conns = []
        if self._fabric is not None:
            self._fold_fabric_bytes()
            self._fabric.close()
            self._fabric = None

    def _fold_fabric_bytes(self) -> None:
        """Accumulate the fabric's byte counters (survives recovery)."""
        fabric = self._fabric
        if fabric is None:
            return
        self._bytes_broadcast += fabric.bytes_broadcast
        self._bytes_migrated += fabric.bytes_migrated
        fabric.bytes_broadcast = 0
        fabric.bytes_migrated = 0

    def fabric_segment_names(self) -> List[str]:
        """Names of the live shared-memory segments (lifecycle tests)."""
        if self._fabric is None:
            return []
        return self._fabric.segment_names()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            if self._procs or getattr(self, "_fabric", None) is not None:
                self.close()
        except Exception:  # noqa: BLE001
            pass

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def _create_fabric(self) -> None:
        """Allocate the shared-memory fabric, sized for this start.

        Sizing is only a head start — the per-round
        :meth:`ShardFabric.ensure` call is the hard guarantee, growing
        any block whose coming round would not fit.
        """
        config = self.config
        expected = (
            config.num_seeds + config.initial_leechers + config.flash_size
        ) // self.shards + 1
        conn_rows = max(64, expected)
        for state in self._shard_state:
            if state is not None:
                conn_rows = max(
                    conn_rows, state["n_leech"] + state["n_seeds"]
                )
        if self._adopt_rows is not None:
            for rows in self._adopt_rows:
                if rows is not None:
                    conn_rows = max(conn_rows, int(rows["peer_id"].size))
        self._fabric = ShardFabric(
            self.shards,
            config.num_pieces,
            words_for(config.num_pieces),
            conn_rows=conn_rows,
            migration_rows=64,
        )

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        self._spawn_processes()
        # The fabric is created *after* the fork so children never
        # inherit coordinator-owned SharedMemory objects; workers
        # attach by name from the spec in their init payload.
        self._create_fabric()
        if self.profile and self._comms_profiler is None:
            self._comms_profiler = RoundProfiler(SHARD_COORD_STAGES)
        if self._restore_docs is not None:
            for index, document in enumerate(self._restore_docs):
                self._send(index, ("restore", {
                    "document": document, "profile": self.profile,
                    "fabric": self._fabric.spec(index),
                }))
        elif self._adopt_rows is not None:
            for index in range(self.shards):
                self._send(index, ("adopt", {
                    "config": self._adopt_config(index),
                    "metrics_opts": self._metrics_opts(),
                    "faults": self.fault_plan,
                    "profile": self.profile,
                    "rows": self._adopt_rows[index],
                    "rounds": self._rounds,
                    "next_round_time": self._next_round_time,
                    "fabric": self._fabric.spec(index),
                }))
        else:
            id_start = 0
            for index in range(self.shards):
                shard_config = self._shard_config(index)
                self._send(index, ("init", {
                    "config": shard_config,
                    "metrics_opts": self._metrics_opts(),
                    "faults": self.fault_plan,
                    "profile": self.profile,
                    "id_start": id_start,
                    "fabric": self._fabric.spec(index),
                }))
                id_start += (
                    shard_config.num_seeds
                    + shard_config.initial_leechers
                    + shard_config.flash_size
                )
            self._global_next_id = id_start
            if (
                self.config.arrival_process == "poisson"
                and self.config.arrival_rate > 0
            ):
                self._next_arrival = float(
                    self._tracker_rng.exponential(
                        1.0 / self.config.arrival_rate
                    )
                )
                if self._next_arrival > self.config.max_time:
                    self._next_arrival = None
            self.metrics.set_expected_rounds(
                int(self.config.max_time / self.config.piece_time)
            )
        for index in range(self.shards):
            summary = self._recv(index)
            if self._shard_state[index] is None:
                self._shard_state[index] = summary
        self._adopt_rows = None

    # ------------------------------------------------------------------
    # The lockstep round cycle
    # ------------------------------------------------------------------
    def _global_population(self) -> int:
        total = 0
        for state in self._shard_state:
            total += state["n_leech"] + state["n_seeds"]
        for rows in self._pending_rows:
            if rows is not None:
                total += int(rows["peer_id"].size)
        return total

    def _global_counts(self) -> np.ndarray:
        counts = np.zeros(self.config.num_pieces, dtype=np.int64)
        for state in self._shard_state:
            counts += state["piece_counts"]
        return counts

    def _advance_cycle(self) -> bool:
        """One coordinated round across every shard.

        RNG discipline: every coordinator draw happens in the
        message-build phase, in fixed order (arrival times, arrival
        shard assignment, per-shard emigrant quotas ascending, then
        emigrant destinations in source-shard order next cycle).
        Coordinator state other than the RNG mutates only after all
        replies arrived, so a worker death never leaves a half-applied
        round: recovery restores the RNG with everything else.
        """
        config = self.config
        time = self._next_round_time
        if time > config.max_time:
            return False
        has_future_arrival = self._next_arrival is not None
        if self._global_population() == 0 and not has_future_arrival:
            return False

        # -- arrivals since the previous round, routed to shards
        arrival_times: List[List[float]] = [[] for _ in range(self.shards)]
        arrival_ids: List[List[int]] = [[] for _ in range(self.shards)]
        while self._next_arrival is not None and self._next_arrival <= time:
            shard = int(self._tracker_rng.integers(0, self.shards))
            arrival_times[shard].append(self._next_arrival)
            arrival_ids[shard].append(self._global_next_id)
            self._global_next_id += 1
            gap = float(
                self._tracker_rng.exponential(1.0 / config.arrival_rate)
            )
            self._next_arrival += gap
            if self._next_arrival > config.max_time:
                self._next_arrival = None

        # -- emigrant quotas (none on the final round: in-flight rows
        #    would have nowhere to land)
        last_round = time + config.piece_time > config.max_time
        quotas = [0] * self.shards
        if self.shard_mix > 0.0 and not last_round:
            for index in range(self.shards):
                state = self._shard_state[index]
                population = state["n_leech"] + state["n_seeds"]
                if population > 0:
                    quotas[index] = int(
                        self._tracker_rng.binomial(population, self.shard_mix)
                    )

        fabric = self._fabric
        prof = self._comms_profiler
        round_index = self._rounds + 1
        if prof is not None:
            prof.begin_round()
        fabric.write_broadcast(self._global_counts(), round_index)
        for index in range(self.shards):
            arrivals = None
            if arrival_times[index]:
                arrivals = (
                    np.asarray(arrival_times[index], dtype=np.float64),
                    np.asarray(arrival_ids[index], dtype=np.int64),
                )
            pending = self._pending_rows[index]
            incoming = (
                0 if pending is None else int(pending["peer_id"].size)
            )
            state = self._shard_state[index]
            # The coordinator knows every upcoming row count before the
            # step message goes out, so growth is always pre-arranged.
            updates = fabric.ensure(
                index,
                conn_rows=(state["n_leech"] + state["n_seeds"]
                           + incoming + len(arrival_times[index])),
                inbox_rows=incoming,
                outbox_rows=quotas[index],
            )
            fabric.write_inbox(index, pending, round_index)
            self._send(index, ("step", {
                "round": round_index,
                "arrivals": arrivals,
                "emigrate": quotas[index],
                "fabric_updates": updates,
            }))
        if prof is not None:
            prof.lap("comms")
        wait_start = _time.perf_counter()
        replies = [self._recv(index) for index in range(self.shards)]
        if prof is not None:
            # The barrier wait minus the slowest worker's compute is
            # fabric overhead; the compute itself is the shards' work.
            waited = _time.perf_counter() - wait_start
            busy = max(reply["busy"] for reply in replies)
            prof.charge("comms", max(waited - busy, 0.0))
            prof.mark()

        # -- all replies in hand: commit the round
        self._pending_rows = [None] * self.shards
        outbound: List[List[dict]] = [[] for _ in range(self.shards)]
        reports: List[dict] = []
        for index, reply in enumerate(replies):
            report = fabric.read_report(index, round_index)
            report["time"] = reply["time"]
            report["completed"] = reply["completed"]
            report["aborted"] = reply["aborted"]
            reports.append(report)
            self._shard_state[index] = report
            emigrants = fabric.read_outbox(index, round_index)
            if emigrants is not None:
                destinations = self._tracker_rng.integers(
                    0, self.shards - 1, size=emigrants["peer_id"].size
                )
                destinations[destinations >= index] += 1
                for target in range(self.shards):
                    part = _select_rows(emigrants, destinations == target)
                    if part is not None:
                        outbound[target].append(part)
        for target in range(self.shards):
            self._pending_rows[target] = _concat_rows(outbound[target])
        if prof is not None:
            prof.lap("comms")

        n_leech = sum(report["n_leech"] for report in reports)
        n_seeds = sum(report["n_seeds"] for report in reports)
        for report in reports:
            for record in report["completed"]:
                self.metrics.completed.append(record)
            for abort_time, pieces in report["aborted"]:
                self.metrics.record_abort(abort_time, pieces)
        metrics = self.metrics
        degrees = None
        if (metrics.rounds_observed + 1) % metrics.entropy_every == 0:
            degrees = self._global_counts()
            if not metrics.entropy_includes_seeds:
                degrees = degrees - n_seeds
        conn_parts = [
            report["conn_counts"] for report in reports
            if report["conn_counts"] is not None
        ]
        conn_counts = np.concatenate(conn_parts) if conn_parts else None
        self._population_log.append((time, n_leech, n_seeds))
        metrics.record_round(
            time, n_leech, n_seeds, degrees=degrees, conn_counts=conn_counts
        )
        # Connection counts are views into the report blocks; drop them
        # now so block growth / close never has a dangling export.
        for report in reports:
            report["conn_counts"] = None
        if prof is not None:
            prof.lap("bookkeeping")

        self._rounds += 1
        self._next_round_time = time + config.piece_time
        if (
            self.checkpoint_every > 0
            and self._rounds % self.checkpoint_every == 0
        ):
            self.write_checkpoint()
        return True

    def step_round(self) -> bool:
        """Advance one coordinated round; ``False`` when the run ended."""
        self._ensure_started()
        while True:
            try:
                return self._advance_cycle()
            except _WorkerDied:
                self._recover()

    # ------------------------------------------------------------------
    # Crash recovery (the PR-2 machinery, shard-shaped)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Roll every shard back to the last coordinated snapshot.

        All workers are torn down — shards advance in lockstep, so a
        single dead worker leaves the others one message ahead of any
        recoverable cut.  Replay from the snapshot (or from round 0
        when checkpointing is off) is deterministic, so the finished
        run is fingerprint-identical to an uninterrupted one.
        """
        self.worker_restarts += 1
        if self.worker_restarts > self.max_worker_restarts:
            raise SimulationError(
                f"a shard worker died and the restart budget "
                f"({self.max_worker_restarts}) is exhausted"
            )
        self.close()
        if self._last_document is not None:
            self._load_coordinator_block(self._last_document)
            self._restore_docs = list(self._last_document["shard_docs"])
            self._adopt_rows = None
        else:
            checkpoints = self.checkpoints_written
            self._init_coordinator_state()
            self.checkpoints_written = checkpoints
            self._restore_docs = None
            self._adopt_rows = None
            _reset_metrics_in_place(self.metrics)
        self._started = False
        self._ensure_started()

    def _load_coordinator_block(self, document: dict) -> None:
        """Reset coordinator state from a sharded snapshot document."""
        from repro.checkpoint.schema import _restore_metrics

        coord = document["coordinator"]
        self._generation = int(coord["generation"])
        self._tracker_rng = np.random.default_rng(0)
        self._tracker_rng.bit_generator.state = coord["rng"]
        self._rounds = int(coord["rounds"])
        self._next_round_time = float(coord["next_round_time"])
        self._population_log = [
            (float(t), int(le), int(se))
            for t, le, se in coord["population_log"]
        ]
        self._global_next_id = int(coord["global_next_id"])
        self._next_arrival = (
            None if coord["next_arrival"] is None
            else float(coord["next_arrival"])
        )
        words = words_for(self.config.num_pieces)
        self._pending_rows = [
            _rows_from_json(rows, words) for rows in coord["pending_rows"]
        ]
        self._shard_state = [
            {
                "time": None,
                "n_leech": int(state["n_leech"]),
                "n_seeds": int(state["n_seeds"]),
                "piece_counts": np.asarray(
                    state["piece_counts"], dtype=np.int64
                ),
                "conn_counts": None,
                "stats": tuple(int(v) for v in state["stats"]),
                "seed_uploads": int(state["seed_uploads"]),
                "completed": [],
                "aborted": [],
            }
            for state in coord["shard_state"]
        ]
        self._carried = {
            key: int(value) for key, value in coord["carried"].items()
        }
        self._carried_faults = (
            None if coord["carried_faults"] is None
            else _fault_stats_from_dict(coord["carried_faults"])
        )
        restored = _restore_metrics(coord["metrics"])
        _copy_metrics_in_place(self.metrics, restored)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Coordinated snapshot: coordinator block + one doc per shard."""
        from repro.checkpoint.schema import (
            SCHEMA_VERSION,
            _sanitize_rng_state,
            _snapshot_metrics,
            _triples,
        )

        self._ensure_started()
        if not self._conns:
            raise SimulationError(
                "cannot snapshot a sharded swarm whose shard workers are "
                "closed (run() finished or close() was called); "
                "checkpoint during the run with checkpoint_every=N, or "
                "call write_checkpoint() between step_round() calls"
            )
        for index in range(self.shards):
            self._send(index, ("snapshot", None))
        shard_docs = [self._recv(index) for index in range(self.shards)]
        return {
            "schema_version": SCHEMA_VERSION,
            "backend": "sharded",
            "shards": self.shards,
            "config": self.config.to_dict(),
            "faults_plan": (
                None if self.fault_plan is None
                else self.fault_plan.to_dict()
            ),
            "coordinator": {
                "generation": self._generation,
                "rng": _sanitize_rng_state(
                    self._tracker_rng.bit_generator.state
                ),
                "rounds": self._rounds,
                "next_round_time": self._next_round_time,
                "population_log": _triples(self._population_log),
                "global_next_id": self._global_next_id,
                "next_arrival": self._next_arrival,
                "pending_rows": [
                    _rows_to_json(rows) for rows in self._pending_rows
                ],
                "shard_state": [
                    {
                        "n_leech": state["n_leech"],
                        "n_seeds": state["n_seeds"],
                        "piece_counts": [
                            int(c) for c in state["piece_counts"]
                        ],
                        "stats": [int(v) for v in state["stats"]],
                        "seed_uploads": int(state["seed_uploads"]),
                    }
                    for state in self._shard_state
                ],
                "carried": dict(self._carried),
                "carried_faults": (
                    None if self._carried_faults is None
                    else self._carried_faults.to_dict()
                ),
                "metrics": _snapshot_metrics(self.metrics),
            },
            "shard_docs": shard_docs,
        }

    def write_checkpoint(self, path: Optional[str] = None) -> None:
        """Write a coordinated snapshot (atomic container overwrite)."""
        from repro.checkpoint.format import write_checkpoint

        target = path or self.checkpoint_path
        if target is None:
            raise ParameterError(
                "write_checkpoint() needs a path argument or a "
                "checkpoint_path configured at construction"
            )
        document = self.snapshot()
        write_checkpoint(document, target)
        self.checkpoints_written += 1
        self._last_document = document

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> SwarmResult:
        """Run to the horizon; returns the aggregated result bundle."""
        if self._finished:
            raise SimulationError("run() called twice")
        start = _time.perf_counter()
        self._ensure_started()
        try:
            while self.step_round():
                pass
            result = self._finalize(start)
        finally:
            self.close()
        self._finished = True
        return result

    def _finalize(self, start: float) -> SwarmResult:
        for index in range(self.shards):
            self._send(index, ("final", None))
        finals = [self._recv(index) for index in range(self.shards)]

        stats = ConnectionStats()
        stats.survived = self._carried["survived"]
        stats.dropped = self._carried["dropped"]
        stats.attempts = self._carried["attempts"]
        stats.formed = self._carried["formed"]
        seed_uploads = self._carried["seed_uploads"]
        events = self._carried["events"]
        n_leech = 0
        n_seeds = 0
        for state in self._shard_state:
            survived, dropped, attempts, formed = state["stats"]
            stats.survived += survived
            stats.dropped += dropped
            stats.attempts += attempts
            stats.formed += formed
            seed_uploads += state["seed_uploads"]
            n_leech += state["n_leech"]
            n_seeds += state["n_seeds"]
        fault_stats = None
        if self.fault_plan is not None:
            fault_stats = FaultStats()
            if self._carried_faults is not None:
                fault_stats.merge(self._carried_faults)
            for final in finals:
                if final["fault_stats"] is not None:
                    fault_stats.merge(final["fault_stats"])
        profiles = {}
        aggregate: Dict[str, float] = {}
        for index, final in enumerate(finals):
            events += final["events"]
            if final["profile"] is not None:
                profiles[f"shard{index}"] = dict(final["profile"])
                for stage, seconds in final["profile"].items():
                    aggregate[stage] = aggregate.get(stage, 0.0) + seconds
        if self._comms_profiler is not None:
            coord_profile = self._comms_profiler.as_dict()
            profiles["coordinator"] = dict(coord_profile)
            for stage, seconds in coord_profile.items():
                aggregate[stage] = aggregate.get(stage, 0.0) + seconds
        self._fold_fabric_bytes()
        comms = {
            "bytes_broadcast": self._bytes_broadcast,
            "bytes_migrated": self._bytes_migrated,
            "bytes_per_round": (
                (self._bytes_broadcast + self._bytes_migrated)
                / max(self._rounds, 1)
            ),
        }
        wall_time = _time.perf_counter() - start
        self.shard_profiles = profiles or None
        self.telemetry = Telemetry(
            wall_time=wall_time,
            workers=self.shards,
            events=events,
            resumes=self.worker_restarts,
            backend="sharded",
            shards=self.shards,
            round_profile=dict(aggregate),
            bytes_broadcast=self._bytes_broadcast,
            bytes_migrated=self._bytes_migrated,
        )
        return SwarmResult(
            config=self.config,
            metrics=self.metrics,
            instrumented=[],
            total_rounds=self._rounds,
            final_leechers=n_leech,
            final_seeds=n_seeds,
            tracker_population_log=list(self._population_log),
            connection_stats=stats,
            seed_upload_count=seed_uploads,
            events_processed=events,
            wall_time=wall_time,
            fault_stats=fault_stats,
            round_profile=aggregate or None,
            resumed_from_round=self.resumed_from_round,
            checkpoints_written=self.checkpoints_written,
            backend="sharded",
            shard_profiles=self.shard_profiles,
            comms=comms,
        )


# ----------------------------------------------------------------------
# Restore / repartition
# ----------------------------------------------------------------------
def _fault_stats_from_dict(doc: dict) -> FaultStats:
    return FaultStats(**{
        key: int(value) for key, value in doc.items() if key != "total"
    })


def _copy_metrics_in_place(
    target: MetricsCollector, source: MetricsCollector
) -> None:
    """Make ``target`` (a caller-held reference) mirror ``source``."""
    target.population_series = source.population_series
    target.entropy_series = source.entropy_series
    target.aborted = source.aborted
    target.completed = source.completed
    target.rounds_observed = source.rounds_observed
    target._occupancy_sums = source._occupancy_sums
    target._occupancy_rounds = source._occupancy_rounds
    target._expected_total_rounds = source._expected_total_rounds


def _reset_metrics_in_place(metrics: MetricsCollector) -> None:
    metrics.population_series = []
    metrics.entropy_series = []
    metrics.aborted = []
    metrics.completed = []
    metrics.rounds_observed = 0
    metrics._occupancy_sums = np.zeros(
        metrics.max_conns + 1, dtype=np.float64
    )
    metrics._occupancy_rounds = 0


def restore_sharded_swarm(
    document: dict,
    *,
    shards: Optional[int] = None,
    **swarm_kwargs,
) -> Swarm:
    """Rebuild a sharded swarm from a coordinated snapshot.

    ``shards`` resumes at a *different* worker count (elastic
    re-sharding): peer rows from every shard document (plus in-flight
    migrants) are repartitioned by ``peer_id % shards``, relations are
    severed (every peer re-announces), and cumulative shard statistics
    fold into the coordinator's carried totals.  Same-count resume is
    exact and fingerprint-preserving; a repartitioned resume is a new
    (deterministic) trajectory.

    A soa document (what a ``shards=1`` run writes) is accepted too:
    without ``shards`` (or with ``shards=1``) it resumes as the
    :class:`SoaSwarm` it is, and ``shards >= 2`` re-shards it.
    """
    from repro.checkpoint.schema import _restore_soa_swarm

    if "solo" in document:
        # Legacy ``shards=1`` file: an ordinary soa document, wrapped.
        document = document["solo"]
    if document.get("backend") == "soa":
        if shards is None or shards == 1:
            return _restore_soa_swarm(document, **swarm_kwargs)
        document = _sharded_document_from_soa(document)
    config = SimConfig.from_dict(document["config"])
    doc_shards = int(document["shards"])
    target = doc_shards if shards is None else int(shards)
    if target < 1:
        raise CheckpointError(f"shards must be >= 1, got {target}")
    plan = (
        None if document.get("faults_plan") is None
        else FaultPlan.from_dict(document["faults_plan"])
    )
    if target == doc_shards:
        swarm = ShardedSwarm(
            config, shards=target, faults=plan, **swarm_kwargs,
        )
        swarm._load_coordinator_block(document)
        swarm._restore_docs = list(document["shard_docs"])
        swarm.resumed_from_round = swarm._rounds
        return swarm
    return _repartition(document, config, plan, target, swarm_kwargs)


def _sharded_document_from_soa(document: dict) -> dict:
    """Lift a soa snapshot into one-shard coordinator form.

    The soa engine draws its next Poisson arrival ahead of time as a
    queued ``"arrival"`` event; the coordinator carries that time as
    ``next_arrival`` and keeps drawing gaps from the same RNG stream.
    """
    sw = document["swarm"]
    stats = sw["connection_stats"]
    faults = document["faults"]
    arrivals = [
        float(when) for when, _seq, kind, _payload
        in document["engine"]["queue"] if kind == "arrival"
    ]
    return {
        "schema_version": document["schema_version"],
        "backend": "sharded",
        "shards": 1,
        "config": document["config"],
        "faults_plan": None if faults is None else faults["plan"],
        "coordinator": {
            "generation": 0,
            "rng": sw["rng"],
            "rounds": int(sw["rounds"]),
            "next_round_time": (
                (int(sw["rounds"]) + 1) * document["config"]["piece_time"]
            ),
            "population_log": sw["population_log"],
            "global_next_id": int(sw["next_id"]),
            "next_arrival": min(arrivals) if arrivals else None,
            "pending_rows": [None],
            "shard_state": [{
                "n_leech": int(sw["n_leech"]),
                "n_seeds": int(sw["n_seeds"]),
                "piece_counts": list(sw["piece_counts"]),
                "stats": [
                    stats["survived"], stats["dropped"],
                    stats["attempts"], stats["formed"],
                ],
                "seed_uploads": int(sw["seed_upload_count"]),
            }],
            "carried": {
                "survived": 0, "dropped": 0, "attempts": 0, "formed": 0,
                "seed_uploads": 0, "events": 0,
            },
            "carried_faults": None,
            "metrics": document["metrics"],
        },
        "shard_docs": [document],
    }


def _repartition(
    document: dict,
    config: SimConfig,
    plan: Optional[FaultPlan],
    target: int,
    swarm_kwargs: dict,
) -> ShardedSwarm:
    """Checkpoint -> repartition -> resume at a new shard count."""
    if target < 2:
        raise CheckpointError(
            "re-sharding to shards=1 is not supported; resume with the "
            "original shard count or >= 2 workers"
        )
    swarm = ShardedSwarm(config, shards=target, faults=plan, **swarm_kwargs)
    swarm._load_coordinator_block(document)
    swarm._generation += 1

    # Fold every old shard's cumulative counters into the carried base;
    # fresh workers restart their counters from zero.
    carried = swarm._carried
    for state in swarm._shard_state:
        survived, dropped, attempts, formed = state["stats"]
        carried["survived"] += survived
        carried["dropped"] += dropped
        carried["attempts"] += attempts
        carried["formed"] += formed
        carried["seed_uploads"] += state["seed_uploads"]
    for shard_doc in document["shard_docs"]:
        carried["events"] += int(shard_doc["engine"]["processed"])
        faults_doc = shard_doc.get("faults")
        if faults_doc is not None and plan is not None:
            if swarm._carried_faults is None:
                swarm._carried_faults = FaultStats()
            swarm._carried_faults.merge(
                _fault_stats_from_dict(faults_doc["stats"])
            )

    # Gather every alive peer (plus in-flight migrants) and rehash.
    words = words_for(config.num_pieces)
    parts = [
        _rows_from_store_block(shard_doc["store"], words)
        for shard_doc in document["shard_docs"]
    ]
    merged = _concat_rows(parts + swarm._pending_rows)
    adopt: List[Optional[dict]] = [None] * target
    shard_state: List[dict] = []
    for index in range(target):
        if merged is not None:
            part = _select_rows(
                merged, (merged["peer_id"] % target) == index
            )
        else:
            part = None
        adopt[index] = part
        if part is None:
            n_seeds = 0
            n_leech = 0
            counts = np.zeros(config.num_pieces, dtype=np.int64)
        else:
            n_seeds = int(part["is_seed"].sum())
            n_leech = int(part["peer_id"].size) - n_seeds
            counts = unpack_rows(
                np.ascontiguousarray(part["bits"]), config.num_pieces
            ).sum(axis=0).astype(np.int64)
        shard_state.append({
            "time": None,
            "n_leech": n_leech,
            "n_seeds": n_seeds,
            "piece_counts": counts,
            "conn_counts": None,
            "stats": (0, 0, 0, 0),
            "seed_uploads": 0,
            "completed": [],
            "aborted": [],
        })
    swarm._pending_rows = [None] * target
    swarm._shard_state = shard_state
    swarm._adopt_rows = adopt
    swarm.resumed_from_round = swarm._rounds
    return swarm
