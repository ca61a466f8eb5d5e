"""The swarm workloads: ``soa-100k`` and ``sharded2-100k``.

Both run the same swarm — the 100k-peer throughput config of
``benchmarks/bench_perf_soa.py`` (B=60, k=4, s=25, half-filled
leechers, Poisson arrivals of 3 % of the population per round, one
seed per 100 leechers, rarest-first) — for ``ROUNDS`` rounds from the
run's seed.  ``soa-100k`` runs it in one process and then writes,
reads and resumes one checkpoint; ``sharded2-100k`` runs it on two
shard processes and writes no checkpoint, so a change to the
checkpoint codec must leave it unchanged.

Round 1 belongs to set-up on both engines (the sharded engine starts
its workers lazily inside it); the steady rounds are 2..ROUNDS.
Set-up is repeated ``SETUP_REPEATS`` times per run and its median
reported, so work moved into set-up shows.  On soa only the last swarm
goes on to the horizon; on sharded every swarm does, and the steady
figures are medians over the repeats.
"""

from __future__ import annotations

import gc
import os
from multiprocessing import resource_tracker
from pathlib import Path

from common import (
    Run,
    median,
    own_peak_rss_mb,
    pid_alive,
    process_peak_rss_mb,
)

PEERS = 100_000
ROUNDS = 8
SETUP_REPEATS = 3
SHARDS = 2
#: ``op_tail_ms`` on the swarms is the mean of this many slowest steady
#: rounds.  Seven rounds leave no percentile above the median with ten
#: samples beyond it, and the single slowest round moves with every
#: slow second of a shared machine; the slowest rounds are the churn at
#: the end of the horizon, and two of them are averaged.
TAIL_ROUNDS = 2

SOA_STAGES = ("store", "interest", "selection", "exchange", "seeds",
              "bookkeeping")


def swarm_config(peers: int, rounds: int, seed: int):
    """The 100k throughput swarm, scaled to ``peers`` leechers."""
    from repro.sim.config import SimConfig

    return SimConfig(
        num_pieces=60,
        max_conns=4,
        ns_size=25,
        arrival_process="poisson",
        arrival_rate=3.0 * peers / 100.0,
        initial_leechers=peers,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=max(peers // 100, 1),
        seed_upload_slots=2,
        piece_selection="rarest",
        max_time=float(rounds),
        seed=seed,
    )


def _peers(run: Run) -> int:
    return max(200, int(round(PEERS * run.scale)))


def _check_conservation(run: Run, config, next_id: int, live_ids,
                        result) -> None:
    """Every peer ever created is alive or departed, exactly once."""
    import numpy as np

    initial = config.num_seeds + config.initial_leechers
    arrivals = next_id - initial
    completed_ids = [record.peer_id for record in result.metrics.completed]
    aborted = len(result.metrics.aborted)
    live = result.final_leechers + result.final_seeds
    run.check(arrivals > 0, f"no arrivals recorded (next id {next_id})")
    run.check(
        initial + arrivals == live + len(completed_ids) + aborted,
        f"peers not conserved: initial {initial} + arrivals {arrivals} != "
        f"live {live} + completed {len(completed_ids)} + aborted {aborted}",
    )
    run.check(len(live_ids) == live,
              f"{len(live_ids)} live peer rows for a population of {live}")
    if aborted == 0:
        ids = np.sort(np.concatenate([
            np.asarray(live_ids, dtype=np.int64),
            np.asarray(completed_ids, dtype=np.int64),
        ]))
        run.check(
            ids.size == next_id
            and bool(np.array_equal(ids, np.arange(next_id))),
            "live and completed peer ids are not exactly 0..next_id-1",
        )


def _common_results(run: Run, setup_times, repeats, result) -> None:
    """End-to-end figures: each is the median over ``repeats``.

    ``repeats`` holds one ``(steady_round_seconds, work_s, peak_mb)``
    per measured run of the horizon.
    """
    per_repeat = [
        {
            "ops_per_s": len(steady) / sum(steady),
            "op_p50_ms": 1000.0 * median(steady),
            "op_tail_ms": 1000.0 * sum(sorted(steady)[-TAIL_ROUNDS:])
                          / TAIL_ROUNDS,
            "work_s": work_s,
            "peak_rss_mb": peak_mb,
        }
        for steady, work_s, peak_mb in repeats
    ]
    run.samples["setup_s"] = setup_times
    run.samples["steady_round_s"] = [steady for steady, _w, _p in repeats]
    run.end_to_end["setup_s"] = median(setup_times)
    for name in per_repeat[0]:
        run.end_to_end[name] = median([row[name] for row in per_repeat])
    completions = len(result.metrics.completed)
    run.note("setup_s", median(setup_times), "s",
             f"median of {len(setup_times)} set-ups, each incl. round 1")
    run.note("rounds_per_s", run.end_to_end["ops_per_s"], "rounds/s",
             f"rounds 2..{ROUNDS}, set-up excluded, "
             f"median of {len(repeats)} run(s)")
    run.note("completions", completions, "downloads",
             f"seed {run.seed}, horizon {ROUNDS}")
    run.note("peak_rss_mb", run.end_to_end["peak_rss_mb"], "MB")
    peer_rounds = sum(
        leech + seeds for _t, leech, seeds in result.tracker_population_log
    )
    run.per_layer["sim.completions"] = completions
    run.per_layer["sim.peer_rounds"] = peer_rounds
    run.per_layer["sim.events"] = result.events_processed


def run_soa(run: Run) -> None:
    from repro.checkpoint.format import read_checkpoint, write_checkpoint
    from repro.sim.swarm import Swarm

    config = swarm_config(_peers(run), ROUNDS, run.seed)
    setup_times, construct_times, setup_only = [], [], []
    swarm = None
    profile_after_round1 = {}
    for _ in range(SETUP_REPEATS):
        if swarm is not None:
            with run.span("sim.discard"):
                swarm = None
                gc.collect()
        with run.span("sim.setup") as total:
            with run.span("soa.construct") as construct:
                swarm = Swarm(config, backend="soa", profile=run.trace)
            with run.span("soa.setup") as setup:
                swarm.setup()
            with run.span("soa.round"):
                swarm.engine.run_until(config.piece_time)
        run.op()
        setup_times.append(total.seconds)
        construct_times.append(construct.seconds)
        setup_only.append(setup.seconds)
    if swarm.profiler is not None:
        profile_after_round1 = swarm.profiler.as_dict()

    steady = []
    for index in range(2, ROUNDS + 1):
        with run.span("soa.round") as round_span:
            swarm.engine.run_until(index * config.piece_time)
        steady.append(round_span.seconds)
        run.op()
    with run.span("sim.finish") as finish:
        result = swarm.run()

    path = Path(run.outdir) / f"soa-seed{run.seed}.ckpt"
    # Swarm.write_checkpoint() is this pair (plus a counter); calling
    # its two halves separately times each of them.
    with run.span("checkpoint.write") as write:
        with run.span("checkpoint.snapshot") as snap:
            document = swarm.snapshot()
        with run.span("checkpoint.encode_write") as encode:
            write_checkpoint(document, path)
        del document
    with run.span("checkpoint.restore") as restore:
        with run.span("checkpoint.read") as read:
            document = read_checkpoint(path)
        with run.span("checkpoint.resume") as resume:
            resumed = Swarm.resume(document)
    peak_mb = own_peak_rss_mb()
    ckpt_bytes = os.path.getsize(path)
    live = result.final_leechers + result.final_seeds

    with run.span("check.outputs"):
        run.check(result.total_rounds == ROUNDS,
                  f"total_rounds {result.total_rounds} != horizon {ROUNDS}")
        _check_conservation(run, config, int(document["swarm"]["next_id"]),
                            document["store"]["peer_id"], result)
        again = Path(run.outdir) / f"soa-seed{run.seed}.resumed.ckpt"
        write_checkpoint(resumed.snapshot(), again)
        same = path.read_bytes() == again.read_bytes()
        run.check(same, "the resumed swarm does not reproduce the written "
                        "checkpoint document")
        run.op(same, "checkpoint round-trip changed the document")
        again.unlink()
        path.unlink()

    work_s = sum(steady) + finish.seconds + write.seconds + restore.seconds
    _common_results(run, setup_times, [(steady, work_s, peak_mb)], result)
    run.note("checkpoint_write_s", write.seconds, "s",
             "snapshot + encode + write")
    run.note("checkpoint_restore_s", restore.seconds, "s", "read + resume")
    run.note("checkpoint_bytes_per_peer", ckpt_bytes / live, "B",
             f"{ckpt_bytes} B for {live} live peers")

    layer = run.per_layer
    layer["soa.construct_s"] = median(construct_times)
    layer["soa.setup_s"] = median(setup_only)
    layer["soa.round_s.p50"] = median(steady)
    layer["soa.round_s.max"] = max(steady)
    layer["checkpoint.snapshot_s"] = snap.seconds
    layer["checkpoint.write_s"] = encode.seconds
    layer["checkpoint.read_s"] = read.seconds
    layer["checkpoint.resume_s"] = resume.seconds
    layer["checkpoint.bytes"] = ckpt_bytes
    layer["checkpoint.bytes_per_peer"] = ckpt_bytes / live
    stages = result.round_profile or {}
    attributed = 0.0
    for stage in SOA_STAGES:
        seconds = stages.get(stage, 0.0) - profile_after_round1.get(stage, 0.0)
        layer[f"soa.stage.{stage}_s"] = seconds
        attributed += seconds
    if stages:
        layer["soa.unattributed_share"] = 1.0 - attributed / sum(steady)


class _Fleet:
    """Every shard worker pid and fabric segment a run has seen.

    A worker that dies mid-round is replaced and the run replays, so
    the pids and segments are collected after every step, not only at
    the end; the leak check then covers the replaced ones too.
    """

    def __init__(self) -> None:
        self.pids: set = set()
        self.segments: set = set()

    def see(self, swarm) -> None:
        self.pids.update(swarm.worker_pids())
        self.segments.update(swarm.fabric_segment_names())

    def leaks(self) -> list:
        """Shard workers still running and fabric segments still in /dev/shm."""
        alive = [pid for pid in sorted(self.pids) if pid_alive(pid)]
        left = [name for name in sorted(self.segments)
                if os.path.exists(os.path.join("/dev/shm", name))]
        return alive + left


def _step(run: Run, swarm, fleet: _Fleet, index: int):
    """Round ``index`` as one ``step_round()``; a worker restart fails it."""
    restarts = swarm.worker_restarts
    with run.span("sharded.step") as span:
        ok = swarm.step_round()
    fleet.see(swarm)
    restarted = swarm.worker_restarts - restarts
    run.op(ok, f"sharded round {index} ended the run before the horizon")
    for _ in range(restarted):
        run.op(False, f"a shard worker died in round {index}; "
                      "the run replayed from round 0")
    return span


def _teardown(run: Run, swarm, fleet: _Fleet) -> None:
    fleet.see(swarm)
    with run.span("sharded.close"):
        swarm.close()
    leaks = fleet.leaks()
    run.op(not leaks, f"sharded teardown leaked {leaks}")


def _stop_resource_tracker(run: Run) -> None:
    """Stop and reap multiprocessing's resource tracker.

    The sharded engine's shared memory starts it; the run must leave no
    process behind, so a tracker that cannot be stopped fails the run.
    """
    tracker = resource_tracker._resource_tracker
    pid = getattr(tracker, "_pid", None)
    stop = getattr(tracker, "_stop", None)
    run.check(stop is not None,
              "multiprocessing's resource tracker has no _stop(); "
              "it would outlive the run")
    if stop is None:
        return
    stop()
    run.check(tracker._pid is None and (pid is None or not pid_alive(pid)),
              f"the resource tracker (pid {pid}) is still running")


def run_sharded(run: Run) -> None:
    """Run the whole horizon once per set-up; figures are medians.

    Two worker processes on a shared two-core machine make single
    rounds noisy, so each of the ``SETUP_REPEATS`` swarms runs to the
    horizon and the end-to-end figures are medians over the repeats.
    """
    from repro.sim.swarm import Swarm

    config = swarm_config(_peers(run), ROUNDS, run.seed)
    setup_times, start_times, repeats, completions = [], [], [], []
    restarts = 0
    fleet = _Fleet()
    swarm = result = None
    for repeat in range(SETUP_REPEATS):
        if result is not None:
            # A finished swarm left alive makes the next one's rounds
            # slower (a bigger heap to collect); every repeat starts clean.
            with run.span("sim.discard"):
                swarm = result = None
                gc.collect()
        try:
            with run.span("sim.setup") as total:
                with run.span("sharded.construct"):
                    swarm = Swarm(config, backend="sharded", shards=SHARDS,
                                  profile=run.trace)
                first = _step(run, swarm, fleet, 1)
            steady = [_step(run, swarm, fleet, index).seconds
                      for index in range(2, ROUNDS + 1)]
            peak_mb = own_peak_rss_mb() + sum(
                process_peak_rss_mb(pid) for pid in swarm.worker_pids()
            )
            if repeat == SETUP_REPEATS - 1:
                with run.span("check.snapshot"):
                    document = swarm.snapshot()
            with run.span("sim.finish") as finish:
                result = swarm.run()
            fleet.see(swarm)
            restarts += swarm.worker_restarts
        finally:
            if swarm is not None:
                _teardown(run, swarm, fleet)
        setup_times.append(total.seconds)
        start_times.append(first.seconds)
        repeats.append((steady, sum(steady) + finish.seconds, peak_mb))
        completions.append(len(result.metrics.completed))
    _stop_resource_tracker(run)

    with run.span("check.outputs"):
        run.check(result.total_rounds == ROUNDS,
                  f"total_rounds {result.total_rounds} != horizon {ROUNDS}")
        run.check(restarts == 0, f"the run replayed after {restarts} "
                                 "shard worker restart(s)")
        run.check(len(set(completions)) == 1,
                  f"repeats of one seed finished {completions} downloads")
        coordinator = document["coordinator"]
        live_ids = [pid for shard in document["shard_docs"]
                    for pid in shard["store"]["peer_id"]]
        for rows in coordinator["pending_rows"]:
            if rows is not None:
                live_ids.extend(rows["peer_id"])
        _check_conservation(run, config, int(coordinator["global_next_id"]),
                            live_ids, result)
        del document

    _common_results(run, setup_times, repeats, result)
    layer = run.per_layer
    layer["sharded.start_s"] = median(start_times)
    layer["sharded.step_s.p50"] = median(
        [seconds for steady, _w, _p in repeats for seconds in steady]
    )
    comms = result.comms or {}
    layer["shm.bytes_broadcast_per_round"] = (
        comms.get("bytes_broadcast", 0) / result.total_rounds
    )
    layer["shm.bytes_migrated_per_round"] = (
        comms.get("bytes_migrated", 0) / result.total_rounds
    )
    profiles = result.shard_profiles or {}
    coord = profiles.get("coordinator", {})
    layer["sharded.coord.comms_s"] = coord.get("comms", 0.0)
    layer["sharded.coord.bookkeeping_s"] = coord.get("bookkeeping", 0.0)
    compute = [
        sum(profile.values()) for name, profile in profiles.items()
        if name.startswith("shard")
    ]
    if compute:
        layer["sharded.shard_compute_s.max"] = max(compute)
        layer["sharded.shard_compute_s.sum"] = sum(compute)
        # Shard profiles cover all ROUNDS rounds, so the wall time they
        # are set against is every step, round 1 (worker start) included.
        all_steps = setup_times[-1] + sum(steady)
        layer["sharded.critical_path_share"] = (
            max(compute) + sum(coord.values())
        ) / all_steps
        for stage in SOA_STAGES:
            layer[f"soa.stage.{stage}_s"] = sum(
                profile.get(stage, 0.0) for name, profile in profiles.items()
                if name.startswith("shard")
            )
