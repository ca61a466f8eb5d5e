"""Command-line interface: run the paper's experiments from a shell.

Examples::

    repro-bt list                     # enumerate reproducible figures
    repro-bt run F1a                  # paper-scale Figure 1(a) (exact)
    repro-bt run F1a --method batch   # vectorized Monte-Carlo cross-check
    repro-bt run F1a --workers 4      # fan replications over 4 processes
    repro-bt run F1b --timing         # print wall-time / cache telemetry
    repro-bt run F3bc --quick         # reduced-scale stability panels
    repro-bt run F3a --backend soa    # vectorized swarm engine
    repro-bt run F3bc --checkpoint-dir ck/   # snapshot every 25 rounds
    repro-bt run F3bc --checkpoint-dir ck/ --resume  # pick up after a kill
    repro-bt trace smooth out.jsonl   # generate a Figure-2 archetype
    repro-bt calibrate out.jsonl --max-conns 4 --ns-size 20
    repro-bt stability 3 10 20        # B sweep of the stability runs
    repro-bt seeding                  # the Section-7.2 seeding study
    repro-bt chaos --quick            # fault-intensity sweep (smoke scale)
    repro-bt chaos 0 1 2 --workers 4  # chaos sweep with crash recovery
    repro-bt scenario                 # list curated swarm scenarios
    repro-bt scenario flash-crowd     # run one and summarise it
    repro-bt serve                    # model-as-a-service query endpoint
    repro-bt serve --port 9000 --max-bytes-mb 512
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.analysis.reporting import format_table
from repro.experiments.registry import get_experiment, list_experiments

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="repro-bt",
        description=(
            "Reproduction of 'A Multiphased Approach for Modeling and "
            "Analysis of the BitTorrent Protocol' (ICDCS 2007)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible figures")

    run = subparsers.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. F1a (see 'list')")
    run.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale parameters (fast smoke run)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for replication/sweep fan-out "
            "(0 = all cores; results are identical for any value)"
        ),
    )
    run.add_argument(
        "--timing",
        action="store_true",
        help="print wall-time and kernel-cache telemetry after the result",
    )
    run.add_argument(
        "--method",
        default=None,
        help=(
            "estimator for experiments with a method switch: 'exact' "
            "(alias 'sparse'; fundamental-matrix solve, noise-free), "
            "'batch' (vectorized Monte Carlo), 'serial' (alias "
            "'monte-carlo'; per-trajectory Monte Carlo), or 'meanfield' "
            "(alias 'mean-field', 'ode'; deterministic large-swarm ODE "
            "limit); unknown values list the valid choices"
        ),
    )
    run.add_argument(
        "--backend",
        default=None,
        help=(
            "swarm engine for simulation-backed experiments: 'object' "
            "(per-peer reference engine, the default), 'soa' "
            "(vectorized structure-of-arrays engine; statistically "
            "equivalent and ~10x+ faster on large swarms), or 'sharded' "
            "(the soa slab partitioned over --shards worker processes; "
            "million-peer scale); unknown values list the valid choices"
        ),
    )
    run.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "worker processes for --backend sharded; 1 runs the soa "
            "engine in-process (ignored by the other backends)"
        ),
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory for round-boundary snapshots; an interrupted run "
            "relaunched with --resume picks up from the latest snapshots"
        ),
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=25,
        help="rounds between snapshots when --checkpoint-dir is set",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from existing snapshots in --checkpoint-dir instead "
            "of clearing them and starting fresh"
        ),
    )

    trace = subparsers.add_parser(
        "trace", help="generate a Figure-2 archetype trace to a JSONL file"
    )
    trace.add_argument(
        "archetype", choices=("smooth", "last", "bootstrap"),
        help="which download-evolution archetype to generate",
    )
    trace.add_argument("output", help="output JSONL path")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--count", type=int, default=1,
        help="how many archetype traces to generate (distinct seeds)",
    )

    calibrate = subparsers.add_parser(
        "calibrate", help="fit model parameters to a JSONL trace file"
    )
    calibrate.add_argument("traces", help="input JSONL path")
    calibrate.add_argument("--max-conns", type=int, required=True,
                           help="protocol k for the fitted model")
    calibrate.add_argument("--ns-size", type=int, required=True,
                           help="protocol s for the fitted model")

    stability = subparsers.add_parser(
        "stability", help="run the high-skew stability experiment per B"
    )
    stability.add_argument(
        "pieces", type=int, nargs="+", help="piece counts B to sweep"
    )
    stability.add_argument("--arrival-rate", type=float, default=20.0)
    stability.add_argument("--initial", type=int, default=400)
    stability.add_argument("--horizon", type=float, default=150.0)
    stability.add_argument("--seed", type=int, default=0)
    stability.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (one stability run per B fans out)",
    )
    stability.add_argument(
        "--checkpoint-dir", default=None,
        help="snapshot directory (see 'run --checkpoint-dir')",
    )
    stability.add_argument(
        "--checkpoint-every", type=int, default=25,
        help="rounds between snapshots when --checkpoint-dir is set",
    )
    stability.add_argument(
        "--resume", action="store_true",
        help="resume from existing snapshots instead of clearing them",
    )
    stability.add_argument(
        "--backend", default="object",
        help="swarm engine: 'object' (default) or 'soa' (vectorized)",
    )

    seeding = subparsers.add_parser(
        "seeding", help="run the Section-7.2 seeding study"
    )
    seeding.add_argument("--seed", type=int, default=0)
    seeding.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (one task per seeding configuration)",
    )
    seeding.add_argument(
        "--backend", default="object",
        help="swarm engine: 'object' (default) or 'soa' (vectorized)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="sweep fault-injection intensity and report eta degradation",
    )
    chaos.add_argument(
        "intensities", type=float, nargs="*",
        default=[0.0, 0.5, 1.0, 1.5, 2.0],
        help="fault-plan multipliers to sweep (default: 0 0.5 1 1.5 2)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--replications", type=int, default=2,
        help="independent swarms averaged per intensity",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="reduced-scale swarms (fast smoke sweep)",
    )
    chaos.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (0 = all cores; results are identical)",
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=2,
        help="attempts per swarm before it is abandoned (crash recovery)",
    )
    chaos.add_argument(
        "--timing",
        action="store_true",
        help="print telemetry, including task-failure accounting",
    )
    chaos.add_argument(
        "--backend", default="object",
        help=(
            "swarm engine: 'object' (default) or 'soa' (vectorized; "
            "runs uninstrumented, so phase fractions print as NaN)"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve model queries over JSON/HTTP (solve, sweep, stats)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8750, help="TCP port (default 8750)"
    )
    serve.add_argument(
        "--solver-threads", type=int, default=2,
        help="threads running blocking solves (default 2)",
    )
    serve.add_argument(
        "--max-entries", type=int, default=128,
        help="kernel-cache entry bound (chains + compiled operators)",
    )
    serve.add_argument(
        "--max-bytes-mb", type=int, default=256,
        help="kernel-cache memory bound in MiB (0 = unbounded)",
    )

    scenario = subparsers.add_parser(
        "scenario", help="run a curated swarm scenario and summarise it"
    )
    scenario.add_argument(
        "name", nargs="?", default=None,
        help="scenario name (omit to list the available scenarios)",
    )
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--horizon", type=float, default=None,
                          help="override max_time")
    scenario.add_argument(
        "--backend", default="object",
        help=(
            "swarm engine: 'object' (default), 'soa' (vectorized) or "
            "'sharded' (multiprocess; see --shards)"
        ),
    )
    scenario.add_argument(
        "--shards", type=int, default=2,
        help=(
            "worker processes for --backend sharded (default 2; 1 runs "
            "the soa engine in-process)"
        ),
    )

    return parser


def _command_list() -> int:
    rows = [
        [spec.exp_id, spec.figure, spec.description]
        for spec in list_experiments()
    ]
    print(format_table(["id", "figure", "description"], rows))
    return 0


def _parse_backend(backend: str) -> str:
    """Validate ``--backend`` up front with the valid choices listed.

    A typo fails here, before any experiment work starts, with the same
    actionable message the :class:`~repro.sim.swarm.Swarm` constructor
    would raise mid-run.
    """
    from repro.errors import ParameterError
    from repro.sim.swarm import BACKENDS

    if backend not in BACKENDS:
        raise ParameterError(
            f"unknown swarm backend {backend!r}; valid backends are "
            f"{', '.join(repr(b) for b in BACKENDS)} "
            f"('object' is the per-peer reference engine, 'soa' the "
            f"vectorized array engine, 'sharded' the multiprocess "
            f"array engine; e.g. repro-bt run F3a --backend soa or "
            f"repro-bt scenario steady --backend sharded --shards 4)"
        )
    return backend


def _prepare_checkpoint_dir(checkpoint_dir: Optional[str], resume: bool) -> None:
    """Fresh-start semantics: clear stale snapshots unless resuming."""
    if checkpoint_dir is None or resume:
        return
    from repro.checkpoint.store import CheckpointStore

    removed = CheckpointStore(checkpoint_dir).clear()
    if removed:
        print(f"cleared {removed} stale checkpoint(s) from {checkpoint_dir}")


def _command_run(
    experiment: str, quick: bool, seed: Optional[int],
    workers: int = 1, timing: bool = False,
    checkpoint_dir: Optional[str] = None, checkpoint_every: int = 25,
    resume: bool = False, method: Optional[str] = None,
    backend: Optional[str] = None, shards: Optional[int] = None,
) -> int:
    import inspect

    spec = get_experiment(experiment)
    kwargs = dict(spec.quick_kwargs) if quick else {}
    if seed is not None:
        kwargs["seed"] = seed
    kwargs["workers"] = workers
    params = inspect.signature(spec.runner).parameters
    if method is not None:
        if "method" in params:
            from repro.core.methods import Method

            # Validate up front so a typo fails with the valid choices
            # listed, before any experiment work starts.
            kwargs["method"] = Method.parse(
                method,
                allowed=(
                    Method.EXACT, Method.BATCH, Method.SERIAL,
                    Method.MEANFIELD,
                ),
            ).value
        else:
            print(
                f"note: {experiment} has no method switch; "
                f"ignoring --method",
                file=sys.stderr,
            )
    if backend is not None:
        backend = _parse_backend(backend)
        if "backend" in params:
            kwargs["backend"] = backend
        else:
            print(
                f"note: {experiment} has no backend switch "
                f"(it needs the reference engine's per-peer state); "
                f"ignoring --backend",
                file=sys.stderr,
            )
    if shards is not None:
        if backend == "sharded" and "shards" in params:
            kwargs["shards"] = shards
        else:
            print(
                f"note: --shards only applies with --backend sharded on "
                f"experiments that accept it; ignoring --shards",
                file=sys.stderr,
            )
    if timing and "profile" in params:
        # Swarm-backed runners bucket per-round wall time by stage when
        # telemetry was asked for; the buckets print with the timing.
        kwargs["profile"] = True
    if checkpoint_dir is not None:
        if "checkpoint_dir" not in params:
            print(
                f"note: {experiment} does not support checkpointing; "
                f"ignoring --checkpoint-dir",
                file=sys.stderr,
            )
        else:
            _prepare_checkpoint_dir(checkpoint_dir, resume)
            kwargs["checkpoint_dir"] = checkpoint_dir
            kwargs["checkpoint_every"] = checkpoint_every
    print(f"== {spec.figure}: {spec.description} ==")
    result = spec.runner(**kwargs)
    print(result.format())
    if timing and result.timing is not None:
        print(result.timing.format())
    return 0


def _command_trace(archetype: str, output: str, seed: int, count: int) -> int:
    from repro.traces.io import write_trace_jsonl
    from repro.traces.synthetic import generate_archetype

    traces = []
    for index in range(count):
        trace, config = generate_archetype(archetype, seed=seed + 100 * index)
        traces.append(trace)
        print(
            f"generated {archetype!r} trace "
            f"({trace.pieces_downloaded()}/{trace.num_pieces} pieces, "
            f"{len(trace.samples)} samples, swarm seed {config.seed})"
        )
    write_trace_jsonl(traces, output)
    print(f"wrote {len(traces)} trace(s) to {output}")
    return 0


def _command_calibrate(path: str, max_conns: int, ns_size: int) -> int:
    from repro.analysis.calibration import calibrate_parameters
    from repro.traces.io import read_trace_jsonl

    traces = read_trace_jsonl(path)
    params, evidence = calibrate_parameters(
        traces, max_conns=max_conns, ns_size=ns_size
    )
    print(f"fitted model: {params.describe()}")
    print(format_table(
        ["parameter", "estimate", "evidence"],
        [
            ["alpha", evidence.alpha,
             f"{evidence.bootstrap_escapes} escapes / "
             f"{evidence.bootstrap_stall_rounds} stalled rounds"],
            ["gamma", evidence.gamma,
             f"{evidence.last_escapes} escapes / "
             f"{evidence.last_stall_rounds} stalled rounds"],
            ["p_r", evidence.p_reenc,
             f"{evidence.connection_drops} drops / "
             f"{evidence.connection_rounds} connection-rounds"],
        ],
    ))
    return 0


def _command_stability(
    pieces: List[int], arrival_rate: float, initial: int,
    horizon: float, seed: int, workers: int = 1,
    checkpoint_dir: Optional[str] = None, checkpoint_every: int = 25,
    resume: bool = False, backend: str = "object",
) -> int:
    from repro.stability.drift import phase_drift_analysis
    from repro.stability.experiments import run_stability_sweep

    _prepare_checkpoint_dir(checkpoint_dir, resume)
    runs, _telemetry = run_stability_sweep(
        pieces,
        arrival_rate=arrival_rate,
        initial_leechers=initial,
        max_time=horizon,
        seed=seed,
        entropy_every=4,
        workers=workers,
        backend=_parse_backend(backend),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    rows = []
    for num_pieces, run in runs.items():
        drift = phase_drift_analysis(num_pieces, 4, arrival_rate)
        rows.append([
            num_pieces,
            run.final_population(),
            round(float(run.entropy[-10:].mean()), 3),
            "DIVERGED" if run.diverged else "bounded",
            "unstable" if not drift.predicted_stable else "stable",
        ])
    print(format_table(
        ["B", "final peers", "tail entropy", "simulated", "drift model"],
        rows,
    ))
    return 0


def _command_seeding(seed: int, workers: int = 1,
                     backend: str = "object") -> int:
    from repro.experiments.seeding import run_seeding_study

    print(run_seeding_study(
        seed=seed, workers=workers, backend=_parse_backend(backend)
    ).format())
    return 0


def _command_chaos(
    intensities: List[float], seed: int, replications: int,
    quick: bool = False, workers: int = 1, max_attempts: int = 2,
    timing: bool = False, backend: str = "object",
) -> int:
    from repro.faults.chaos import default_chaos_config, run_chaos_sweep

    config = default_chaos_config()
    if quick:
        config = config.with_changes(
            max_time=40.0, initial_leechers=25, arrival_rate=2.0
        )
    result = run_chaos_sweep(
        intensities,
        config=config,
        replications=replications,
        seed=seed,
        workers=workers,
        backend=_parse_backend(backend),
        max_attempts=max_attempts,
    )
    print(result.format())
    if timing and result.timing is not None:
        print(result.timing.format())
    return 0


def _command_serve(
    host: str, port: int, solver_threads: int,
    max_entries: int, max_bytes_mb: int,
) -> int:
    from repro.errors import ParameterError
    from repro.runtime.cache import KernelCache
    from repro.service import SolverService, run_server

    if max_entries < 1:
        raise ParameterError(f"--max-entries must be >= 1, got {max_entries}")
    if max_bytes_mb < 0:
        raise ParameterError(
            f"--max-bytes-mb must be >= 0 (0 = unbounded), got {max_bytes_mb}"
        )
    cache = KernelCache(
        max_entries=max_entries,
        max_bytes=None if max_bytes_mb == 0 else max_bytes_mb * 1024 * 1024,
    )
    service = SolverService(cache=cache, max_workers=solver_threads)
    run_server(host=host, port=port, service=service)
    return 0


def _command_scenario(name: Optional[str], seed: int,
                      horizon: Optional[float],
                      backend: str = "object", shards: int = 2) -> int:
    from repro.errors import ParameterError
    from repro.sim.scenarios import SCENARIOS
    from repro.sim.swarm import run_swarm

    if name is None:
        rows = [
            [key, (factory.__doc__ or "").strip().splitlines()[0]]
            for key, factory in sorted(SCENARIOS.items())
        ]
        print(format_table(["scenario", "description"], rows))
        return 0
    factory = SCENARIOS.get(name)
    if factory is None:
        raise ParameterError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        )
    config = factory(seed=seed)
    if horizon is not None:
        config = config.with_changes(max_time=horizon)
    backend = _parse_backend(backend)
    swarm_kwargs = {"shards": shards} if backend == "sharded" else {}
    result = run_swarm(config, backend=backend, **swarm_kwargs)
    metrics = result.metrics
    stats = result.connection_stats
    print(f"scenario {name!r}: {result.total_rounds} rounds")
    print(format_table(
        ["metric", "value"],
        [
            ["completed downloads", len(metrics.completed)],
            ["mean download time", round(metrics.mean_download_duration(), 2)],
            ["aborted downloads", metrics.abort_count()],
            ["final leechers", result.final_leechers],
            ["final seeds", result.final_seeds],
            ["measured p_r", round(stats.p_reenc(), 3)],
            ["measured p_n", round(stats.p_new(), 3)],
            ["seed uploads", result.seed_upload_count],
        ],
    ))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(
            args.experiment, args.quick, args.seed, args.workers, args.timing,
            args.checkpoint_dir, args.checkpoint_every, args.resume,
            args.method, args.backend, args.shards,
        )
    if args.command == "trace":
        return _command_trace(args.archetype, args.output, args.seed, args.count)
    if args.command == "calibrate":
        return _command_calibrate(args.traces, args.max_conns, args.ns_size)
    if args.command == "stability":
        return _command_stability(
            args.pieces, args.arrival_rate, args.initial, args.horizon,
            args.seed, args.workers,
            args.checkpoint_dir, args.checkpoint_every, args.resume,
            args.backend,
        )
    if args.command == "seeding":
        return _command_seeding(args.seed, args.workers, args.backend)
    if args.command == "chaos":
        return _command_chaos(
            args.intensities, args.seed, args.replications, args.quick,
            args.workers, args.max_attempts, args.timing, args.backend,
        )
    if args.command == "serve":
        return _command_serve(
            args.host, args.port, args.solver_threads,
            args.max_entries, args.max_bytes_mb,
        )
    if args.command == "scenario":
        return _command_scenario(args.name, args.seed, args.horizon,
                                 args.backend, args.shards)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
