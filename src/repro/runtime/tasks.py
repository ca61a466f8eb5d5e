"""Module-level task functions the figure runners fan out.

These are the per-replication work units of the Figure-1 estimators,
reshaped so each replication is an independent, seedable, picklable
task (the loop bodies previously hidden inside
:func:`repro.core.timeline._mean_timeline_impl` and
:func:`repro.core.timeline.potential_ratio_by_pieces`, which drew all
replications from one shared stream and therefore could not be
parallelised deterministically).  Every task resolves its chain through
the process-wide :func:`~repro.runtime.cache.shared_cache`, so all
replications of one parameter set share a single transition kernel.

Each task returns ``(payload..., steps)`` where ``steps`` is the
trajectory length — the executor credits it to the telemetry's event
counter.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import ModelParameters
from repro.runtime.cache import shared_cache

__all__ = [
    "potential_ratio_task",
    "first_passage_task",
    "batch_potential_ratio_task",
    "batch_first_passage_task",
    "exact_potential_ratio_task",
    "exact_first_passage_task",
    "meanfield_potential_ratio_task",
    "meanfield_first_passage_task",
]


def potential_ratio_task(params: ModelParameters, seed: int) -> tuple:
    """One Figure-1(a) replication: pooled ``i / s`` samples per ``b``.

    Returns:
        ``(sums, counts, steps)`` — per-piece-count accumulators over
        one trajectory, merged across replications by the runner.
    """
    chain = shared_cache().chain(params)
    rng = np.random.default_rng(seed)
    sums = np.zeros(params.num_pieces + 1)
    counts = np.zeros(params.num_pieces + 1)
    trajectory = chain.trajectory(rng=rng)
    s = params.ns_size
    for state in trajectory:
        sums[state.b] += state.i / s
        counts[state.b] += 1
    return sums, counts, len(trajectory) - 1


def batch_potential_ratio_task(
    params: ModelParameters, seed: int, runs: int
) -> tuple:
    """All Figure-1(a) replications of one parameter set, vectorized.

    Steps every trajectory simultaneously on the
    :class:`~repro.core.batch.BatchChainSampler`; statistically
    equivalent to ``runs`` :func:`potential_ratio_task` calls (pooled
    draws, different stream order).

    Returns:
        ``(sums, counts, steps)`` — pooled ``i / s`` accumulators per
        piece count, plus the total chain steps sampled.
    """
    chain = shared_cache().chain(params)
    batch = chain.batch_sampler().sample(runs, seed=seed)
    sums, counts = batch.potential_accumulators()
    return sums, counts, batch.total_steps


def first_passage_task(params: ModelParameters, seed: int) -> tuple:
    """One Figure-1(b) replication: first-passage round per piece count.

    Piece counts can advance by more than one per round, so "first
    passage to ``b``" is the first round holding *at least* ``b``
    pieces (matching :func:`repro.core.timeline._mean_timeline_impl`).

    Returns:
        ``(first, steps)`` — ``first[b]`` is the first-passage round.
    """
    chain = shared_cache().chain(params)
    rng = np.random.default_rng(seed)
    trajectory = chain.trajectory(rng=rng)
    first = np.full(params.num_pieces + 1, -1.0)
    for step, state in enumerate(trajectory):
        lower = 0 if step == 0 else trajectory[step - 1].b + 1
        for reached in range(lower, state.b + 1):
            if first[reached] < 0:
                first[reached] = step
    return first, len(trajectory) - 1


def batch_first_passage_task(
    params: ModelParameters, seed: int, runs: int
) -> tuple:
    """All Figure-1(b) replications of one parameter set, vectorized.

    One task steps every trajectory simultaneously on the
    :class:`~repro.core.batch.BatchChainSampler` — the fan-out unit
    becomes the parameter set instead of the single trajectory.  The
    estimates are statistically equivalent to ``runs`` independent
    :func:`first_passage_task` calls, but not bit-identical (pooled
    draws consume the stream in a different order).

    Returns:
        ``(hits, steps)`` — ``hits[r, b]`` is run ``r``'s first-passage
        round to ``b`` pieces; ``steps`` is the total chain steps
        sampled (the telemetry event count).
    """
    chain = shared_cache().chain(params)
    batch = chain.batch_sampler().sample(runs, seed=seed)
    return batch.first_passage(), batch.total_steps


def exact_potential_ratio_task(params: ModelParameters) -> tuple:
    """Exact Figure-1(a) curve of one parameter set — no sampling.

    Compiles (or reuses) the CSR operator through the shared cache and
    reads ``E[i/s | b]`` off the fundamental-matrix expected-visits
    solve.  Deterministic, so there is no seed and no replication fan:
    one task per parameter set.

    Returns:
        ``(ratio, states)`` — the exact per-piece-count curve, plus the
        number of transient states solved (the telemetry event count).
    """
    from repro.core.exact import _exact_potential_ratio_impl

    chain = shared_cache().chain(params)
    operator = shared_cache().sparse_operator(params)
    result = _exact_potential_ratio_impl(chain, method="sparse")
    return result.ratio, operator.num_states


def meanfield_potential_ratio_task(params: ModelParameters) -> tuple:
    """Mean-field Figure-1(a) curve of one parameter set — no sampling.

    Solves (or reuses) the large-swarm ODE limit through the shared
    cache and reads the survivor-average ``E[i/s]`` at each piece-level
    crossing.  Deterministic: one task per parameter set.

    Returns:
        ``(ratio, evals)`` — the mean-field per-piece-count curve, plus
        the number of right-hand-side evaluations the integrator spent
        (the telemetry event count).
    """
    solution = shared_cache().meanfield_solution(params)
    return solution.potential_ratio, int(solution.stats["nfev"])


def meanfield_first_passage_task(params: ModelParameters) -> tuple:
    """Mean-field Figure-1(b) timeline of one parameter set.

    ``timeline[b]`` is the deterministic-limit expected first round
    holding at least ``b`` pieces, from the same cached ODE solve as
    the mean download time.

    Returns:
        ``(timeline, evals)`` — mean-field first-passage rounds, plus
        the integrator's right-hand-side evaluation count.
    """
    solution = shared_cache().meanfield_solution(params)
    return solution.timeline, int(solution.stats["nfev"])


def exact_first_passage_task(params: ModelParameters) -> tuple:
    """Exact Figure-1(b) timeline of one parameter set — no sampling.

    ``timeline[b]`` is the exact expected first round holding at least
    ``b`` pieces (expected rounds spent strictly below ``b``), from the
    same fundamental-matrix solve as the mean download time.

    Returns:
        ``(timeline, states)`` — exact expected first-passage rounds,
        plus the number of transient states solved.
    """
    operator = shared_cache().sparse_operator(params)
    solution = operator.solution()
    return solution.timeline, operator.num_states
