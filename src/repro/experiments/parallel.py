"""Parallel experiment execution over a multiprocessing pool.

Every registry experiment is independent of the others, so
``python -m repro.experiments all --parallel N`` fans whole experiments
out over worker processes (:func:`iter_experiments`). Each experiment
derives its random streams from its own seed, never from which worker
runs it or in what order, so results are byte-identical to a serial
run, and they are yielded in input order regardless of completion
order.

Worker processes inherit ``REPRO_FULL_SCALE`` and the rest of the
environment from the parent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple


def default_processes() -> int:
    """Worker count used when callers pass ``processes=None``.

    Uses the CPUs actually *available* to this process (cgroup quota /
    affinity mask) where the platform exposes that, falling back to the
    raw CPU count — a 2-core container slice on a 64-core host gets 2
    workers, not 64.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        available = os.cpu_count() or 1
    return max(1, available)


def _run_registry_experiment(job: Tuple[str, Dict[str, Any]]) -> Any:
    """Pool target for :func:`iter_experiments` (registry lookup in-worker)."""
    from repro.experiments.registry import get_experiment

    experiment_id, kwargs = job
    return get_experiment(experiment_id)(**kwargs)


def iter_experiments(
    experiment_ids: Sequence[str],
    *,
    processes: Optional[int] = 1,
    seed: Optional[int] = None,
) -> Iterator[Any]:
    """Yield registry experiment results in input order as they complete.

    Streaming matters for long sweeps: with ``--full``, nine finished
    multi-hour experiments must not be discarded because a tenth raised.
    Consumers that print as they iterate keep every completed result;
    the exception from a failed experiment surfaces at its position.

    Parameters
    ----------
    experiment_ids:
        Registry keys (see ``repro.experiments.registry.available_experiments``).
    processes:
        Worker processes; ``1`` runs serially, ``None`` uses every
        available CPU.
    seed:
        Optional seed override forwarded to every experiment.

    Yields
    ------
    repro.experiments.runner.ExperimentResult
        One per id, in input order.
    """
    from repro.experiments.registry import get_experiment

    for experiment_id in experiment_ids:
        get_experiment(experiment_id)  # fail fast on unknown ids, before forking
    kwargs: Dict[str, Any] = {} if seed is None else {"seed": seed}
    jobs = [(experiment_id, kwargs) for experiment_id in experiment_ids]
    if processes is None:
        processes = default_processes()
    if processes < 1:
        raise ValueError(f"processes must be >= 1 (or None), got {processes}")
    if processes == 1 or len(jobs) <= 1:
        for job in jobs:
            yield _run_registry_experiment(job)
        return
    pool = ProcessPoolExecutor(max_workers=min(processes, len(jobs)))
    try:
        futures = [pool.submit(_run_registry_experiment, job) for job in jobs]
        for future in futures:
            yield future.result()
    except BaseException:
        # A failed experiment (or an abandoned consumer) must not sit
        # through hours of queued sweeps: drop everything not yet
        # started and surface immediately. Jobs already running in
        # workers finish on their own.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)

