"""Host-capability probes that stamp benchmark artifacts.

A timing record must say how many CPUs the process could *actually
use* — a container pinned to one core of a 64-core host should report
itself as a 1-core machine. Python grew
``os.process_cpu_count`` for exactly this in 3.13; this module provides
the same semantics across the versions the repo supports.
"""

from __future__ import annotations

import os


def usable_cpu_count() -> int:
    """CPUs usable by this process (affinity/cgroup-aware), at least 1.

    Resolution order:

    1. ``os.process_cpu_count()`` (Python 3.13+) — affinity-aware by
       definition;
    2. ``len(os.sched_getaffinity(0))`` — the affinity mask on Linux;
    3. ``os.cpu_count()`` — raw host count, the last resort.

    Examples
    --------
    >>> usable_cpu_count() >= 1
    True
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return max(1, int(count))
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def host_metadata(*, required_workers: int = 2) -> dict:
    """The host stamp every benchmark artifact carries.

    Timing numbers are meaningless without knowing what they ran on:
    ``host_cpus`` is the affinity-aware usable count, and
    ``parallelism_expressible`` records whether the host could actually
    run ``required_workers`` concurrently — on a single-core CI runner a
    multi-worker comparison measures orchestration overhead, not
    speedup, and downstream readers must be able to tell.

    Examples
    --------
    >>> meta = host_metadata()
    >>> meta["host_cpus"] >= 1 and isinstance(meta["parallelism_expressible"], bool)
    True
    """
    cpus = usable_cpu_count()
    return {
        "host_cpus": cpus,
        "parallelism_expressible": cpus >= max(1, int(required_workers)),
    }
