"""Benchmark: gossip convergence under simulated network conditions.

Two seeded sweeps through the event-driven engine, recorded in
``BENCH_netsim.json``:

1. **Latency sweep** — one preferential-attachment graph, one
   :class:`~repro.network.conditions.LinkModel` whose exponential
   per-push delay mean grows from 0 (instant) upward. Reports simulated
   convergence time, push count, peak in-flight pairs, and final
   estimate error: latency stretches simulated time and keeps mass in
   the air, but mass conservation holds at every event, so accuracy
   should not degrade.

2. **Partition sweep** — one regional graph under a two-region
   :class:`~repro.network.conditions.LinkModel` with a single
   :class:`~repro.network.conditions.PartitionWindow` of growing
   duration. The engine refuses to declare convergence before the
   window heals (the link's ``quiet_horizon``), so the headline
   ``recovery_time`` — simulated time from heal to global xi-quiet —
   isolates how quickly the re-joined islands mix back together.

Usage::

    PYTHONPATH=src python benchmarks/bench_netsim.py [--small] \
        [--out BENCH_netsim.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core.async_engine import AsyncGossipEngine
from repro.network.conditions import LatencySpec, LinkModel, PartitionWindow
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.network.random_graphs import regional_graph
from repro.utils.hardware import host_metadata


def _run_once(graph, link, *, seed: int, xi: float, quiet_window: float,
              max_time: float) -> Dict[str, object]:
    """One engine run; returns its JSON-friendly summary."""
    n = graph.num_nodes
    opinions = np.random.default_rng(seed + 1).random(n)
    engine = AsyncGossipEngine(graph, rng=seed, link=link, link_rng=seed + 2)
    start = time.perf_counter()
    outcome = engine.run(
        opinions, np.ones(n), xi=xi, quiet_window=quiet_window,
        max_time=max_time, check_mass=True,
    )
    elapsed = time.perf_counter() - start
    estimates = outcome.values / outcome.weights
    true_mean = float(opinions.mean())
    return {
        "converged": outcome.converged,
        "simulated_time": round(outcome.simulated_time, 6),
        "total_pushes": outcome.total_pushes,
        "total_drops": outcome.total_drops,
        "partition_drops": outcome.partition_drops,
        "max_in_flight": outcome.max_in_flight,
        "flushed_in_flight": outcome.flushed_in_flight,
        "max_abs_error": float(np.abs(estimates - true_mean).max()),
        "elapsed_seconds": round(elapsed, 3),
    }


def sweep_latency(n: int, *, means: Sequence[float], seed: int,
                  xi: float) -> List[Dict[str, object]]:
    """Same graph and seeds, growing exponential per-push delay."""
    graph = preferential_attachment_graph(n, m=2, rng=seed)
    rows = []
    for mean in means:
        link = LinkModel(latency=LatencySpec("exponential", mean))
        row = _run_once(
            graph, link, seed=seed + 10, xi=xi,
            quiet_window=3.0 + 4.0 * mean, max_time=5_000.0 * (1.0 + mean),
        )
        row["latency_mean"] = mean
        rows.append(row)
    return rows


def sweep_partition(n: int, *, durations: Sequence[float], start: float,
                    seed: int, xi: float) -> List[Dict[str, object]]:
    """Same regional graph and seeds, growing partition duration."""
    graph = regional_graph(
        n, 2, intra_probability=min(1.0, 30.0 / n), inter_probability=min(1.0, 4.0 / n),
        rng=seed,
    )
    latency = LatencySpec("exponential", 0.05)
    rows = []
    for duration in durations:
        partitions = (PartitionWindow(start=start, duration=duration),) if duration else ()
        link = LinkModel(
            latency=latency, regions=2, inter_latency=LatencySpec("exponential", 0.2),
            partitions=partitions,
        )
        row = _run_once(graph, link, seed=seed + 20, xi=xi,
                        quiet_window=4.0, max_time=2_000.0)
        heal = start + duration if duration else 0.0
        row["partition_duration"] = duration
        row["recovery_time"] = round(max(0.0, row["simulated_time"] - heal), 6)
        rows.append(row)
    return rows


def run_benchmark(*, latency_n: int, partition_n: int, seed: int,
                  xi: float) -> Dict[str, object]:
    latency_rows = sweep_latency(
        latency_n, means=[0.0, 0.05, 0.2, 0.5, 1.0], seed=seed, xi=xi
    )
    partition_rows = sweep_partition(
        partition_n, durations=[0.0, 10.0, 25.0, 50.0], start=10.0,
        seed=seed, xi=xi,
    )
    if not all(r["converged"] for r in latency_rows + partition_rows):
        raise AssertionError("a sweep point hit max_time; raise the budget")
    return {
        "benchmark": "netsim",
        "seed": seed,
        "xi": xi,
        "latency_sweep": {"n": latency_n, "m": 2, "rows": latency_rows},
        "partition_sweep": {
            "n": partition_n,
            "num_regions": 2,
            "partition_start": 10.0,
            "rows": partition_rows,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-n", type=int, default=800)
    parser.add_argument("--partition-n", type=int, default=600)
    parser.add_argument("--xi", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--small", action="store_true",
        help="CI-sized run: shrinks both sweeps to a few hundred nodes",
    )
    parser.add_argument("--out", default="BENCH_netsim.json")
    args = parser.parse_args(argv)

    latency_n = 200 if args.small else args.latency_n
    partition_n = 150 if args.small else args.partition_n
    record = run_benchmark(
        latency_n=latency_n, partition_n=partition_n, seed=args.seed, xi=args.xi
    )
    record.update(host_metadata())
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for row in record["latency_sweep"]["rows"]:
        print(
            f"latency mean={row['latency_mean']:<5} t={row['simulated_time']:>10.3f} "
            f"pushes={row['total_pushes']:>7} in-flight<= {row['max_in_flight']:>3} "
            f"err={row['max_abs_error']:.2e}"
        )
    for row in record["partition_sweep"]["rows"]:
        print(
            f"partition d={row['partition_duration']:<5} t={row['simulated_time']:>10.3f} "
            f"recovery={row['recovery_time']:>8.3f} part_drops={row['partition_drops']:>5} "
            f"err={row['max_abs_error']:.2e}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
