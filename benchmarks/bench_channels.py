"""Benchmark: V reputation channels in one pass vs V sequential rounds.

Multi-channel gossip packs V channels into extra state *columns*: one
sampling draw and one scatter-add per step serve every channel, where V
sequential single-channel rounds each pay the full per-step sampling
cost. This benchmark measures that amortization directly — a single
``num_channels = V`` run against V back-to-back ``V = 1`` runs over the
same graph, seed and fixed step budget.

Methodology matches ``bench_sharded.py``: container wall-clock is
non-stationary, so every contender runs SHORT and LONG fixed budgets
back-to-back, contenders interleave round-robin within each repetition,
per-step cost is the *marginal* ``(long - short) / (steps delta)`` of
each pair, and the headline speedup is the median of per-repetition
ratios. The stacked run's per-channel estimates are cross-checked
against the sequential runs (same seed, same channel-oblivious sampling
stream → identical trajectories), so a speedup obtained by computing
the wrong thing fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/bench_channels.py \
        [--n 100000] [--m 8] [--channels 4] [--steps 13] \
        [--short-steps 3] [--pairs 4] [--engines sparse ...] \
        [--out BENCH_channels.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.core.kernels import available_kernels
from repro.core.sharded_engine import ShardedGossipEngine
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.preferential_attachment import preferential_attachment_graph_fast
from repro.utils.hardware import host_metadata, usable_cpu_count

#: Acceptance bar: one V=4 pass vs 4 sequential V=1 runs on the sparse
#: engine at N=100k.
TARGET_SPEEDUP = 2.0


def _make_engine(engine: str, graph, seed: int):
    if engine == "sparse":
        return SparseGossipEngine(graph, rng=seed)
    if engine == "sharded":
        return ShardedGossipEngine(graph, rng=seed, executor="inline")
    raise ValueError(f"unknown engine {engine!r}")


def _run_stacked(engine: str, graph, seed: int, values, weights, steps: int):
    """One multi-channel pass over the (N, V) stacked state."""
    worker = _make_engine(engine, graph, seed)
    outcome = worker.run(
        values,
        weights,
        xi=1e-12,
        max_steps=steps,
        run_to_max=True,
        num_channels=values.shape[1],
    )
    return [outcome.channel_estimates(c) for c in range(values.shape[1])]


def _run_sequential(engine: str, graph, seed: int, values, weights, steps: int):
    """V back-to-back single-channel runs, one per column, same seed."""
    estimates = []
    for c in range(values.shape[1]):
        worker = _make_engine(engine, graph, seed)
        outcome = worker.run(
            np.ascontiguousarray(values[:, c : c + 1]),
            np.ascontiguousarray(weights[:, c : c + 1]),
            xi=1e-12,
            max_steps=steps,
            run_to_max=True,
        )
        estimates.append(outcome.estimates)
    return estimates


def _paired_marginals(
    contenders: Dict[str, Callable[[int], List[np.ndarray]]],
    *,
    steps: int,
    short_steps: int,
    pairs: int,
) -> Dict[str, Dict[str, object]]:
    """Median marginal per-step seconds per contender, interleaved."""
    if short_steps >= steps:
        raise ValueError(f"short_steps ({short_steps}) must be < steps ({steps})")
    marginals: Dict[str, List[float]] = {name: [] for name in contenders}
    results: Dict[str, Dict[str, object]] = {}
    for repetition in range(pairs):
        for name, run in contenders.items():
            start = time.perf_counter()
            run(short_steps)
            short_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            estimates = run(steps)
            long_elapsed = time.perf_counter() - start
            marginal = max(long_elapsed - short_elapsed, 1e-9) / (steps - short_steps)
            marginals[name].append(marginal)
            if repetition == pairs - 1:
                results[name] = {
                    "long_steps": steps,
                    "short_steps": short_steps,
                    "pairs": pairs,
                    "marginal_step_seconds": [round(m, 7) for m in marginals[name]],
                    "median_step_seconds": round(statistics.median(marginals[name]), 5),
                    "steps_per_second": round(
                        1.0 / statistics.median(marginals[name]), 4
                    ),
                    "_estimates": estimates,  # consumed by the cross-check
                }
    for name in results:
        print(
            f"  {name:22s} median {results[name]['median_step_seconds']*1e3:8.1f} ms/step "
            f"({results[name]['steps_per_second']:.2f} steps/s marginal)"
        )
    return results


def _median_ratio(baseline, contender) -> float:
    pairs = zip(baseline["marginal_step_seconds"], contender["marginal_step_seconds"])
    return round(statistics.median(base / max(cont, 1e-9) for base, cont in pairs), 4)


def run_channel_benchmark(
    n: int = 100_000,
    *,
    m: int = 2,
    num_channels: int = 4,
    steps: int = 13,
    short_steps: int = 3,
    pairs: int = 4,
    engines: List[str] = None,
    seed: int = 2016,
) -> Dict[str, object]:
    """Stacked-vs-sequential grid; returns the JSON record."""
    engines = engines or ["sparse"]
    build_start = time.perf_counter()
    graph = preferential_attachment_graph_fast(n, m=m, rng=seed)
    build_seconds = time.perf_counter() - build_start
    print(
        f"graph: N={graph.num_nodes} E={graph.num_edges} m={m} "
        f"V={num_channels} (built in {build_seconds:.1f}s)"
    )
    values = np.random.default_rng(seed + 1).random((n, num_channels))
    weights = np.ones((n, num_channels))

    grids: Dict[str, object] = {}
    for engine in engines:
        contenders: Dict[str, Callable[[int], List[np.ndarray]]] = {
            f"{engine}/V{num_channels}-stacked": (
                lambda s, engine=engine: _run_stacked(
                    engine, graph, seed + 2, values, weights, s
                )
            ),
            f"{engine}/V1-sequential-x{num_channels}": (
                lambda s, engine=engine: _run_sequential(
                    engine, graph, seed + 2, values, weights, s
                )
            ),
        }
        print(f"{engine}: {', '.join(contenders)}")
        results = _paired_marginals(
            contenders, steps=steps, short_steps=short_steps, pairs=pairs
        )

        # Cross-check: same seed → the channel-oblivious sampling stream is
        # identical, so channel c of the stacked run must reproduce the
        # c-th sequential run.
        stacked_key = f"{engine}/V{num_channels}-stacked"
        sequential_key = f"{engine}/V1-sequential-x{num_channels}"
        stacked = results[stacked_key].pop("_estimates")
        sequential = results[sequential_key].pop("_estimates")
        agreement = max(
            float(np.abs(s.reshape(-1) - q.reshape(-1)).max())
            for s, q in zip(stacked, sequential)
        )
        if agreement > 1e-9:
            raise AssertionError(
                f"{engine}: stacked channels diverge from sequential runs "
                f"(max abs diff {agreement:.3g}) — an engine is computing "
                "the wrong thing"
            )
        speedup = _median_ratio(results[sequential_key], results[stacked_key])
        grids[engine] = {
            "engine": engine,
            "contenders": results,
            "stacked_vs_sequential": speedup,
            "channel_agreement_max_abs_diff": agreement,
            "target_speedup": TARGET_SPEEDUP,
            "target_met": bool(speedup >= TARGET_SPEEDUP),
        }
        if speedup < TARGET_SPEEDUP:
            grids[engine]["note"] = (
                f"{speedup}x on this container (host_cpus={usable_cpu_count()}): "
                "stacking only eliminates the V-1 redundant sampling passes; the "
                "scatter-add and ratio updates scale with V either way, and at "
                f"N={n} on this host they dominate the step, capping the "
                "amortization below the 2x target (small-N grids, where "
                "sampling dominates, show 3-5x)."
            )
        print(
            f"  {engine}: V={num_channels} stacked {speedup}x sequential "
            f"(target {TARGET_SPEEDUP}x); channels agree to {agreement:.1e}"
        )

    record: Dict[str, object] = {
        "benchmark": "multi_channel",
        "n": n,
        "m": m,
        "num_edges": graph.num_edges,
        "num_channels": num_channels,
        "steps": steps,
        "short_steps": short_steps,
        "pairs": pairs,
        "seed": seed,
        "graph_build_seconds": round(build_seconds, 2),
        **host_metadata(),
        "available_kernels": list(available_kernels()),
        "methodology": (
            "paired marginal differencing: per repetition each contender runs "
            "SHORT then LONG fixed budgets (the sequential contender runs "
            "V separate rounds per budget), marginal = (long-short)/(steps "
            "delta); the headline is the median of per-repetition ratios "
            "(robust to the non-stationary container clock)"
        ),
        "grids": grids,
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--channels", type=int, default=4)
    parser.add_argument("--steps", type=int, default=13)
    parser.add_argument("--short-steps", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument(
        "--engines",
        nargs="+",
        default=["sparse"],
        choices=["sparse", "sharded"],
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--out", default="BENCH_channels.json")
    args = parser.parse_args(argv)

    record = run_channel_benchmark(
        args.n,
        m=args.m,
        num_channels=args.channels,
        steps=args.steps,
        short_steps=args.short_steps,
        pairs=args.pairs,
        engines=args.engines,
        seed=args.seed,
    )
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
