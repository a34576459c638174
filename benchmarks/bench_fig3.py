"""Benchmark E3 — Figure 3: differential vs normal push convergence.

Two benchmarks on the same 1000-node PA world; the paper's claim is the
*step* gap (differential converges in far fewer steps while total
message cost stays competitive). Steps and messages go to
``extra_info``; the assertion locks in the winner.
"""

import numpy as np

from repro.baselines.push_sum import normal_push_engine
from repro.core.sparse_engine import SparseGossipEngine

XI = 1e-4


def test_fig3_differential_push(benchmark, bench_graph, bench_values):
    n = bench_graph.num_nodes

    def run():
        return SparseGossipEngine(bench_graph, rng=12).run(
            bench_values, np.ones(n), xi=XI
        )

    outcome = benchmark(run)
    benchmark.extra_info["steps"] = outcome.steps
    benchmark.extra_info["push_messages"] = outcome.push_messages


def test_fig3_normal_push_baseline(benchmark, bench_graph, bench_values):
    n = bench_graph.num_nodes

    def run():
        return normal_push_engine(bench_graph, rng=12).run(
            bench_values, np.ones(n), xi=XI
        )

    outcome = benchmark(run)
    benchmark.extra_info["steps"] = outcome.steps
    benchmark.extra_info["push_messages"] = outcome.push_messages


def test_fig3_differential_wins_steps(benchmark, bench_graph, bench_values):
    """The headline comparison as one measurement: steps ratio > 1."""
    n = bench_graph.num_nodes

    def run():
        diff = SparseGossipEngine(bench_graph, rng=13).run(bench_values, np.ones(n), xi=XI)
        push = normal_push_engine(bench_graph, rng=13).run(bench_values, np.ones(n), xi=XI)
        return diff, push

    diff, push = benchmark(run)
    assert diff.steps < push.steps  # the paper's Figure-3 ordering
    benchmark.extra_info["step_ratio_push_over_diff"] = round(push.steps / diff.steps, 3)
