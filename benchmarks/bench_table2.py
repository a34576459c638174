"""Benchmark E2 — Table 2: messages per node per step.

One differential-gossip round per invocation; the Table-2 metric lands
in ``extra_info`` so `--benchmark-only` output doubles as the table row.
The paper's band is ~1.1-1.25, decreasing with N and with tighter xi.
"""

import numpy as np
import pytest

from repro.core.sparse_engine import SparseGossipEngine


@pytest.mark.parametrize("xi", [1e-2, 1e-4])
def test_table2_messages_per_node_per_step(benchmark, bench_graph, bench_values, xi):
    n = bench_graph.num_nodes

    def run():
        engine = SparseGossipEngine(bench_graph, rng=11)
        return engine.run(bench_values, np.ones(n), xi=xi)

    outcome = benchmark(run)
    metric = outcome.messages_per_node_per_step
    assert 1.0 < metric < 2.0  # the paper's qualitative band
    benchmark.extra_info["messages_per_node_per_step"] = round(metric, 4)
    benchmark.extra_info["steps"] = outcome.steps
    benchmark.extra_info["xi"] = xi
