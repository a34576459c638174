"""Benchmark E4 — Figure 4: convergence under packet loss / churn.

Lossless vs 30%-loss rounds on the same world. The paper's shape: a
small step increase, graceful degradation, exact mass conservation.
"""

import numpy as np
import pytest

from repro.core.sparse_engine import SparseGossipEngine
from repro.network.conditions import PacketLossModel

XI = 1e-4


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
def test_fig4_gossip_under_packet_loss(benchmark, bench_graph, bench_values, loss):
    n = bench_graph.num_nodes

    def run():
        loss_model = PacketLossModel(loss, rng=14) if loss else None
        engine = SparseGossipEngine(bench_graph, loss_model=loss_model, rng=15)
        return engine.run(bench_values, np.ones(n), xi=XI)

    outcome = benchmark(run)
    # Mass conservation survives churn (the Figure-4 premise).
    assert float(outcome.values.sum()) == pytest.approx(float(bench_values.sum()), rel=1e-9)
    benchmark.extra_info["loss"] = loss
    benchmark.extra_info["steps"] = outcome.steps
