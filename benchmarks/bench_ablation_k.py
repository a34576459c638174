"""Ablation — the differential push-count rule.

The k-rule is the paper's core mechanism (§4); this
ablation pins down that it is the *degree-adaptive* k (not just "push
more") that speeds hub-heavy graphs: differential vs fixed k=1 vs fixed
k=2 on the same world, same seeds.
"""

import numpy as np
import pytest

from repro.core.differential import fixed_push_counts
from repro.core.sparse_engine import SparseGossipEngine

XI = 1e-4


def _run(graph, values, counts):
    # counts=None is the differential rule (with its degree announcements).
    engine = SparseGossipEngine(graph, push_counts=counts, rng=21)
    return engine.run(values, np.ones(graph.num_nodes), xi=XI)


@pytest.mark.parametrize("rule", ["differential", "fixed_k1", "fixed_k2"])
def test_ablation_push_rule(benchmark, bench_graph, bench_values, rule):
    if rule == "differential":
        counts = None
    elif rule == "fixed_k1":
        counts = fixed_push_counts(bench_graph, 1)
    else:
        counts = fixed_push_counts(bench_graph, 2)

    outcome = benchmark(_run, bench_graph, bench_values, counts)
    benchmark.extra_info["rule"] = rule
    benchmark.extra_info["steps"] = outcome.steps
    benchmark.extra_info["push_messages"] = outcome.push_messages


def test_ablation_differential_beats_fixed_k1(benchmark, bench_graph, bench_values):
    def run():
        diff = _run(bench_graph, bench_values, None)
        k1 = _run(bench_graph, bench_values, fixed_push_counts(bench_graph, 1))
        return diff, k1

    diff, k1 = benchmark(run)
    assert diff.steps < k1.steps
    benchmark.extra_info["step_ratio"] = round(k1.steps / diff.steps, 3)
