"""Ablation — topology dependence of the differential advantage.

The differential rule only helps where degrees are skewed. Running the
same convergence experiment on PA (power-law), Erdős–Rényi (Poisson)
and random-regular (constant) overlays of equal mean degree shows the
differential/normal-push step gap collapsing as the degree distribution
flattens — evidence that the k-rule targets exactly the hub pathology
Chierichetti et al. identified.
"""

import numpy as np
import pytest

from repro.baselines.push_sum import normal_push_engine
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.network.random_graphs import erdos_renyi_graph, random_regular_graph
from repro.utils.rng import as_generator

N = 800
XI = 1e-4


def _make_overlay(kind: str):
    if kind == "pa":
        return preferential_attachment_graph(N, m=2, rng=27)
    if kind == "erdos_renyi":
        return erdos_renyi_graph(N, 4.0 / N, rng=27)
    return random_regular_graph(N, 4, rng=27)


@pytest.mark.parametrize("overlay", ["pa", "erdos_renyi", "regular"])
def test_ablation_overlay_step_gap(benchmark, overlay):
    graph = _make_overlay(overlay)
    values = as_generator(28).random(N)
    weights = np.ones(N)

    def run():
        diff = SparseGossipEngine(graph, rng=29).run(values, weights, xi=XI)
        push = normal_push_engine(graph, rng=29).run(values, weights, xi=XI)
        return diff, push

    diff, push = benchmark(run)
    gap = push.steps / diff.steps
    benchmark.extra_info["overlay"] = overlay
    benchmark.extra_info["diff_steps"] = diff.steps
    benchmark.extra_info["push_steps"] = push.steps
    benchmark.extra_info["step_gap"] = round(gap, 3)
    if overlay == "pa":
        # Hub-heavy: differential must win clearly.
        assert gap > 1.3
    if overlay == "regular":
        # Constant degrees: k_i == 1 everywhere, the two runs are the
        # same algorithm up to seeding noise.
        assert 0.6 < gap < 1.7
