"""Micro-benchmarks: the hot paths behind every experiment.

Useful for catching performance regressions in the substrate (the
50 000-node sweeps multiply any slowdown here by thousands of steps).
"""

from repro import GossipConfig, aggregate
from repro.core.differential import push_counts
from repro.core.vector_gclr import true_vector_gclr
from repro.core.weights import WeightParams
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.utils.rng import as_generator


def test_micro_pa_generation(benchmark):
    graph = benchmark(preferential_attachment_graph, 2000, m=2, rng=23)
    assert graph.num_nodes == 2000


def test_micro_push_counts(benchmark, bench_graph):
    counts = benchmark(push_counts, bench_graph)
    assert int(counts.min()) >= 1


def test_micro_gossip_steps(benchmark, bench_graph, bench_values):
    """Fixed 50-step gossip burn: per-step engine cost, no stop protocol.

    Routed through ``repro.aggregate`` (the entry point every
    experiment uses) so the benchmark tracks the cost callers actually
    pay — backend dispatch included — instead of a hand-built engine.
    """
    config = GossipConfig(xi=1e-9, max_steps=50, run_to_max=True, rng=24)

    def run():
        return aggregate(bench_graph, bench_values, config, backend="sparse")

    outcome = benchmark(run)
    assert outcome.steps == 50


def test_micro_vector_gossip_wide_state(benchmark, bench_graph):
    """Gossip with a 32-column state matrix (variant-3/4 regime)."""
    n = bench_graph.num_nodes
    values = as_generator(25).random((n, 32))
    config = GossipConfig(xi=1e-9, max_steps=20, run_to_max=True, rng=26)

    def run():
        return aggregate(bench_graph, values, config, backend="sparse")

    outcome = benchmark(run)
    assert outcome.steps == 20


def test_micro_exact_gclr_fixpoint(benchmark, collusion_graph, collusion_trust):
    n = collusion_graph.num_nodes
    targets = list(range(0, n, 5))
    rep = benchmark(
        true_vector_gclr, collusion_graph, collusion_trust, targets, WeightParams()
    )
    assert rep.shape == (n, len(targets))
