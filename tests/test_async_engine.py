"""Unit tests for the asynchronous (event-driven) gossip engine."""

import hashlib

import numpy as np
import pytest

from repro.core.async_engine import AsyncGossipEngine
from repro.core.errors import ConvergenceError
from repro.network.conditions import LatencySpec, LinkModel, PartitionWindow
from repro.network.graph import Graph
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.network.random_graphs import regional_graph
from repro.network.topology_example import example_network


class TestAsyncGossip:
    def test_converges_to_mean(self):
        engine = AsyncGossipEngine(example_network(), rng=1)
        values = np.arange(10.0)
        out = engine.run(values, np.ones(10), xi=1e-6)
        assert out.converged
        assert np.allclose(out.estimates, 4.5, atol=1e-2)

    def test_mass_conserved(self):
        engine = AsyncGossipEngine(example_network(), rng=2)
        values = np.arange(10.0)
        out = engine.run(values, np.ones(10), xi=1e-5)
        assert float(out.values.sum()) == pytest.approx(45.0, rel=1e-9)
        assert float(out.weights.sum()) == pytest.approx(10.0, rel=1e-9)

    def test_works_on_pa_graph(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        values = np.random.default_rng(0).random(n)
        engine = AsyncGossipEngine(pa_graph_small, rng=3)
        out = engine.run(values, np.ones(n), xi=1e-6, quiet_window=4.0)
        assert np.allclose(out.estimates, values.mean(), atol=5e-2)

    def test_hubs_tick_faster(self, star5):
        # The hub's rate is its differential count (4); leaves tick at 1.
        engine = AsyncGossipEngine(star5, rng=4)
        out = engine.run(np.arange(5.0), np.ones(5), xi=1e-5)
        assert out.total_pushes > 0
        assert out.converged

    def test_time_budget_strict_raises(self):
        engine = AsyncGossipEngine(example_network(), rng=5)
        with pytest.raises(ConvergenceError):
            engine.run(np.arange(10.0), np.ones(10), xi=1e-12, max_time=2.0)

    def test_time_budget_lenient_returns_partial(self):
        engine = AsyncGossipEngine(example_network(), rng=6)
        out = engine.run(
            np.arange(10.0), np.ones(10), xi=1e-12, max_time=2.0, strict=False
        )
        assert not out.converged
        assert float(out.values.sum()) == pytest.approx(45.0, rel=1e-9)

    def test_isolated_node_untouched(self):
        g = Graph(3, [(0, 1)])
        engine = AsyncGossipEngine(g, rng=7)
        out = engine.run(np.array([2.0, 4.0, 9.0]), np.ones(3), xi=1e-6)
        assert out.estimates[2] == pytest.approx(9.0)
        assert np.allclose(out.estimates[:2], 3.0, atol=1e-2)

    def test_deterministic_from_seed(self):
        values = np.arange(10.0)
        a = AsyncGossipEngine(example_network(), rng=42).run(values, np.ones(10), xi=1e-5)
        b = AsyncGossipEngine(example_network(), rng=42).run(values, np.ones(10), xi=1e-5)
        assert a.total_pushes == b.total_pushes
        assert np.array_equal(a.values, b.values)

    def test_validation(self):
        engine = AsyncGossipEngine(example_network(), rng=8)
        with pytest.raises(ValueError):
            engine.run(np.ones(10), np.ones(10), xi=0.0)
        with pytest.raises(ValueError):
            AsyncGossipEngine(example_network(), push_counts=np.ones(3))

    def test_agrees_with_sync_engine_limit(self, pa_graph_small):
        from repro.core.sparse_engine import SparseGossipEngine

        n = pa_graph_small.num_nodes
        values = np.random.default_rng(1).random(n)
        sync = SparseGossipEngine(pa_graph_small, rng=9).run(values, np.ones(n), xi=1e-7)
        async_out = AsyncGossipEngine(pa_graph_small, rng=10).run(
            values, np.ones(n), xi=1e-6, quiet_window=4.0
        )
        assert np.allclose(
            sync.estimates.mean(), async_out.estimates.mean(), atol=1e-2
        )


def _fingerprint(out):
    return hashlib.sha256(out.values.tobytes() + out.weights.tobytes()).hexdigest()


class TestAsyncByteIdentity:
    """Pins the exact trajectory of the pre-refactor engine.

    The link-model refactor must not move a single byte on the trivial
    path: no link (or a ``LinkModel(0.0)``) consumes zero link
    randomness and delivers inline, so seeds, push counts, simulated
    time, and the final float64 state are all pinned to the values the
    engine produced before network conditions existed.
    """

    def test_example_network_trajectory_pinned(self):
        out = AsyncGossipEngine(example_network(), rng=42).run(
            np.arange(10.0), np.ones(10), xi=1e-5
        )
        assert out.total_pushes == 516
        assert round(out.simulated_time, 9) == 44.684169232
        assert _fingerprint(out) == (
            "29e6b22f5e14187dff9231ebf2bcda19e515111812e30739278707e0a351d1ed"
        )

    def test_pa_graph_trajectory_pinned(self):
        graph = preferential_attachment_graph(60, m=2, rng=7)
        values = np.random.default_rng(3).random(60)
        out = AsyncGossipEngine(graph, rng=11).run(
            values, np.ones(60), xi=1e-6, quiet_window=4.0
        )
        assert out.total_pushes == 8767
        assert round(out.simulated_time, 9) == 124.14387665
        assert _fingerprint(out) == (
            "9cdfbdd459b56f75308fd99eddd139696c8b45e7cf564f64cb02361cc4e3cb82"
        )

    def test_trivial_link_is_byte_identical_to_no_link(self):
        values = np.arange(10.0)
        bare = AsyncGossipEngine(example_network(), rng=42).run(
            values, np.ones(10), xi=1e-5
        )
        linked = AsyncGossipEngine(
            example_network(), rng=42, link=LinkModel(0.0), link_rng=123
        ).run(values, np.ones(10), xi=1e-5)
        assert linked.total_pushes == bare.total_pushes
        assert linked.simulated_time == bare.simulated_time
        assert np.array_equal(linked.values, bare.values)
        assert np.array_equal(linked.weights, bare.weights)


class TestAsyncLinkModels:
    def test_loss_counts_drops_and_conserves_mass(self):
        engine = AsyncGossipEngine(
            example_network(), rng=1, link=LinkModel(0.3), link_rng=2
        )
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        assert out.converged
        assert out.total_drops > 0
        assert out.partition_drops == 0
        assert float(out.values.sum()) == pytest.approx(45.0, rel=1e-12)
        assert float(out.weights.sum()) == pytest.approx(10.0, rel=1e-12)

    def test_latency_keeps_mass_in_flight(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        values = np.random.default_rng(5).random(n)
        link = LinkModel(latency=LatencySpec("exponential", 0.3))
        engine = AsyncGossipEngine(pa_graph_small, rng=6, link=link, link_rng=7)
        out = engine.run(values, np.ones(n), xi=1e-5, quiet_window=4.0, check_mass=True)
        assert out.converged
        assert out.max_in_flight > 0
        assert float(out.values.sum()) == pytest.approx(values.sum(), rel=1e-12)
        assert np.allclose(out.estimates, values.mean(), atol=5e-2)

    def test_partition_blocks_convergence_until_heal(self):
        graph = regional_graph(80, 2, intra_probability=0.2, inter_probability=0.05, rng=3)
        link = LinkModel(
            latency=LatencySpec("exponential", 0.05),
            regions=2,
            partitions=(PartitionWindow(start=2.0, duration=30.0),),
        )
        values = np.random.default_rng(4).random(80)
        engine = AsyncGossipEngine(graph, rng=8, link=link, link_rng=9)
        out = engine.run(
            values, np.ones(80), xi=1e-5, quiet_window=3.0,
            max_time=2000.0, check_mass=True,
        )
        assert out.converged
        assert out.partition_drops > 0
        # Quiet accrued while the islands were cut off must not count:
        # the run ends at least one quiet window after the heal at t=32,
        # and the post-heal remix brings every node to the global mean.
        assert out.simulated_time >= 32.0 + 3.0
        assert np.allclose(out.estimates, values.mean(), atol=1e-3)
        assert float(out.values.sum()) == pytest.approx(values.sum(), rel=1e-12)
