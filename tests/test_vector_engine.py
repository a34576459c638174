"""Unit tests for the vectorised gossip engine (:class:`SparseGossipEngine`)."""

import numpy as np
import pytest

from repro.core.differential import fixed_push_counts
from repro.core.errors import ConvergenceError
from repro.core.state import UNDEFINED_RATIO
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.churn import PacketLossModel
from repro.network.graph import Graph


class TestAveraging:
    def test_converges_to_mean(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=1)
        values = np.arange(10, dtype=float)
        out = engine.run(values, np.ones(10), xi=1e-8)
        assert np.allclose(out.estimates, 4.5, atol=1e-3)

    def test_converges_on_pa_graph(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        engine = SparseGossipEngine(pa_graph_medium, rng=2)
        values = np.random.default_rng(0).random(n)
        out = engine.run(values, np.ones(n), xi=1e-7)
        assert np.allclose(out.estimates, values.mean(), atol=1e-3)

    def test_sum_estimation_single_weight(self, fig2_network):
        # One node holds weight 1: ratios converge to the SUM of values.
        engine = SparseGossipEngine(fig2_network, rng=3)
        values = np.arange(10, dtype=float)
        weights = np.zeros(10)
        weights[0] = 1.0
        out = engine.run(values, weights, xi=1e-9)
        assert np.allclose(out.estimates, 45.0, atol=1e-3)

    def test_multi_component(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=4)
        values = np.column_stack([np.arange(10.0), np.ones(10)])
        out = engine.run(values, np.ones((10, 2)), xi=1e-8)
        assert np.allclose(out.estimates[:, 0], 4.5, atol=1e-3)
        assert np.allclose(out.estimates[:, 1], 1.0, atol=1e-3)

    def test_extras_ride_along(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=5)
        values = np.arange(10.0)
        counts = np.ones(10)
        out = engine.run(values, np.ones(10), xi=1e-8, extras={"count": counts})
        assert np.allclose(out.extra_estimates("count"), 1.0, atol=1e-3)

    def test_unknown_extra_name_raises(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=5)
        out = engine.run(np.ones(10), np.ones(10), xi=1e-4)
        with pytest.raises(KeyError):
            out.extra_estimates("nope")


class TestMassConservation:
    def test_value_and_weight_mass(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        engine = SparseGossipEngine(pa_graph_small, rng=6)
        values = np.random.default_rng(1).random(n)
        out = engine.run(values, np.ones(n), xi=1e-6)
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9)
        assert float(out.weights.sum()) == pytest.approx(n, rel=1e-9)

    def test_mass_conserved_under_loss(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        loss = PacketLossModel(0.3, rng=7)
        engine = SparseGossipEngine(pa_graph_small, loss_model=loss, rng=8)
        values = np.random.default_rng(2).random(n)
        out = engine.run(values, np.ones(n), xi=1e-6)
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9)
        assert loss.lost_count > 0


class TestProtocolBehaviour:
    def test_max_steps_raises(self, pa_graph_small):
        engine = SparseGossipEngine(pa_graph_small, rng=9)
        values = np.random.default_rng(3).random(pa_graph_small.num_nodes)
        with pytest.raises(ConvergenceError):
            engine.run(values, np.ones(pa_graph_small.num_nodes), xi=1e-12, max_steps=3)

    def test_run_to_max_fixed_steps(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=10)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-9, max_steps=25, run_to_max=True)
        assert out.steps == 25

    def test_track_history(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=11)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5, track_history=True)
        assert out.ratio_history is not None
        assert len(out.ratio_history) == out.steps
        assert out.ratio_history[0].shape == (10, 1)

    def test_zero_weight_component_stays_sentinel(self, fig2_network):
        # A dead column (no weight anywhere) must not block convergence.
        engine = SparseGossipEngine(fig2_network, rng=12)
        values = np.zeros((10, 2))
        values[:, 0] = np.arange(10.0)
        weights = np.zeros((10, 2))
        weights[:, 0] = 1.0
        out = engine.run(values, weights, xi=1e-6)
        assert np.all(out.estimates[:, 1] == UNDEFINED_RATIO)
        assert np.allclose(out.estimates[:, 0], 4.5, atol=1e-2)

    def test_all_nodes_converge_flag(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=13)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-6)
        assert out.converged.all()

    def test_isolated_node_does_not_block(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        engine = SparseGossipEngine(g, rng=14)
        out = engine.run(np.array([1.0, 2.0, 3.0, 9.0]), np.ones(4), xi=1e-8)
        # Node 3 keeps its own value; the triangle averages its own.
        assert out.estimates[3, 0] == pytest.approx(9.0)
        assert np.allclose(out.estimates[:3, 0], 2.0, atol=1e-3)


class TestMessageAccounting:
    def test_push_messages_positive(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=15)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        assert out.push_messages > 0
        assert out.total_messages == out.push_messages + out.protocol_messages

    def test_degree_announcements_counted_for_differential(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=16)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        assert out.protocol_messages >= int(fig2_network.degrees.sum())

    def test_no_degree_announcements_for_fixed_counts(self, fig2_network):
        engine = SparseGossipEngine(
            fig2_network, push_counts=fixed_push_counts(fig2_network, 1), rng=17
        )
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        # Only convergence announcements remain.
        assert out.protocol_messages < int(fig2_network.degrees.sum()) + 1

    def test_messages_per_node_per_step(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        engine = SparseGossipEngine(pa_graph_small, rng=18)
        out = engine.run(np.random.default_rng(4).random(n), np.ones(n), xi=1e-4)
        assert 1.0 < out.messages_per_node_per_step < 2.5
        assert out.messages_per_node_per_wallclock_step <= out.messages_per_node_per_step


class TestValidation:
    def test_rejects_wrong_shapes(self, triangle):
        engine = SparseGossipEngine(triangle, rng=0)
        with pytest.raises(ValueError):
            engine.run(np.ones(4), np.ones(3))
        with pytest.raises(ValueError):
            engine.run(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            engine.run(np.ones(3), np.ones(3), extras={"x": np.ones(4)})

    def test_rejects_reserved_extra_name(self, triangle):
        engine = SparseGossipEngine(triangle, rng=0)
        with pytest.raises(ValueError, match="reserved"):
            engine.run(np.ones(3), np.ones(3), extras={"value": np.ones(3)})

    def test_rejects_push_counts_above_degree(self, triangle):
        with pytest.raises(ValueError):
            SparseGossipEngine(triangle, push_counts=np.array([3, 1, 1]))

    def test_rejects_zero_push_counts(self, triangle):
        with pytest.raises(ValueError):
            SparseGossipEngine(triangle, push_counts=np.array([0, 1, 1]))

    def test_inputs_not_mutated(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=19)
        values = np.arange(10.0)
        weights = np.ones(10)
        snapshot = values.copy()
        engine.run(values, weights, xi=1e-4)
        assert np.array_equal(values, snapshot)


class TestDeterminism:
    def test_same_seed_same_outcome(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        values = np.random.default_rng(5).random(n)
        a = SparseGossipEngine(pa_graph_small, rng=42).run(values, np.ones(n), xi=1e-5)
        b = SparseGossipEngine(pa_graph_small, rng=42).run(values, np.ones(n), xi=1e-5)
        assert a.steps == b.steps
        assert np.array_equal(a.estimates, b.estimates)

    def test_different_seeds_different_paths(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        values = np.random.default_rng(5).random(n)
        a = SparseGossipEngine(pa_graph_small, rng=1).run(values, np.ones(n), xi=1e-5)
        b = SparseGossipEngine(pa_graph_small, rng=2).run(values, np.ones(n), xi=1e-5)
        assert not np.array_equal(a.estimates, b.estimates)
