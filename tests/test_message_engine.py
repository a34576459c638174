"""Unit tests for the protocol-faithful message-level engine."""

import numpy as np
import pytest

from repro.core.engine import GossipNode, MessageLevelGossip, PushMessage
from repro.core.errors import ConvergenceError
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph


class TestGossipNode:
    def _node(self, value=2.0, weight=1.0, k=1):
        return GossipNode(
            0,
            np.array([1, 2]),
            k,
            np.array([value]),
            np.array([weight]),
            {},
        )

    def test_make_shares_splits_evenly(self):
        node = self._node(value=3.0, weight=1.5, k=2)
        self_share, out_share = node.make_shares()
        assert self_share.value[0] == pytest.approx(1.0)
        assert out_share.weight[0] == pytest.approx(0.5)
        # Local state emptied; self-share returns via the mailbox.
        assert node.value[0] == 0.0

    def test_absorb_inbox_sums(self):
        node = self._node(value=0.0, weight=0.0)
        node.inbox.append(PushMessage(0, np.array([1.0]), np.array([0.5])))
        node.inbox.append(PushMessage(5, np.array([2.0]), np.array([0.5])))
        heard = node.absorb_inbox()
        assert heard  # sender 5 != self
        assert node.value[0] == 3.0
        assert node.weight[0] == 1.0

    def test_absorb_only_self_not_external(self):
        node = self._node()
        node.inbox.append(PushMessage(0, np.array([1.0]), np.array([1.0])))
        assert not node.absorb_inbox()

    def test_convergence_requires_patience(self):
        node = self._node()
        live = np.array([True])
        assert not node.check_convergence(0.1, True, live, patience=2)
        assert node.check_convergence(0.1, True, live, patience=2)
        assert node.converged

    def test_zero_weight_cannot_converge(self):
        node = self._node(value=0.0, weight=0.0)
        assert not node.check_convergence(0.1, True, np.array([True]), patience=1)

    def test_stop_needs_all_neighbors(self):
        node = self._node()
        node.converged = True
        node.refresh_stopped()
        assert not node.stopped
        node.note_neighbor_converged(1)
        node.note_neighbor_converged(2)
        node.refresh_stopped()
        assert node.stopped


class TestMessageLevelGossip:
    def test_average_on_example_network(self, fig2_network):
        engine = MessageLevelGossip(fig2_network, rng=1)
        values = np.arange(10.0)
        out = engine.run(values, np.ones(10), xi=1e-8)
        assert np.allclose(out.estimates, 4.5, atol=1e-3)

    def test_mass_conserved(self, fig2_network):
        engine = MessageLevelGossip(fig2_network, rng=2)
        values = np.arange(10.0)
        out = engine.run(values, np.ones(10), xi=1e-6)
        assert float(out.values.sum()) == pytest.approx(45.0, rel=1e-9)
        assert float(out.weights.sum()) == pytest.approx(10.0, rel=1e-9)

    def test_extras_supported(self, fig2_network):
        engine = MessageLevelGossip(fig2_network, rng=3)
        out = engine.run(
            np.arange(10.0), np.ones(10), xi=1e-7, extras={"count": np.ones(10)}
        )
        assert np.allclose(out.extra_estimates("count"), 1.0, atol=1e-2)

    def test_history_tracks_each_step(self, fig2_network):
        engine = MessageLevelGossip(fig2_network, rng=4)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-4, track_history=True)
        assert len(out.ratio_history) == out.steps

    def test_max_steps_raises(self, fig2_network):
        engine = MessageLevelGossip(fig2_network, rng=5)
        with pytest.raises(ConvergenceError):
            engine.run(np.arange(10.0), np.ones(10), xi=1e-12, max_steps=2)

    def test_packet_loss_still_converges(self, fig2_network):
        loss = PacketLossModel(0.2, rng=6)
        engine = MessageLevelGossip(fig2_network, loss_model=loss, rng=7)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-7)
        assert np.allclose(out.estimates, 4.5, atol=1e-2)
        assert float(out.values.sum()) == pytest.approx(45.0, rel=1e-9)

    def test_message_accounting(self, fig2_network):
        engine = MessageLevelGossip(fig2_network, rng=8)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        assert out.push_messages > 0
        assert out.protocol_messages >= int(fig2_network.degrees.sum())
        assert out.active_node_steps > 0

    def test_isolated_node(self):
        g = Graph(3, [(0, 1)])
        engine = MessageLevelGossip(g, rng=9)
        out = engine.run(np.array([1.0, 3.0, 7.0]), np.ones(3), xi=1e-8)
        assert out.estimates[2, 0] == pytest.approx(7.0)
        assert np.allclose(out.estimates[:2, 0], 2.0, atol=1e-3)

    def test_shape_validation(self, triangle):
        engine = MessageLevelGossip(triangle, rng=0)
        with pytest.raises(ValueError):
            engine.run(np.ones(4), np.ones(3))
        with pytest.raises(ValueError):
            engine.run(np.ones(3), np.ones(3), extras={"x": np.ones(4)})

    def test_rejects_wrong_push_counts_shape(self, triangle):
        with pytest.raises(ValueError):
            MessageLevelGossip(triangle, push_counts=np.array([1, 1]))
