"""Unit tests for the protocol-faithful message-level engine."""

import json

import numpy as np
import pytest

from repro.core.backend import GossipConfig, run_backend
from repro.core.engine import GossipNode, MessageLevelGossip, PushMessage
from repro.core.errors import ConvergenceError
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from tests.regen_message_digests import DIGEST_PATH, message_cases, outcome_digest, run_case


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

    def test_node_state_is_a_view_of_its_row(self):
        # The engine reads every node's state from one matrix, so a
        # node must split and absorb in place.
        state = np.array([[2.0, 1.0], [5.0, 5.0]])
        node = GossipNode(0, np.array([1]), 1, state[0, :1], state[0, 1:], {})
        self_share, _ = node.make_shares()
        assert state[0].tolist() == [0.0, 0.0]
        node.inbox.append(self_share)
        node.absorb_inbox()
        assert state[0].tolist() == [1.0, 0.5]

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


_PINNED = {case["id"]: case for case in json.loads(DIGEST_PATH.read_text())["cases"]}


class TestPinnedOutcomes:
    """Byte identity of the message engine across refactors (see the regen module)."""

    @pytest.mark.parametrize("case", message_cases(), ids=lambda case: case["id"])
    def test_outcome_matches_pinned_digest(self, case):
        outcome = run_case(case)
        pinned = _PINNED[case["id"]]
        assert outcome.steps == pinned["steps"]
        assert outcome_digest(outcome) == pinned["digest"]


class TestAgreesWithSparse:
    """Both synchronous engines run one stop rule and one accounting rule."""

    @pytest.mark.parametrize("backend", ["message", "sparse"])
    def test_isolated_nodes_report_converged(self, backend):
        graph = Graph(5, [(0, 1), (1, 2), (2, 0)])
        out = run_backend(
            graph, np.arange(5.0), np.ones(5), config=GossipConfig(rng=4, xi=1e-6), backend=backend
        )
        assert out.converged.tolist() == [True] * 5
        np.testing.assert_allclose(out.estimates[3:, 0], [3.0, 4.0])

    @pytest.mark.parametrize("backend", ["message", "sparse"])
    def test_convergence_error_leaves_isolated_nodes_out(self, backend):
        graph = Graph(5, [(0, 1), (1, 2), (2, 0)])
        config = GossipConfig(rng=4, xi=1e-12, max_steps=2)
        with pytest.raises(ConvergenceError) as excinfo:
            run_backend(graph, np.arange(5.0), np.ones(5), config=config, backend=backend)
        assert excinfo.value.unconverged == 3

    @pytest.mark.parametrize("backend", ["message", "sparse"])
    def test_degree_announcements_only_under_differential_rule(self, fig2_network, backend):
        degree_sum = int(fig2_network.degrees.sum())
        differential = run_backend(
            fig2_network, np.arange(10.0), np.ones(10),
            config=GossipConfig(rng=3, xi=1e-6), backend=backend,
        )
        k1 = run_backend(
            fig2_network, np.arange(10.0), np.ones(10),
            config=GossipConfig(k=1, rng=3, xi=1e-6), backend=backend,
        )
        # Every node announces convergence to each neighbour once; the
        # differential rule adds one degree announcement per edge end.
        assert differential.protocol_messages == 2 * degree_sum
        assert k1.protocol_messages == degree_sum
