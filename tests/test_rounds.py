"""Unit tests for the multi-round gossip manager."""

import pytest

from repro.core.backend import GossipConfig
from repro.core.rounds import GossipRoundManager
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.trust.matrix import random_trust_matrix


@pytest.fixture
def world():
    graph = preferential_attachment_graph(40, m=2, rng=0)
    trust = random_trust_matrix(graph, rng=1)
    return graph, trust


def config(rng, **knobs):
    """The manager's round knobs: its default xi, seeded."""
    return GossipConfig(xi=1e-5, rng=rng, **knobs)


class TestDeltaRepush:
    def test_first_round_pushes_everything(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, config=config(2))
        record = manager.run_round(trust, targets=[0, 1])
        assert record.changed_opinions == record.total_opinions
        assert record.churn_fraction == 1.0

    def test_unchanged_opinions_not_repushed(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, config=config(3))
        manager.run_round(trust, targets=[0])
        record = manager.run_round(trust, targets=[0])  # identical snapshot
        assert record.changed_opinions == 0

    def test_only_material_changes_repush(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, config=config(4, delta=0.05))
        manager.run_round(trust, targets=[0])
        # One small move (below delta), one large move (above delta).
        items = list(trust.items())
        (obs_a, tgt_a, val_a), (obs_b, tgt_b, val_b) = items[0], items[1]
        trust.set(obs_a, tgt_a, min(1.0, val_a + 0.01))
        trust.set(obs_b, tgt_b, min(1.0, val_b + 0.5) if val_b < 0.5 else max(0.0, val_b - 0.5))
        record = manager.run_round(trust, targets=[0])
        assert record.changed_opinions == 1

    def test_pending_announcements_preview(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, config=config(5))
        assert manager.pending_announcements(trust) == trust.num_observations
        manager.run_round(trust, targets=[0])
        assert manager.pending_announcements(trust) == 0


class TestAdaptiveGap:
    def test_quiet_network_long_gap(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, base_gap=25.0, max_gap=100.0, config=config(6))
        manager.run_round(trust, targets=[0])
        record = manager.run_round(trust, targets=[0])  # zero churn
        assert record.next_gap == 100.0  # clamped at max

    def test_churning_network_short_gap(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, base_gap=25.0, min_gap=5.0, config=config(7))
        record = manager.run_round(trust, targets=[0])  # 100% churn
        assert record.next_gap == 5.0  # clamped at min

    def test_constant_mode(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, adaptive=False, base_gap=25.0, config=config(8))
        record = manager.run_round(trust, targets=[0])
        assert record.next_gap == 25.0

    def test_clock_advances_by_gap(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, adaptive=False, base_gap=25.0, config=config(9))
        manager.run_round(trust, targets=[0])
        assert manager.clock == 25.0
        manager.run_round(trust, targets=[0])
        assert manager.clock == 50.0

    def test_history_recorded(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, config=config(10))
        manager.run_round(trust, targets=[0])
        manager.run_round(trust, targets=[0])
        assert len(manager.history) == 2
        assert manager.history[0].started_at == 0.0


class TestValidation:
    def test_bad_parameters(self, world):
        graph, _ = world
        with pytest.raises(ValueError):
            GossipRoundManager(graph, config=GossipConfig(delta=-1.0))
        with pytest.raises(ValueError):
            GossipRoundManager(graph, base_gap=0.0)
        with pytest.raises(ValueError):
            GossipRoundManager(graph, min_gap=50.0, base_gap=25.0, max_gap=100.0)

    def test_round_results_are_aggregations(self, world):
        graph, trust = world
        manager = GossipRoundManager(graph, config=config(11))
        record = manager.run_round(trust, targets=[3, 7])
        assert record.result.reputations.shape == (40, 2)
        assert record.result.max_absolute_error < 0.05
