"""Unit tests for all comparison baselines."""

import numpy as np
import pytest

from repro.baselines.eigentrust import eigentrust_fixpoint
from repro.baselines.flooding import flood_spread
from repro.baselines.gossip_trust import gossip_trust_fixpoint, unweighted_global_estimate
from repro.baselines.push_pull import push_pull_average
from repro.core.backend import GossipConfig
from repro.facade import aggregate
from repro.trust.matrix import TrustMatrix


class TestPushSum:
    """Normal push gossip: differential gossip with ``k = 1`` at every node."""

    def test_converges_to_mean(self, pa_graph_small):
        values = np.arange(60.0)
        out = aggregate(pa_graph_small, values, GossipConfig(xi=1e-7, rng=1, k=1))
        assert np.allclose(out.estimates, values.mean(), atol=1e-2)

    def test_engine_pushes_once_per_step(self, pa_graph_small):
        out = aggregate(
            pa_graph_small, np.ones(60), GossipConfig(xi=1e-3, rng=2, k=1), backend="sparse"
        )
        # Every active node sends exactly one push per step.
        assert out.push_messages == out.active_node_steps > 0

    def test_no_degree_announcement_overhead(self, pa_graph_small):
        # Pinned to the vectorised engine: the message engine also counts
        # its per-node stop announcements, which is not what this measures.
        out = aggregate(
            pa_graph_small, np.ones(60), GossipConfig(xi=1e-3, rng=3, k=1), backend="sparse"
        )
        # Normal push needs no degree exchange; protocol messages are
        # only the convergence announcements.
        assert out.protocol_messages <= int(pa_graph_small.degrees.sum())

    def test_mass_conserved(self, pa_graph_small):
        values = np.random.default_rng(0).random(60)
        out = aggregate(pa_graph_small, values, GossipConfig(xi=1e-5, rng=4, k=1))
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9)

    def test_shape_validation(self, pa_graph_small):
        with pytest.raises(ValueError):
            aggregate(pa_graph_small, np.ones(10), GossipConfig(k=1))

    def test_default_backend_is_auto(self):
        import inspect

        assert inspect.signature(aggregate).parameters["backend"].default == "auto"

    def test_large_graph_routes_to_sparse_by_default(self, monkeypatch):
        # Regression: the baseline used to hardcode backend="dense", so
        # Figure-3 baselines on 100k+-node graphs silently ran the (since
        # retired) dense engine's per-hub Python loop. The auto policy
        # must kick in.
        import repro.core.backend as backend_mod
        from tests.test_sharded_engine import ring_graph

        n = 20_001
        ring = ring_graph(n)

        chosen = []
        real_get_backend = backend_mod.get_backend
        monkeypatch.setattr(
            backend_mod,
            "get_backend",
            lambda name: chosen.append(backend_mod.resolve_backend_name(name))
            or real_get_backend(name),
        )
        # Constant values converge right after warmup, so the huge ring
        # stays cheap; the assertion is about routing, not the estimate.
        out = aggregate(ring, np.full(n, 0.5), GossipConfig(xi=1.0, rng=1, k=1))
        assert chosen == ["sparse"]
        assert np.allclose(out.estimates, 0.5)

    def test_explicit_backend_still_honoured(self, pa_graph_small, monkeypatch):
        import repro.core.backend as backend_mod

        chosen = []
        real_get_backend = backend_mod.get_backend
        monkeypatch.setattr(
            backend_mod,
            "get_backend",
            lambda name: chosen.append(backend_mod.resolve_backend_name(name))
            or real_get_backend(name),
        )
        # 60 nodes: "auto" would pick the message engine.
        aggregate(pa_graph_small, np.ones(60), GossipConfig(xi=1e-2, rng=2, k=1), backend="sparse")
        assert chosen == ["sparse"]


class TestPushPull:
    def test_converges_to_mean(self, pa_graph_small):
        values = np.arange(60.0)
        out = push_pull_average(pa_graph_small, values, xi=1e-7, rng=1)
        assert np.allclose(out.estimates, values.mean(), atol=1e-2)

    def test_mass_conserved(self, pa_graph_small):
        values = np.random.default_rng(1).random(60)
        out = push_pull_average(pa_graph_small, values, xi=1e-6, rng=2)
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9)

    def test_two_messages_per_contact(self, fig2_network):
        out = push_pull_average(fig2_network, np.arange(10.0), xi=1e-4, rng=3)
        assert out.push_messages % 2 == 0

    def test_usually_faster_than_push_on_hubby_graph(self, pa_graph_medium):
        values = np.random.default_rng(2).random(300)
        pp = push_pull_average(pa_graph_medium, values, xi=1e-5, rng=4)
        ps = aggregate(pa_graph_medium, values, GossipConfig(xi=1e-5, rng=4, k=1))
        assert pp.steps < ps.steps

    def test_shape_validation(self, pa_graph_small):
        with pytest.raises(ValueError):
            push_pull_average(pa_graph_small, np.ones(3))


class TestGossipTrust:
    def test_unweighted_estimate_matches_columns(self):
        t = TrustMatrix(4)
        t.set(0, 1, 0.5)
        t.set(2, 1, 0.7)
        estimates = unweighted_global_estimate(t)
        assert estimates[1] == pytest.approx(1.2 / 4)
        assert estimates[0] == 0.0

    def test_unweighted_over_observers(self):
        t = TrustMatrix(4)
        t.set(0, 1, 0.5)
        t.set(2, 1, 0.7)
        estimates = unweighted_global_estimate(t, over_all_nodes=False)
        assert estimates[1] == pytest.approx(0.6)

    def test_fixpoint_ranks_well_served_nodes(self):
        t = TrustMatrix(3)
        t.set(0, 1, 1.0)
        t.set(2, 1, 1.0)
        t.set(1, 0, 0.5)
        r = gossip_trust_fixpoint(t).values
        assert r[1] > r[0] > r[2]
        assert float(r.sum()) == pytest.approx(1.0)

    def test_empty_matrix_uniform(self):
        r = gossip_trust_fixpoint(TrustMatrix(5)).values
        assert np.allclose(r, 0.2)

    def test_custom_initial(self):
        t = TrustMatrix(3)
        t.set(0, 1, 1.0)
        r = gossip_trust_fixpoint(t, initial=np.array([1.0, 1.0, 1.0])).values
        assert float(r.sum()) == pytest.approx(1.0)

    def test_rejects_bad_initial(self):
        t = TrustMatrix(3)
        with pytest.raises(ValueError):
            gossip_trust_fixpoint(t, initial=np.zeros(3))
        with pytest.raises(ValueError):
            gossip_trust_fixpoint(t, initial=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            gossip_trust_fixpoint(t, initial=np.ones(2))

    def test_rejects_bad_controls(self):
        with pytest.raises(ValueError):
            gossip_trust_fixpoint(TrustMatrix(3), max_cycles=0)
        with pytest.raises(ValueError):
            gossip_trust_fixpoint(TrustMatrix(3), tolerance=0.0)


class TestEigenTrust:
    def test_identifies_trusted_node(self):
        t = TrustMatrix(3)
        t.set(0, 1, 1.0)
        t.set(2, 1, 1.0)
        t.set(1, 2, 0.2)
        scores = eigentrust_fixpoint(t, pretrusted=[0]).values
        assert int(np.argmax(scores)) == 1

    def test_defaults_meet_their_own_stop_rule(self):
        # The docstring world needs more than 200 steps to move less than
        # the default tolerance at the default damping.
        t = TrustMatrix(3)
        t.set(0, 1, 1.0)
        t.set(2, 1, 1.0)
        t.set(1, 2, 0.2)
        result = eigentrust_fixpoint(t, pretrusted=[0])
        assert result.converged
        assert 200 < result.iterations <= 269

    def test_distribution_sums_to_one(self, small_trust):
        scores = eigentrust_fixpoint(small_trust, pretrusted=[0, 1]).values
        assert float(scores.sum()) == pytest.approx(1.0)
        assert scores.min() >= 0.0

    def test_alpha_one_returns_pretrusted(self):
        t = TrustMatrix(4)
        t.set(0, 1, 1.0)
        scores = eigentrust_fixpoint(t, pretrusted=[2], alpha=1.0).values
        assert scores[2] == pytest.approx(1.0)

    def test_rejects_bad_pretrusted(self, small_trust):
        with pytest.raises(ValueError):
            eigentrust_fixpoint(small_trust, pretrusted=[])
        with pytest.raises(ValueError):
            eigentrust_fixpoint(small_trust, pretrusted=[999])

    def test_rejects_bad_alpha(self, small_trust):
        with pytest.raises(ValueError):
            eigentrust_fixpoint(small_trust, alpha=1.5)


class TestFlooding:
    def test_reaches_everyone_when_connected(self, pa_graph_small):
        result = flood_spread(pa_graph_small, [0])
        assert result.reached == 60

    def test_steps_bounded_by_diameter_plus_one(self, path4):
        result = flood_spread(path4, [0])
        assert result.steps == 4  # 3 forwarding waves + final no-op wave

    def test_message_cost_scales_with_edges(self, fig2_network):
        result = flood_spread(fig2_network, [0])
        # Every informed node forwards to all neighbours exactly once.
        assert result.total_messages == int(fig2_network.degrees.sum())

    def test_multiple_sources(self, pa_graph_small):
        single = flood_spread(pa_graph_small, [0])
        multi = flood_spread(pa_graph_small, [0, 30, 59])
        assert multi.steps <= single.steps

    def test_disconnected_partial_reach(self):
        from repro.network.graph import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        result = flood_spread(g, [0])
        assert result.reached == 2

    def test_rejects_empty_sources(self, pa_graph_small):
        with pytest.raises(ValueError):
            flood_spread(pa_graph_small, [])

    def test_rejects_bad_source(self, pa_graph_small):
        with pytest.raises(ValueError):
            flood_spread(pa_graph_small, [99])

    def test_messages_per_node(self, fig2_network):
        result = flood_spread(fig2_network, [0])
        assert result.messages_per_node == pytest.approx(32 / 10)
