"""Unit tests for the differential push rule (Section 4.1.1)."""

import numpy as np
import pytest

from repro.core.differential import (
    fixed_push_counts,
    push_counts,
    push_ratio,
    resolve_push_counts,
)
from repro.network.graph import Graph


class TestPushRatio:
    def test_regular_graph_ratio_one(self, triangle):
        assert np.allclose(push_ratio(triangle), 1.0)

    def test_star_hub_ratio(self, star5):
        ratio = push_ratio(star5)
        assert ratio[0] == pytest.approx(4.0)  # hub: degree 4, neighbours degree 1
        assert np.allclose(ratio[1:], 0.25)  # leaves: degree 1, neighbour degree 4

    def test_isolated_node_ratio_zero(self):
        g = Graph(3, [(0, 1)])
        assert push_ratio(g)[2] == 0.0


class TestPushCounts:
    def test_paper_example(self, fig2_network):
        assert push_counts(fig2_network).tolist() == [1, 1, 3, 1, 1, 1, 1, 1, 1, 1]

    def test_minimum_one_for_connected(self, pa_graph_small):
        counts = push_counts(pa_graph_small)
        assert int(counts.min()) >= 1

    def test_never_exceeds_degree(self, pa_graph_small):
        counts = push_counts(pa_graph_small)
        assert np.all(counts <= pa_graph_small.degrees)

    def test_star_hub_pushes_to_all(self, star5):
        counts = push_counts(star5)
        assert counts[0] == 4  # ratio 4.0 -> 4 pushes, == degree
        assert np.all(counts[1:] == 1)

    def test_ratio_below_one_maps_to_one(self, star5):
        # Leaves have ratio 0.25 < 1 but must still push once.
        assert np.all(push_counts(star5)[1:] == 1)

    def test_round_half_up(self):
        # Node 0: degree 3, neighbours of degrees 2, 2, 2 -> ratio 1.5 -> k=2.
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 4)])
        assert g.degree(0) == 3
        assert g.average_neighbor_degrees[0] == pytest.approx(2.0)
        assert push_counts(g)[0] == 2

    def test_isolated_node_zero(self):
        g = Graph(3, [(0, 1)])
        assert push_counts(g)[2] == 0


class TestFixedPushCounts:
    def test_uniform_one(self, fig2_network):
        counts = fixed_push_counts(fig2_network, 1)
        assert np.all(counts == 1)

    def test_clamped_to_degree(self, star5):
        counts = fixed_push_counts(star5, 3)
        assert counts[0] == 3
        assert np.all(counts[1:] == 1)  # leaves have degree 1

    def test_isolated_zero(self):
        g = Graph(3, [(0, 1)])
        assert fixed_push_counts(g, 2)[2] == 0

    def test_rejects_k_below_one(self, triangle):
        with pytest.raises(ValueError):
            fixed_push_counts(triangle, 0)


class TestResolveOversizedCounts:
    """Regression: counts above degree are rejected, by every engine alike."""

    def test_strict_mode_raises(self, star5):
        oversized = np.array([9, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="degree"):
            resolve_push_counts(star5, oversized)

    @pytest.mark.parametrize("n", [64, 65])
    def test_backends_reject_oversized_counts_alike(self, n):
        # n = 64 is the last size "auto" hands the message engine, n = 65
        # the first it hands sparse; at either size both engines refuse
        # an explicit count above a leaf's degree with the same error.
        from repro.core.engine import MessageLevelGossip
        from repro.core.sparse_engine import SparseGossipEngine
        from repro.network.preferential_attachment import preferential_attachment_graph

        graph = preferential_attachment_graph(n, m=1, rng=3)
        for engine_class in (MessageLevelGossip, SparseGossipEngine):
            with pytest.raises(ValueError, match="may not exceed node degree"):
                engine_class(graph, push_counts=np.full(n, 2), rng=1)
