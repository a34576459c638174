"""Unit tests for Algorithm 2 (single-node GCLR aggregation).

Algorithm 2 for node ``j`` is the one-column case of the vector form,
``aggregate_vector_gclr(..., targets=[j])``; every test here runs it
that way. The eq.-6 neighbour terms are checked by hand on both the
vector code and the independent per-target oracle in
:mod:`tests.reference_gclr`.
"""

import numpy as np
import pytest

from repro.core.backend import GossipConfig
from repro.core.vector_gclr import (
    _neighbor_corrections_matrix,
    aggregate_vector_gclr,
    pick_designated_node,
    true_vector_gclr,
)
from repro.core.weights import WeightParams
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from tests.reference_gclr import neighbor_correction_terms


def algorithm2(graph, trust, target, *, xi=1e-4, rng=None, params=WeightParams(), **kwargs):
    """Algorithm 2 for ``target``: one tracked column."""
    config = GossipConfig(xi=xi, rng=rng, params=params)
    return aggregate_vector_gclr(graph, trust, targets=[target], config=config, **kwargs)


def correction_terms(graph, trust, target, params):
    """One target's ``(y_hat, w_excess)`` from the vector code, checked
    against the per-target oracle."""
    y_hat, w_excess = _neighbor_corrections_matrix(graph, trust, np.array([target]), params)
    oracle_y_hat, oracle_w_excess = neighbor_correction_terms(graph, trust, target, params)
    np.testing.assert_array_equal(y_hat[:, 0], oracle_y_hat)
    np.testing.assert_array_equal(w_excess, oracle_w_excess)
    return y_hat[:, 0], w_excess


class TestNeighborCorrections:
    def test_hand_computed(self):
        # 0 - 1 - 2 path; node 1 trusts 0 at 1.0; 0 opined about target 2.
        g = Graph(3, [(0, 1), (1, 2)])
        t = TrustMatrix(3)
        t.set(1, 0, 1.0)  # estimator 1 fully trusts neighbour 0
        t.set(0, 2, 0.8)  # neighbour 0's feedback about target 2
        params = WeightParams(a=4.0, b=1.0)
        y_hat, w_excess = correction_terms(g, t, 2, params)
        assert w_excess[1] == pytest.approx(3.0)  # 4^1 - 1
        assert y_hat[1] == pytest.approx(3.0 * 0.8)
        assert w_excess[0] == 0.0  # node 0 trusts nobody

    def test_non_neighbors_excluded(self):
        g = Graph(3, [(0, 1), (1, 2)])
        t = TrustMatrix(3)
        t.set(0, 2, 0.9)  # node 0 trusts node 2 — but 2 is NOT its neighbour
        _, w_excess = correction_terms(g, t, 1, WeightParams())
        assert w_excess[0] == 0.0

    def test_zero_trust_neighbor_no_excess(self):
        g = Graph(2, [(0, 1)])
        t = TrustMatrix(2)
        t.set(0, 1, 0.0)
        _, w_excess = correction_terms(g, t, 1, WeightParams())
        assert w_excess[0] == 0.0


class TestTrueGclr:
    def test_weights_one_degenerates_to_global_mean(self, pa_graph_small, small_trust):
        # a=1 makes every weight 1: eq. 5 degenerates to eq. 1.
        params = WeightParams(a=1.0, b=1.0)
        rep = true_vector_gclr(pa_graph_small, small_trust, [5], params, "observers")
        expected = small_trust.column_mean_over_observers(5)
        assert np.allclose(rep[:, 0], expected)

    def test_all_convention_denominator(self, pa_graph_small, small_trust):
        params = WeightParams(a=1.0, b=1.0)
        rep = true_vector_gclr(pa_graph_small, small_trust, [5], params, "all")
        assert np.allclose(rep[:, 0], small_trust.column_mean_over_all(5))

    def test_varies_across_estimators(self, pa_graph_small, small_trust):
        rep = true_vector_gclr(pa_graph_small, small_trust, [5], WeightParams(), "observers")
        assert float(rep[:, 0].std()) > 0.0  # GCLR is per-node by design


class TestDesignatedNode:
    def test_picks_lowest_connected(self):
        g = Graph(3, [(1, 2)])
        assert pick_designated_node(g) == 1

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            pick_designated_node(Graph(3, []))


class TestAggregation:
    def test_gossip_matches_exact(self, pa_graph_small, small_trust):
        result = algorithm2(pa_graph_small, small_trust, 5, xi=1e-7, rng=1)
        assert result.max_absolute_error < 0.02

    def test_message_engine(self, pa_graph_small, small_trust):
        result = algorithm2(
            pa_graph_small, small_trust, 5, xi=1e-7, rng=2, backend="message"
        )
        assert result.max_absolute_error < 0.02

    def test_sum_and_count_estimates(self, pa_graph_small, small_trust):
        result = algorithm2(pa_graph_small, small_trust, 5, xi=1e-8, rng=3)
        true_sum = small_trust.column_sum(5)
        true_count = len(small_trust.observers_of(5))
        assert np.allclose(result.outcome.estimates[:, 0], true_sum, rtol=0.02)
        assert np.allclose(result.outcome.extra_estimates("count")[:, 0], true_count, rtol=0.02)

    def test_all_denominator_convention(self, pa_graph_small, small_trust):
        result = algorithm2(
            pa_graph_small, small_trust, 5, xi=1e-7, rng=4, denominator_convention="all"
        )
        assert result.max_absolute_error < 0.01

    def test_custom_designated_node(self, pa_graph_small, small_trust):
        result = algorithm2(
            pa_graph_small, small_trust, 5, xi=1e-7, rng=5, designated_node=10
        )
        assert result.max_absolute_error < 0.02

    def test_rejects_isolated_designated(self, small_trust):
        g = Graph(60, [(i, i + 1) for i in range(58)])  # node 59 isolated
        with pytest.raises(ValueError, match="isolated"):
            algorithm2(g, small_trust, 5, designated_node=59)

    def test_rejects_bad_convention(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="denominator_convention"):
            algorithm2(pa_graph_small, small_trust, 5, denominator_convention="bogus")

    def test_rejects_bad_engine(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="engine"):
            algorithm2(pa_graph_small, small_trust, 5, backend="bogus")

    def test_rejects_size_mismatch(self, pa_graph_small):
        with pytest.raises(ValueError, match="nodes"):
            algorithm2(pa_graph_small, TrustMatrix(5), 1)
