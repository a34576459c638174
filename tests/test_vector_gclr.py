"""Unit tests for variant 4 (simultaneous GCLR — the full DGT system)."""

import numpy as np
import pytest

from repro.core.backend import GossipConfig
from repro.core.vector_gclr import aggregate_vector_gclr, true_vector_gclr
from repro.core.weights import WeightParams
from repro.trust.matrix import TrustMatrix
from tests.reference_gclr import reference_gclr


class TestTrueVectorGclr:
    def test_columns_match_single_target_truth(self, pa_graph_small, small_trust):
        params = WeightParams()
        targets = [2, 8, 31]
        matrix = true_vector_gclr(pa_graph_small, small_trust, targets, params)
        for col, target in enumerate(targets):
            single = reference_gclr(pa_graph_small, small_trust, target, params)
            np.testing.assert_array_equal(matrix[:, col], single)

    def test_all_convention(self, pa_graph_small, small_trust):
        params = WeightParams()
        matrix = true_vector_gclr(pa_graph_small, small_trust, [5], params, "all")
        single = reference_gclr(pa_graph_small, small_trust, 5, params, "all")
        np.testing.assert_array_equal(matrix[:, 0], single)


class TestAggregation:
    def test_gossip_accuracy(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[0, 5, 9], config=GossipConfig(xi=1e-7, rng=1)
        )
        assert result.max_absolute_error < 0.02
        assert result.reputations.shape == (60, 3)

    def test_reputation_of_accessor(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[0, 5], config=GossipConfig(xi=1e-6, rng=2)
        )
        assert result.reputation_of(3, 5) == pytest.approx(
            float(result.reputations[3, 1])
        )
        with pytest.raises(KeyError):
            result.reputation_of(3, 42)

    def test_reputations_differ_across_estimators(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[5], config=GossipConfig(xi=1e-7, rng=3)
        )
        assert float(result.reputations[:, 0].std()) > 0.0

    def test_all_convention(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small,
            small_trust,
            targets=[5],
            config=GossipConfig(xi=1e-7, rng=4),
            denominator_convention="all",
        )
        assert result.max_absolute_error < 0.01

    def test_rejects_bad_inputs(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="distinct"):
            aggregate_vector_gclr(pa_graph_small, small_trust, targets=[1, 1])
        with pytest.raises(ValueError, match="non-empty"):
            aggregate_vector_gclr(pa_graph_small, small_trust, targets=[])
        with pytest.raises(ValueError, match="targets"):
            aggregate_vector_gclr(pa_graph_small, small_trust, targets=[-1])
        with pytest.raises(ValueError, match="denominator_convention"):
            aggregate_vector_gclr(
                pa_graph_small, small_trust, targets=[1], denominator_convention="x"
            )
        with pytest.raises(ValueError, match="nodes"):
            aggregate_vector_gclr(pa_graph_small, TrustMatrix(3), targets=[1])

    def test_deterministic(self, pa_graph_small, small_trust):
        config = GossipConfig(xi=1e-5, rng=7)
        a = aggregate_vector_gclr(pa_graph_small, small_trust, targets=[3], config=config)
        b = aggregate_vector_gclr(pa_graph_small, small_trust, targets=[3], config=config)
        assert np.array_equal(a.reputations, b.reputations)

    def test_weights_one_equals_vector_global(self, pa_graph_small, small_trust):
        # a=1 collapses GCLR to the plain global mean over observers.
        result = aggregate_vector_gclr(
            pa_graph_small,
            small_trust,
            targets=[5],
            config=GossipConfig(xi=1e-8, rng=8, params=WeightParams(a=1.0)),
        )
        expected = small_trust.column_mean_over_observers(5)
        assert np.allclose(result.reputations[:, 0], expected, atol=0.01)
