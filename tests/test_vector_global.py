"""Unit tests for variant 3 (simultaneous global aggregation)."""

import numpy as np
import pytest

from repro.core.backend import GossipConfig
from repro.core.vector_global import aggregate_vector_global, initial_state_vector_global
from repro.trust.matrix import TrustMatrix


class TestInitialState:
    def test_columns_match_targets(self, small_trust):
        values, weights = initial_state_vector_global(small_trust, [3, 7], "observers")
        assert values.shape == (60, 2)
        for col, target in enumerate((3, 7)):
            for observer, value in small_trust.column(target).items():
                assert values[observer, col] == value
                assert weights[observer, col] == 1.0

    def test_all_convention(self, small_trust):
        _, weights = initial_state_vector_global(small_trust, [3], "all")
        assert np.all(weights == 1.0)


class TestAggregation:
    def test_accuracy_per_column(self, pa_graph_small, small_trust):
        targets = [0, 5, 9, 20]
        result = aggregate_vector_global(
            pa_graph_small, small_trust, targets=targets, config=GossipConfig(xi=1e-6, rng=1)
        )
        assert result.estimates.shape == (60, 4)
        assert result.max_relative_error < 0.05
        for col, target in enumerate(targets):
            assert result.true_values[col] == pytest.approx(
                small_trust.column_mean_over_observers(target)
            )

    def test_matches_single_target_runs(self, pa_graph_small, small_trust):
        # Column dynamics are independent: vector run's per-column limit
        # equals the single-target truth.
        result = aggregate_vector_global(
            pa_graph_small, small_trust, targets=[5], config=GossipConfig(xi=1e-7, rng=2)
        )
        assert np.allclose(
            result.estimates[:, 0],
            small_trust.column_mean_over_observers(5),
            rtol=0.02,
        )

    def test_default_targets_all_nodes(self, pa_graph_small, small_trust):
        result = aggregate_vector_global(
            pa_graph_small, small_trust, config=GossipConfig(xi=1e-4, rng=3)
        )
        assert result.estimates.shape == (60, 60)

    def test_rejects_duplicate_targets(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="distinct"):
            aggregate_vector_global(pa_graph_small, small_trust, targets=[1, 1])

    def test_rejects_empty_targets(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="non-empty"):
            aggregate_vector_global(pa_graph_small, small_trust, targets=[])

    def test_rejects_out_of_range_targets(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="targets"):
            aggregate_vector_global(pa_graph_small, small_trust, targets=[99])

    def test_rejects_size_mismatch(self, pa_graph_small):
        with pytest.raises(ValueError, match="nodes"):
            aggregate_vector_global(pa_graph_small, TrustMatrix(9))

    def test_all_convention(self, pa_graph_small, small_trust):
        result = aggregate_vector_global(
            pa_graph_small,
            small_trust,
            targets=[5],
            config=GossipConfig(xi=1e-9, rng=4),
            convention="all",
        )
        assert result.true_values[0] == pytest.approx(
            small_trust.column_mean_over_all(5)
        )
        assert result.max_relative_error < 0.05

    def test_eq7_convergence_uses_summed_threshold(self, pa_graph_small, small_trust):
        # More columns loosen the per-node threshold (d * xi); the run
        # should still converge to the right answers.
        result = aggregate_vector_global(
            pa_graph_small,
            small_trust,
            targets=list(range(20)),
            config=GossipConfig(xi=1e-6, rng=5),
        )
        assert result.max_relative_error < 0.1
