"""Unit tests for Algorithm 1 (single-node global aggregation)."""

import numpy as np
import pytest

from repro.core.single_global import (
    aggregate_single_global,
    initial_state_single_global,
    true_single_global,
)
from repro.trust.matrix import TrustMatrix


class TestInitialState:
    def test_observers_convention(self, small_trust):
        values, weights = initial_state_single_global(small_trust, 5, "observers")
        observers = small_trust.observers_of(5)
        assert float(weights.sum()) == len(observers)
        for observer in observers:
            assert values[observer] == small_trust.get(observer, 5)
            assert weights[observer] == 1.0

    def test_all_convention(self, small_trust):
        _, weights = initial_state_single_global(small_trust, 5, "all")
        assert np.all(weights == 1.0)

    def test_bad_convention(self, small_trust):
        with pytest.raises(ValueError):
            initial_state_single_global(small_trust, 5, "bogus")


class TestTrueValue:
    def test_observers_mean(self):
        t = TrustMatrix(4)
        t.set(0, 3, 0.2)
        t.set(1, 3, 0.8)
        assert true_single_global(t, 3, "observers") == pytest.approx(0.5)
        assert true_single_global(t, 3, "all") == pytest.approx(0.25)

    def test_bad_convention(self, small_trust):
        with pytest.raises(ValueError):
            true_single_global(small_trust, 0, "bogus")


class TestAggregation:
    def test_vector_engine_accuracy(self, pa_graph_small, small_trust):
        result = aggregate_single_global(
            pa_graph_small, small_trust, target=5, xi=1e-6, rng=1, backend="sparse"
        )
        assert result.max_relative_error < 0.02
        assert result.estimates.shape == (60,)

    def test_message_engine_accuracy(self, pa_graph_small, small_trust):
        result = aggregate_single_global(
            pa_graph_small, small_trust, target=5, xi=1e-6, rng=2, backend="message"
        )
        assert result.max_relative_error < 0.02

    def test_all_convention_accuracy(self, pa_graph_small, small_trust):
        # The 'all' convention mixes slowly (uniform weight, sparse value
        # mass), so the local stop rule needs a tighter xi for the same
        # final accuracy — see EXPERIMENTS.md on the xi-to-error mapping.
        result = aggregate_single_global(
            pa_graph_small, small_trust, target=5, xi=1e-9, rng=3, convention="all"
        )
        assert result.true_value == true_single_global(small_trust, 5, "all")
        assert result.max_relative_error < 0.02

    def test_engines_agree_on_limit(self, pa_graph_small, small_trust):
        a = aggregate_single_global(
            pa_graph_small, small_trust, target=7, xi=1e-7, rng=4, backend="sparse"
        )
        b = aggregate_single_global(
            pa_graph_small, small_trust, target=7, xi=1e-7, rng=5, backend="message"
        )
        assert a.true_value == b.true_value
        assert np.allclose(a.estimates.mean(), b.estimates.mean(), atol=0.01)

    def test_unobserved_target(self, pa_graph_small):
        empty = TrustMatrix(60)
        result = aggregate_single_global(pa_graph_small, empty, target=3, xi=1e-4, rng=6)
        assert result.true_value == 0.0

    def test_invalid_engine(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="engine"):
            aggregate_single_global(pa_graph_small, small_trust, 0, backend="gpu")

    def test_invalid_target(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="target"):
            aggregate_single_global(pa_graph_small, small_trust, target=99)

    def test_size_mismatch(self, pa_graph_small):
        with pytest.raises(ValueError, match="nodes"):
            aggregate_single_global(pa_graph_small, TrustMatrix(10), target=0)

    def test_max_relative_error_with_zero_truth(self, pa_graph_small):
        empty = TrustMatrix(60)
        result = aggregate_single_global(pa_graph_small, empty, target=3, xi=1e-4, rng=7)
        # Estimates are the sentinel (no weight mass anywhere): error is reported absolutely.
        assert result.max_relative_error >= 0.0
