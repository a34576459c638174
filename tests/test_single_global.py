"""Unit tests for Algorithm 1 (single-node global aggregation).

Algorithm 1 for node ``j`` is the one-column case of the vector form,
``aggregate_vector_global(..., targets=[j])``; every test here runs it
that way.
"""

import numpy as np
import pytest

from repro.core.backend import GossipConfig
from repro.core.vector_global import aggregate_vector_global, initial_state_vector_global
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix


def algorithm1(graph, trust, target, *, xi=1e-4, rng=None, **kwargs):
    """Algorithm 1 for ``target``: one tracked column."""
    return aggregate_vector_global(
        graph, trust, targets=[target], config=GossipConfig(xi=xi, rng=rng), **kwargs
    )


class TestInitialState:
    def test_observers_convention(self, small_trust):
        values, weights = initial_state_vector_global(small_trust, [5], "observers")
        observers = small_trust.observers_of(5)
        assert float(weights.sum()) == len(observers)
        for observer in observers:
            assert values[observer, 0] == small_trust.get(observer, 5)
            assert weights[observer, 0] == 1.0

    def test_all_convention(self, small_trust):
        _, weights = initial_state_vector_global(small_trust, [5], "all")
        assert np.all(weights == 1.0)

    def test_bad_convention(self, small_trust):
        with pytest.raises(ValueError, match="convention"):
            initial_state_vector_global(small_trust, [5], "bogus")


class TestTrueValue:
    def test_observers_mean(self):
        t = TrustMatrix(4)
        t.set(0, 3, 0.2)
        t.set(1, 3, 0.8)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        observers = algorithm1(g, t, 3, rng=1, convention="observers")
        everyone = algorithm1(g, t, 3, rng=1, convention="all")
        assert observers.true_values[0] == pytest.approx(0.5)
        assert everyone.true_values[0] == pytest.approx(0.25)

    def test_bad_convention(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="convention"):
            algorithm1(pa_graph_small, small_trust, 0, convention="bogus")


class TestAggregation:
    def test_vector_engine_accuracy(self, pa_graph_small, small_trust):
        result = algorithm1(
            pa_graph_small, small_trust, 5, xi=1e-6, rng=1, backend="sparse"
        )
        assert result.max_relative_error < 0.02
        assert result.estimates.shape == (60, 1)

    def test_message_engine_accuracy(self, pa_graph_small, small_trust):
        result = algorithm1(
            pa_graph_small, small_trust, 5, xi=1e-6, rng=2, backend="message"
        )
        assert result.max_relative_error < 0.02

    def test_all_convention_accuracy(self, pa_graph_small, small_trust):
        # The 'all' convention mixes slowly (uniform weight, sparse value
        # mass), so the local stop rule needs a tighter xi for the same
        # final accuracy — see docs/fidelity.md on the xi-to-error mapping.
        result = algorithm1(
            pa_graph_small, small_trust, 5, xi=1e-9, rng=3, convention="all"
        )
        assert result.true_values[0] == small_trust.column_mean_over_all(5)
        assert result.max_relative_error < 0.02

    def test_engines_agree_on_limit(self, pa_graph_small, small_trust):
        a = algorithm1(pa_graph_small, small_trust, 7, xi=1e-7, rng=4, backend="sparse")
        b = algorithm1(pa_graph_small, small_trust, 7, xi=1e-7, rng=5, backend="message")
        assert a.true_values[0] == b.true_values[0]
        assert np.allclose(a.estimates.mean(), b.estimates.mean(), atol=0.01)

    def test_unobserved_target(self, pa_graph_small):
        empty = TrustMatrix(60)
        result = algorithm1(pa_graph_small, empty, 3, rng=6)
        assert result.true_values[0] == 0.0

    def test_invalid_engine(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="engine"):
            algorithm1(pa_graph_small, small_trust, 0, backend="gpu")

    def test_invalid_target(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="target"):
            algorithm1(pa_graph_small, small_trust, 99)

    def test_size_mismatch(self, pa_graph_small):
        with pytest.raises(ValueError, match="nodes"):
            algorithm1(pa_graph_small, TrustMatrix(10), 0)

    def test_max_relative_error_with_zero_truth(self, pa_graph_small):
        empty = TrustMatrix(60)
        result = algorithm1(pa_graph_small, empty, 3, rng=7)
        # Estimates are the sentinel (no weight mass anywhere): error is reported absolutely.
        assert result.max_relative_error >= 0.0
