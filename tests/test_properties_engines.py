"""Deeper engine properties: linearity, column independence, async mass.

The push operator is linear and applied identically to every state
column (a node ships all its components to the same targets). Two exact
consequences make powerful tests:

- scaling an initial column scales its whole trajectory (homogeneity);
- the sum of two initial columns evolves to the sum of their
  trajectories (additivity) when run under the same seed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.async_engine import AsyncGossipEngine
from repro.core.engine import MessageLevelGossip
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.preferential_attachment import preferential_attachment_graph

# Heavier hypothesis suite: one full run per CI matrix (see pyproject markers).
pytestmark = pytest.mark.property

SLOW = settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])

world = st.tuples(
    st.integers(min_value=10, max_value=40),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def _graph(n, seed):
    return preferential_attachment_graph(n, m=2, rng=seed)


class TestLinearity:
    @SLOW
    @given(params=world, scale=st.floats(min_value=0.1, max_value=10.0))
    def test_homogeneity_across_columns(self, params, scale):
        """Column 2 = scale * column 1 initially => identical ratios * scale."""
        n, seed = params
        graph = _graph(n, seed)
        base = np.random.default_rng(seed).random(n)
        values = np.column_stack([base, scale * base])
        weights = np.ones((n, 2))
        out = SparseGossipEngine(graph, rng=seed + 1).run(
            values, weights, xi=1e-9, max_steps=40, run_to_max=True
        )
        assert np.allclose(out.values[:, 1], scale * out.values[:, 0], rtol=1e-9)

    @SLOW
    @given(params=world)
    def test_additivity_across_columns(self, params):
        """Column 3 = column 1 + column 2 initially stays their sum."""
        n, seed = params
        graph = _graph(n, seed)
        rng = np.random.default_rng(seed)
        a, b = rng.random(n), rng.random(n)
        values = np.column_stack([a, b, a + b])
        weights = np.ones((n, 3))
        out = SparseGossipEngine(graph, rng=seed + 2).run(
            values, weights, xi=1e-9, max_steps=40, run_to_max=True
        )
        assert np.allclose(
            out.values[:, 2], out.values[:, 0] + out.values[:, 1], rtol=1e-9
        )

    @SLOW
    @given(params=world)
    def test_constant_column_is_fixed_point(self, params):
        """A column equal to its weights keeps ratio exactly 1 everywhere."""
        n, seed = params
        graph = _graph(n, seed)
        out = SparseGossipEngine(graph, rng=seed + 3).run(
            np.ones(n), np.ones(n), xi=1e-9, max_steps=30, run_to_max=True
        )
        assert np.allclose(out.estimates, 1.0, atol=1e-12)


class TestEngineAgreement:
    @SLOW
    @given(params=world)
    def test_message_and_vector_limits_agree(self, params):
        n, seed = params
        graph = _graph(n, seed)
        values = np.random.default_rng(seed).random(n)
        vector = SparseGossipEngine(graph, rng=seed + 4).run(values, np.ones(n), xi=1e-7)
        message = MessageLevelGossip(graph, rng=seed + 5).run(values, np.ones(n), xi=1e-7)
        assert np.allclose(vector.estimates, values.mean(), atol=2e-3)
        assert np.allclose(message.estimates, values.mean(), atol=2e-3)


class TestAsyncProperties:
    @SLOW
    @given(params=world)
    def test_async_mass_conservation(self, params):
        n, seed = params
        graph = _graph(n, seed)
        values = np.random.default_rng(seed).random(n)
        out = AsyncGossipEngine(graph, rng=seed + 6).run(
            values, np.ones(n), xi=1e-4, quiet_window=2.0, max_time=500.0, strict=False
        )
        assert abs(float(out.values.sum()) - float(values.sum())) < 1e-9 * n
        assert abs(float(out.weights.sum()) - n) < 1e-9 * n

    @SLOW
    @given(
        params=world,
        loss=st.floats(min_value=0.0, max_value=0.5),
        latency_mean=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_async_mass_conserved_in_flight_under_loss_and_latency(
        self, params, loss, latency_mean
    ):
        """State + in-flight mass is exact at every event (check_mass
        audits each one), and the flushed final state is exact too."""
        from repro.network.conditions import LatencySpec, LinkModel

        n, seed = params
        graph = _graph(n, seed)
        values = np.random.default_rng(seed).random(n)
        link = LinkModel(loss, latency=LatencySpec("exponential", latency_mean))
        out = AsyncGossipEngine(graph, rng=seed + 7, link=link, link_rng=seed + 8).run(
            values, np.ones(n), xi=1e-4, quiet_window=2.0,
            max_time=300.0, strict=False, check_mass=True,
        )
        assert abs(float(out.values.sum()) - float(values.sum())) < 1e-9 * n
        assert abs(float(out.weights.sum()) - n) < 1e-9 * n

    @SLOW
    @given(params=world)
    def test_async_mass_conserved_across_partition_and_heal(self, params):
        """Partition drops self-redirect, so mass survives cut + heal."""
        from repro.network.conditions import LatencySpec, LinkModel, PartitionWindow

        n, seed = params
        graph = _graph(n, seed)
        values = np.random.default_rng(seed).random(n)
        link = LinkModel(
            latency=LatencySpec("exponential", 0.05),
            regions=2,
            partitions=(PartitionWindow(start=1.0, duration=5.0),),
        )
        out = AsyncGossipEngine(graph, rng=seed + 9, link=link, link_rng=seed + 10).run(
            values, np.ones(n), xi=1e-4, quiet_window=2.0,
            max_time=300.0, strict=False, check_mass=True,
        )
        assert abs(float(out.values.sum()) - float(values.sum())) < 1e-9 * n
        assert abs(float(out.weights.sum()) - n) < 1e-9 * n

    @SLOW
    @given(params=world)
    def test_async_agrees_with_sparse_fixpoint(self, params):
        """The event-driven engine and the sparse synchronous backend
        settle on the same mean estimate for the same inputs."""
        from repro.core.backend import GossipConfig, run_backend

        n, seed = params
        graph = _graph(n, seed)
        values = np.random.default_rng(seed).random(n)
        sparse = run_backend(
            graph, values, np.ones(n),
            config=GossipConfig(xi=1e-8, rng=seed + 11), backend="sparse",
        )
        async_out = AsyncGossipEngine(graph, rng=seed + 12).run(
            values, np.ones(n), xi=1e-5, quiet_window=4.0, max_time=1000.0
        )
        assert np.allclose(sparse.estimates, values.mean(), atol=2e-3)
        assert np.allclose(async_out.estimates, values.mean(), atol=2e-2)
        assert sparse.estimates.mean() == pytest.approx(
            async_out.estimates.mean(), abs=1e-2
        )
