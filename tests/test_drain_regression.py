"""Regression tests for the underflow-drain deadlock.

At N=50 000 the original implementation deadlocked: in the long tail
only a few nodes remain active, they halve their pair every step, the
floats underflow to exactly zero, the ratio snaps to the undefined
sentinel and the last unconverged node can never pass the convergence
test. In exact arithmetic splitting preserves the ratio, so the fix
carries the last defined ratio through drained cells. These tests pin
the carry-forward semantics at unit level (the full-scale repro lives in
the Figure-3 experiment at ``REPRO_FULL_SCALE=1``).
"""

import numpy as np
import pytest

from repro.core.engine import GossipNode
from repro.core.state import UNDEFINED_RATIO
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.graph import Graph


class TestGossipNodeCarryForward:
    def _node(self, value, weight):
        return GossipNode(
            0, np.array([1]), 1, np.array([value]), np.array([weight]), {}
        )

    def test_defined_ratio_survives_drain_to_zero(self):
        node = self._node(3.0, 2.0)
        assert node._ratio()[0] == pytest.approx(1.5)
        # Simulate a total drain (underflow to exact zero).
        node.value[:] = 0.0
        node.weight[:] = 0.0
        assert node._ratio()[0] == pytest.approx(1.5)  # carried forward

    def test_never_defined_stays_sentinel(self):
        node = self._node(0.0, 0.0)
        assert node._ratio()[0] == UNDEFINED_RATIO
        node._ratio()
        assert node._ratio()[0] == UNDEFINED_RATIO

    def test_ratio_recovers_after_refill(self):
        node = self._node(3.0, 2.0)
        node._ratio()
        node.value[:] = 0.0
        node.weight[:] = 0.0
        node._ratio()
        node.value[:] = 5.0
        node.weight[:] = 2.0
        assert node._ratio()[0] == pytest.approx(2.5)

    def test_drained_node_can_converge(self):
        node = self._node(3.0, 2.0)
        node._ratio()
        node.value[:] = 0.0
        node.weight[:] = 0.0
        live = np.array([True])
        # Deviation is 0 (carried ratio); ever-defined, so eligible.
        assert not node.check_convergence(1e-6, True, live, patience=2)
        assert node.check_convergence(1e-6, True, live, patience=2)
        assert node.converged


class TestVectorEngineCarryForward:
    def test_subnormal_initial_mass_converges(self):
        """Tiny initial masses drain to exact zero mid-run yet converge."""
        g = Graph(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]
        )
        values = np.full(6, 1e-300)
        weights = np.full(6, 1e-300)
        engine = SparseGossipEngine(g, rng=1)
        out = engine.run(values, weights, xi=1e-6, max_steps=5000)
        # All ratios are 1.0 throughout; the run must terminate.
        assert out.converged.all()
        assert np.allclose(out.estimates[out.weights.reshape(-1) != 0], 1.0)

    def test_large_network_long_tail_terminates(self):
        """A mid-size PA run at tight xi terminates (smoke for the tail)."""
        from repro.network.preferential_attachment import preferential_attachment_graph

        g = preferential_attachment_graph(3000, m=2, rng=50)
        values = np.random.default_rng(51).random(3000)
        engine = SparseGossipEngine(g, rng=52)
        out = engine.run(values, np.ones(3000), xi=1e-6, max_steps=3000)
        assert out.converged.all()
        assert np.allclose(out.estimates, values.mean(), atol=1e-3)
