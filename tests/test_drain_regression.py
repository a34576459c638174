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

from repro.core.convergence import ConvergenceProtocol
from repro.core.state import UNDEFINED_RATIO
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.graph import Graph


class TestProtocolCarryForward:
    """Every engine's estimates come from ``ConvergenceProtocol.observe_state``."""

    def _protocol(self, value, weight):
        graph = Graph(2, [(0, 1)])
        protocol = ConvergenceProtocol(graph, xi=1e-6, patience=2)
        state = np.array([[value, weight], [1.0, 1.0]])
        protocol.start(state[:, :1], state[:, 1:])
        return protocol, state

    def _observe(self, protocol, state):
        return protocol.observe_state(state[:, :1], state[:, 1:], np.ones(2, dtype=bool))

    def test_defined_ratio_survives_drain_to_zero(self):
        protocol, state = self._protocol(3.0, 2.0)
        assert protocol.ratios[0, 0] == pytest.approx(1.5)
        # Simulate a total drain (underflow to exact zero).
        state[0] = 0.0
        self._observe(protocol, state)
        assert protocol.ratios[0, 0] == pytest.approx(1.5)  # carried forward

    def test_never_defined_stays_sentinel(self):
        protocol, state = self._protocol(0.0, 0.0)
        assert protocol.ratios[0, 0] == UNDEFINED_RATIO
        self._observe(protocol, state)
        self._observe(protocol, state)
        assert protocol.ratios[0, 0] == UNDEFINED_RATIO

    def test_ratio_recovers_after_refill(self):
        protocol, state = self._protocol(3.0, 2.0)
        state[0] = 0.0
        self._observe(protocol, state)
        state[0] = [5.0, 2.0]
        self._observe(protocol, state)
        assert protocol.ratios[0, 0] == pytest.approx(2.5)

    def test_drained_node_can_converge(self):
        protocol, state = self._protocol(1.0, 1.0)
        state[0] = 0.0
        # Movement is 0 (carried ratio) and the cell was defined once,
        # so the drained node passes the test like any other.
        assert self._observe(protocol, state).size == 0
        assert list(self._observe(protocol, state)) == [0, 1]
        assert protocol.converged.all()


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
