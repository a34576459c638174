"""Unit tests for gossip state primitives."""

import numpy as np
import pytest

from repro.core.errors import MassConservationError
from repro.core.state import MASS_RTOL, UNDEFINED_RATIO, MassCheck, ratios


class TestRatios:
    def test_elementwise(self):
        out = ratios(np.array([2.0, 3.0]), np.array([1.0, 2.0]))
        assert np.allclose(out, [2.0, 1.5])

    def test_sentinel_on_zero_weight(self):
        out = ratios(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        assert out[0] == UNDEFINED_RATIO
        assert out[1] == 2.0

    def test_2d(self):
        values = np.array([[1.0, 0.0], [4.0, 2.0]])
        weights = np.array([[2.0, 0.0], [2.0, 1.0]])
        out = ratios(values, weights)
        assert out[0, 0] == 0.5
        assert out[0, 1] == UNDEFINED_RATIO
        assert out[1, 1] == 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ratios(np.zeros(3), np.zeros(4))

    def test_sentinel_outside_trust_range(self):
        # Trust values live in [0, 1]; the sentinel must be distinguishable.
        assert UNDEFINED_RATIO > 1.0


class TestMassConservation:
    """The one per-step mass check both synchronous engines run."""

    SLICES = {"value": slice(0, 1), "weight": slice(1, 2)}

    def test_passes_when_conserved(self):
        state = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        check = MassCheck(state, self.SLICES)
        moved = np.array([[3.0, 0.5], [3.0, 2.0], [0.0, 0.5]])
        check.verify(moved, step=1)

    def test_fails_on_drift(self):
        state = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        check = MassCheck(state, self.SLICES)
        drifted = state.copy()
        drifted[2, 0] = 4.0
        with pytest.raises(MassConservationError, match="'value' mass drifted .* at step 7"):
            check.verify(drifted, step=7)

    def test_tolerates_float_noise(self):
        state = np.column_stack([np.full(1000, 1.0 / 3.0), np.ones(1000)])
        check = MassCheck(state, self.SLICES)
        # Same total in real arithmetic, a few ulps off in floats.
        spread = state.copy()
        spread[:, 0] = np.linspace(0.0, 2.0 / 3.0, 1000)
        check.verify(spread, step=1)

    def test_zero_total(self):
        state = np.zeros((5, 2))
        check = MassCheck(state, self.SLICES)
        check.verify(state, step=1)
        drifted = state.copy()
        drifted[0, 1] = MASS_RTOL * 10
        with pytest.raises(MassConservationError, match="'weight'"):
            check.verify(drifted, step=2)

    def test_bound_grows_with_component_width(self):
        # d = 4 columns of 25 nodes: the bound scales with sqrt(N * d).
        state = np.ones((25, 8))
        check = MassCheck(state, {"value": slice(0, 4), "weight": slice(4, 8)})
        nudged = state.copy()
        nudged[0, 0] += 100.0 * MASS_RTOL * 9.0  # inside 100 * 1e-9 * sqrt(100)
        check.verify(nudged, step=1)
        nudged[0, 0] += 100.0 * MASS_RTOL * 2.0
        with pytest.raises(MassConservationError):
            check.verify(nudged, step=2)

    def test_engines_raise_on_drift(self, fig2_network, monkeypatch):
        # A kernel that leaks mass must stop both synchronous engines.
        from repro.core.engine import GossipNode, MessageLevelGossip
        from repro.core.kernels.numpy_kernels import FusedNumpyKernel
        from repro.core.sparse_engine import SparseGossipEngine

        step = FusedNumpyKernel.step

        def leaky_step(self, state, *args, **kwargs):
            state, pushes = step(self, state, *args, **kwargs)
            state[0, 0] *= 1.5
            return state, pushes

        absorb = GossipNode.absorb_inbox

        def leaky_absorb(self):
            heard = absorb(self)
            if self.node_id == 0:
                self.value *= 1.5
            return heard

        monkeypatch.setattr(FusedNumpyKernel, "step", leaky_step)
        monkeypatch.setattr(GossipNode, "absorb_inbox", leaky_absorb)
        for engine in (SparseGossipEngine(fig2_network, rng=1), MessageLevelGossip(fig2_network, rng=1)):
            with pytest.raises(MassConservationError, match="at step 1$"):
                engine.run(np.arange(1.0, 11.0), np.ones(10), xi=1e-6)
