"""Unit tests for the convergence/stop protocol."""

import numpy as np
import pytest

from repro.core.convergence import ConvergenceProtocol
from repro.core.state import UNDEFINED_RATIO
from repro.network.graph import Graph


def all_true(n):
    return np.ones(n, dtype=bool)


class TestProtocolBasics:
    def test_initial_state(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01)
        assert not protocol.all_stopped
        assert protocol.num_unconverged == 3
        assert not protocol.converged.any()

    def test_threshold_scales_with_components(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01, num_components=50)
        assert protocol.threshold == pytest.approx(0.5)

    def test_rejects_bad_xi(self, triangle):
        with pytest.raises(ValueError):
            ConvergenceProtocol(triangle, xi=0.0)

    def test_rejects_bad_patience(self, triangle):
        with pytest.raises(ValueError):
            ConvergenceProtocol(triangle, xi=0.1, patience=0)

    def test_isolated_nodes_start_stopped(self):
        g = Graph(3, [(0, 1)])
        protocol = ConvergenceProtocol(g, xi=0.01)
        assert protocol.stopped[2]
        assert protocol.converged[2]


class TestObserve:
    def test_converges_on_small_deviation(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01, patience=1)
        newly = protocol.observe(np.zeros(3), all_true(3))
        assert sorted(newly) == [0, 1, 2]
        assert protocol.all_stopped

    def test_large_deviation_blocks(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01, patience=1)
        newly = protocol.observe(np.full(3, 0.5), all_true(3))
        assert newly.size == 0
        assert not protocol.converged.any()

    def test_no_external_input_blocks(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01, patience=1)
        newly = protocol.observe(np.zeros(3), np.zeros(3, dtype=bool))
        assert newly.size == 0

    def test_undefined_ratio_blocks(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01, patience=1)
        newly = protocol.observe(np.zeros(3), all_true(3), np.zeros(3, dtype=bool))
        assert newly.size == 0

    def test_stop_requires_neighbors(self, path4):
        protocol = ConvergenceProtocol(path4, xi=0.01, patience=1)
        deviations = np.array([0.0, 0.0, 1.0, 1.0])
        protocol.observe(deviations, all_true(4))
        # Nodes 0, 1 converged, but node 1's neighbour 2 has not.
        assert protocol.converged[0] and protocol.converged[1]
        assert protocol.stopped[0]  # its only neighbour (1) converged
        assert not protocol.stopped[1]

    def test_full_stop_after_everyone_converges(self, path4):
        protocol = ConvergenceProtocol(path4, xi=0.01, patience=1)
        protocol.observe(np.array([0.0, 0.0, 1.0, 1.0]), all_true(4))
        protocol.observe(np.zeros(4), all_true(4))
        assert protocol.all_stopped

    def test_shape_validation(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01)
        with pytest.raises(ValueError):
            protocol.observe(np.zeros(5), all_true(3))
        with pytest.raises(ValueError):
            protocol.observe(np.zeros(3), all_true(3), np.zeros(5, dtype=bool))


class TestPatience:
    def test_patience_requires_streak(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01, patience=3)
        assert protocol.observe(np.zeros(3), all_true(3)).size == 0
        assert protocol.observe(np.zeros(3), all_true(3)).size == 0
        assert protocol.observe(np.zeros(3), all_true(3)).size == 3

    def test_failed_check_resets_streak(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.01, patience=2)
        protocol.observe(np.zeros(3), all_true(3))
        protocol.observe(np.full(3, 1.0), all_true(3))  # reset
        protocol.observe(np.zeros(3), all_true(3))
        newly = protocol.observe(np.zeros(3), all_true(3))
        assert newly.size == 3

    def test_silent_step_preserves_streak(self, triangle):
        # No external input: check skipped, streak neither grows nor resets.
        protocol = ConvergenceProtocol(triangle, xi=0.01, patience=2)
        protocol.observe(np.zeros(3), all_true(3))
        protocol.observe(np.full(3, 9.9), np.zeros(3, dtype=bool))  # silent
        newly = protocol.observe(np.zeros(3), all_true(3))
        assert newly.size == 3


class TestRebind:
    """The protocol binds its topology once, at construction.

    Regression for the stale-counter early stop: ``_refresh_stopped``
    used to read ``graph.degrees`` fresh on every refresh, so a caller
    swapping or mutating the graph had converged-neighbour counters
    earned on the *old* topology compared against the *new* degree
    vector. Engines build one protocol per round; a new topology gets a
    new protocol.
    """

    def test_degrees_copied_at_bind_time(self, path4):
        protocol = ConvergenceProtocol(path4, xi=0.01)
        assert protocol._degrees is not path4.degrees
        np.testing.assert_array_equal(protocol._degrees, path4.degrees)

    def test_rebind_tracks_new_isolated_nodes(self, triangle):
        # A sparser topology gets its own protocol, which sees its
        # isolated node; the protocol bound to the triangle is unchanged.
        protocol = ConvergenceProtocol(triangle, xi=0.01)
        rebound = ConvergenceProtocol(Graph(3, [(0, 1)]), xi=0.01)
        assert rebound.stopped[2] and rebound.converged[2]
        assert not rebound.stopped[0] and not rebound.stopped[1]
        assert not protocol.stopped.any()
        assert protocol.num_unconverged == 3


def motionless_state(n, d=1):
    return np.full((n, d), 0.5), np.ones((n, d))


class TestObserveState:
    """The local test run from the gossip state itself (every engine's path)."""

    def test_convergence_requires_patience(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.1, patience=2)
        values, weights = motionless_state(3)
        protocol.start(values, weights)
        assert protocol.observe_state(values, weights, all_true(3)).size == 0
        assert sorted(protocol.observe_state(values, weights, all_true(3))) == [0, 1, 2]
        assert protocol.converged.all()

    def test_zero_weight_cannot_converge(self, triangle):
        # Node 0 has never held weight: its estimate is the motionless
        # sentinel, yet it cannot pass the test.
        protocol = ConvergenceProtocol(triangle, xi=0.1, patience=1)
        values, weights = motionless_state(3)
        values[0], weights[0] = 0.0, 0.0
        protocol.start(values, weights)
        assert sorted(protocol.observe_state(values, weights, all_true(3))) == [1, 2]
        assert protocol.ratios[0, 0] == UNDEFINED_RATIO
        assert not protocol.converged[0]

    def test_stop_needs_every_neighbour(self, path4):
        protocol = ConvergenceProtocol(path4, xi=0.01, patience=1)
        values, weights = motionless_state(4)
        protocol.start(values, weights)
        # Only node 1 hears anything: it converges, but its neighbours
        # 0 and 2 have not announced, so it keeps gossiping.
        heard = np.array([False, True, False, False])
        assert list(protocol.observe_state(values, weights, heard)) == [1]
        assert not protocol.stopped[1]
        protocol.observe_state(values, weights, np.array([True, False, True, False]))
        assert protocol.stopped[0] and protocol.stopped[1]
        assert not protocol.stopped[2]  # node 3 has not announced

    def test_movement_is_summed_per_channel(self, triangle):
        protocol = ConvergenceProtocol(
            triangle, xi=0.1, num_components=4, num_channels=2, patience=1
        )
        values, weights = motionless_state(3, 4)
        protocol.start(values, weights)
        moved = values.copy()
        moved[:, 0] += 0.15  # channel 0 moves 0.3 in total (threshold 0.2),
        moved[:, 1] -= 0.15  # half of it backwards: |new - old| is summed
        moved[:, 2] += 0.05  # channel 1 moves 0.1
        assert protocol.observe_state(moved, weights, all_true(3)).size == 0
        assert not protocol.channel_converged[:, 0].any()
        assert protocol.channel_converged[:, 1].all()
        np.testing.assert_array_equal(protocol.ratios, moved)

    def test_dead_column_never_blocks(self, triangle):
        # A weight column that starts all-zero stays the sentinel and is
        # vacuously defined; the live column decides.
        protocol = ConvergenceProtocol(triangle, xi=0.1, num_components=2, patience=1)
        values, weights = motionless_state(3, 2)
        weights[:, 1] = 0.0
        protocol.start(values, weights)
        assert protocol.observe_state(values, weights, all_true(3)).size == 3
        assert (protocol.ratios[:, 1] == UNDEFINED_RATIO).all()

    def test_default_warmup_is_log2_n(self, pa_graph_small):
        # warmup_steps=None: ceil(log2 60) + 1 = 7 swallowed checks.
        n = pa_graph_small.num_nodes
        protocol = ConvergenceProtocol(pa_graph_small, xi=0.1, warmup_steps=None)
        values, weights = motionless_state(n)
        protocol.start(values, weights)
        swallowed = 0
        while protocol.observe_state(values, weights, all_true(n)).size == 0:
            swallowed += 1
        assert swallowed == 7

    def test_start_checks_shape(self, triangle):
        protocol = ConvergenceProtocol(triangle, xi=0.1, num_components=2)
        with pytest.raises(ValueError, match="expected"):
            protocol.start(*motionless_state(3, 1))
