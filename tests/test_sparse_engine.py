"""Tests for the sparse CSR gossip engine.

The load-bearing checks: the engine validates its inputs, samples k_i
distinct neighbours per sender, its estimates agree with the
protocol-faithful message engine (an independent implementation of the
same update rule), mass is conserved every round, and the round's
message accounting matches the protocol.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from repro.core.differential import fixed_push_counts
from repro.core.engine import MessageLevelGossip
from repro.core.errors import ConvergenceError
from repro.core.kernels import PushPlan
from repro.core.sparse_engine import SparseGossipEngine
from repro.core.state import UNDEFINED_RATIO
from repro.core.vector_gclr import initial_state_vector_gclr, pick_designated_node
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.network.preferential_attachment import (
    preferential_attachment_graph,
    preferential_attachment_graph_fast,
)
from repro.network.random_graphs import erdos_renyi_graph
from repro.trust.matrix import random_trust_matrix


class TestApiParity:
    """Construction-time contract: typed errors for bad topologies and inputs."""

    def test_push_counts_property_read_only(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        assert engine.graph is fig2_network
        with pytest.raises(ValueError):
            engine.push_counts[0] = 5

    def test_rejects_bad_push_count_shape(self, fig2_network):
        with pytest.raises(ValueError, match="shape"):
            SparseGossipEngine(fig2_network, push_counts=np.ones(3, dtype=np.int64))

    def test_rejects_push_counts_above_degree(self, fig2_network):
        counts = np.ones(10, dtype=np.int64)
        counts[5] = 9  # node 5 has degree 2
        with pytest.raises(ValueError, match="degree"):
            SparseGossipEngine(fig2_network, push_counts=counts)

    def test_rejects_zero_push_count_for_connected_node(self, fig2_network):
        counts = np.ones(10, dtype=np.int64)
        counts[3] = 0
        with pytest.raises(ValueError, match="at least once"):
            SparseGossipEngine(fig2_network, push_counts=counts)

    def test_rejects_reserved_extra_name(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        with pytest.raises(ValueError, match="reserved"):
            engine.run(np.ones(10), np.ones(10), extras={"weight": np.ones(10)})

    def test_rejects_weight_shape_mismatch(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        with pytest.raises(ValueError, match="shape"):
            engine.run(np.ones(10), np.ones((10, 2)))

    def test_rejects_non_graph_topology(self):
        with pytest.raises(TypeError, match="scipy sparse"):
            SparseGossipEngine(np.eye(4))

    def test_accepts_scipy_sparse_adjacency(self, fig2_network):
        adjacency = fig2_network.to_scipy_csr()
        engine = SparseGossipEngine(adjacency, rng=3)
        values = np.arange(10, dtype=float)
        outcome = engine.run(values, np.ones(10), xi=1e-7)
        assert np.allclose(outcome.estimates, values.mean(), atol=1e-4)

    def test_convergence_error_when_budget_exhausted(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=0)
        with pytest.raises(ConvergenceError):
            engine.run(np.arange(10, dtype=float), np.ones(10), xi=1e-12, max_steps=3)

    def test_rejects_wrong_shapes(self, triangle):
        engine = SparseGossipEngine(triangle, rng=0)
        with pytest.raises(ValueError):
            engine.run(np.ones(4), np.ones(3))
        with pytest.raises(ValueError):
            engine.run(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            engine.run(np.ones(3), np.ones(3), extras={"x": np.ones(4)})

    def test_inputs_not_mutated(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=19)
        values = np.arange(10.0)
        weights = np.ones(10)
        snapshot = values.copy()
        engine.run(values, weights, xi=1e-4)
        assert np.array_equal(values, snapshot)


def engine_plan(graph, **engine_kwargs):
    """The sampling plan over ``graph``'s CSR arrays at the engine's push counts."""
    counts = SparseGossipEngine(graph, **engine_kwargs).push_counts
    return PushPlan(graph.indptr, graph.indices, graph.degrees, counts), counts


class TestTargetSelection:
    """Each sender pushes to exactly k_i distinct neighbours."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_targets_distinct_and_adjacent(self, fig2_network, seed):
        plan, counts = engine_plan(fig2_network)
        active = fig2_network.degrees > 0
        senders, targets = plan.sample(np.random.default_rng(seed), active)
        for node in range(10):
            mask = senders == node
            assert int(mask.sum()) == int(counts[node])
            chosen = targets[mask]
            assert len(set(chosen.tolist())) == chosen.size  # distinct
            neighbors = set(fig2_network.neighbors(node).tolist())
            assert set(chosen.tolist()) <= neighbors

    def test_inactive_nodes_send_nothing(self, fig2_network):
        plan, _ = engine_plan(fig2_network)
        active = np.zeros(10, dtype=bool)
        active[2] = True  # the k=3 hub
        senders, targets = plan.sample(np.random.default_rng(9), active)
        assert set(senders.tolist()) == {2}
        assert senders.size == 3

    def test_plan_keeps_a_few_words_per_push(self):
        # The flat layout keeps three words and a kind byte per push slot,
        # plus the slot ids of k >= 2 senders, and three words per
        # neighbour of a 2k > d sender: nothing sized by the other edges.
        worlds = []
        graph = preferential_attachment_graph_fast(50_000, 8, rng=11)
        worlds.append((graph, SparseGossipEngine(graph).push_counts))
        graph = preferential_attachment_graph_fast(20_000, 2, rng=4)
        worlds.append((graph, fixed_push_counts(graph, 2)))
        for graph, counts in worlds:
            tracemalloc.start()
            try:
                plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            keyed = (counts >= 2) & (2 * counts > graph.degrees)
            bound = 40 * plan.max_pushes + 24 * int(graph.degrees[keyed].sum())
            assert retained <= bound, f"plan keeps {retained} bytes, bound {bound}"

    @pytest.mark.parametrize("rule", ["fixed-2", "fixed-3", "differential"])
    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.05])
    def test_k_distinct_adjacent_targets_per_sender(self, rule, fraction):
        # fixed-2 on PA(2000, m=2) sends most rows down the 2k > d path.
        graph = preferential_attachment_graph_fast(2000, 2, rng=4)
        n = graph.num_nodes
        if rule == "differential":
            counts = SparseGossipEngine(graph).push_counts
        else:
            counts = fixed_push_counts(graph, int(rule[-1]))
        plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
        rng = np.random.default_rng(7)
        active = (graph.degrees > 0) & (rng.random(n) < fraction)
        edges = np.repeat(np.arange(n), graph.degrees) * n + graph.indices
        for _ in range(5):
            senders, targets = plan.sample(rng, active)
            assert np.all(np.diff(senders) >= 0)
            np.testing.assert_array_equal(
                np.bincount(senders, minlength=n), np.where(active, counts, 0)
            )
            pairs = senders * n + targets
            assert np.isin(pairs, edges).all()
            assert np.unique(pairs).size == pairs.size

    @pytest.mark.parametrize("degree,k", [(5, 3), (6, 2), (4, 3), (7, 5), (8, 4), (5, 5)])
    def test_star_hub_subsets_pass_chi_square(self, degree, k):
        # 3000 disjoint stars whose hubs each push k of their leaves; 20
        # draws, alternately hubs-only and all-active, give 60,000 hub
        # subsets, binned by leaf bitmask.
        stars, size = 3000, degree + 1
        hubs = np.arange(stars) * size
        graph = Graph(
            stars * size, [(h, h + j) for h in hubs.tolist() for j in range(1, size)]
        )
        counts = np.ones(graph.num_nodes, dtype=np.int64)
        counts[hubs] = k
        plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
        hubs_only = np.zeros(graph.num_nodes, dtype=bool)
        hubs_only[hubs] = True
        everyone = graph.degrees > 0
        rng = np.random.default_rng(2024)
        masks = []
        for draw in range(20):
            senders, targets = plan.sample(rng, hubs_only if draw % 2 else everyone)
            from_hub = senders % size == 0
            leaves = targets[from_hub] - senders[from_hub] - 1
            masks.append(np.bitwise_or.reduce((1 << leaves).reshape(-1, k), axis=1))
        observed = np.bincount(np.concatenate(masks), minlength=1 << degree)
        subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(degree), k)]
        assert observed[subsets].sum() == observed.sum() == 20 * stars
        if len(subsets) > 1:
            assert chisquare(observed[subsets]).pvalue > 1e-3

    def test_star_hub_pushes_to_every_leaf_once(self):
        # k = d on a 20,000-leaf hub: the smallest-keys draw returns the
        # whole neighbourhood, on full and partial steps alike.
        leaves = 20_000
        graph = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        counts = np.ones(leaves + 1, dtype=np.int64)
        counts[0] = leaves
        plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
        targets_out = np.empty(plan.max_pushes, dtype=np.int64)
        hub_only = np.zeros(leaves + 1, dtype=bool)
        hub_only[0] = True
        rng = np.random.default_rng(0)
        full = plan.sample(rng, graph.degrees > 0, all_active=True, targets_out=targets_out)
        for senders, targets in (full, plan.sample(rng, hub_only)):
            np.testing.assert_array_equal(targets[senders == 0], np.arange(1, leaves + 1))

    def test_hub_subsets_are_uniform(self, star5):
        # Star hub with degree 4 pushing k=2: all 6 pairs should appear.
        plan, _ = engine_plan(star5, push_counts=np.array([2, 1, 1, 1, 1]))
        rng = np.random.default_rng(11)
        active = np.zeros(5, dtype=bool)
        active[0] = True
        seen = set()
        for _ in range(200):
            _, targets = plan.sample(rng, active)
            seen.add(tuple(sorted(targets.tolist())))
        assert len(seen) == 6


class TestCrossEngineAgreement:
    """Sparse and message engines compute the same aggregate.

    The message engine is the protocol-faithful reference: one mailbox
    object per node and its own sampler (the stop rule is the one
    ``ConvergenceProtocol`` both engines drive). It has no
    ``run_to_max`` mode, so these checks run the stop protocol and
    hold both engines to its accuracy; the 1e-8 fixpoint agreement of
    the two engines on random PA worlds is pinned by
    ``tests/test_properties_backends.py::TestCrossBackendAgreement::test_sync_backends_agree_to_1e8``.
    """

    def test_protocol_mode_parity(self):
        graph = preferential_attachment_graph(500, m=2, rng=7)
        values = np.random.default_rng(5).random(500)
        weights = np.ones(500)
        message = MessageLevelGossip(graph, rng=1).run(values, weights, xi=1e-7)
        sparse = SparseGossipEngine(graph, rng=2).run(values, weights, xi=1e-7)
        assert np.allclose(sparse.estimates, values.mean(), atol=1e-4)
        assert np.allclose(message.estimates, values.mean(), atol=1e-4)
        # Same stop protocol on the same topology: comparable step counts.
        assert 0.5 < sparse.steps / message.steps < 2.0
        assert sparse.converged.all()

    def test_vector_state_matches(self):
        graph = preferential_attachment_graph(300, m=2, rng=8)
        d = 5
        values = np.random.default_rng(6).random((300, d))
        weights = np.ones((300, d))
        means = np.broadcast_to(values.mean(axis=0), (300, d))
        # Fully mixed under a fixed budget, every column sits on its mean.
        mixed = SparseGossipEngine(graph, rng=2).run(
            values, weights, xi=1e-12, max_steps=250, run_to_max=True
        )
        np.testing.assert_allclose(mixed.estimates, means, rtol=1e-8)
        # Under the stop protocol both engines are held to its accuracy:
        # a node that stops early keeps absorbing pushes, which can
        # leave the sparse engine ~4e-5 off here.
        message = MessageLevelGossip(graph, rng=1).run(values, weights, xi=1e-8)
        sparse = SparseGossipEngine(graph, rng=2).run(values, weights, xi=1e-8)
        np.testing.assert_allclose(message.estimates, means, atol=1e-4)
        np.testing.assert_allclose(sparse.estimates, means, atol=1e-4)
        np.testing.assert_allclose(sparse.estimates, message.estimates, atol=1e-4)


class TestProtocolBehaviour:
    def test_sum_estimation_single_weight(self, fig2_network):
        # One node holds weight 1: ratios converge to the SUM of values.
        engine = SparseGossipEngine(fig2_network, rng=3)
        values = np.arange(10, dtype=float)
        weights = np.zeros(10)
        weights[0] = 1.0
        out = engine.run(values, weights, xi=1e-9)
        assert np.allclose(out.estimates, 45.0, atol=1e-3)

    def test_unknown_extra_name_raises(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=5)
        out = engine.run(np.ones(10), np.ones(10), xi=1e-4)
        with pytest.raises(KeyError):
            out.extra_estimates("nope")

    def test_zero_weight_component_stays_sentinel(self, fig2_network):
        # A dead column (no weight anywhere) must not block convergence.
        engine = SparseGossipEngine(fig2_network, rng=12)
        values = np.zeros((10, 2))
        values[:, 0] = np.arange(10.0)
        weights = np.zeros((10, 2))
        weights[:, 0] = 1.0
        out = engine.run(values, weights, xi=1e-6)
        assert np.all(out.estimates[:, 1] == UNDEFINED_RATIO)
        assert np.allclose(out.estimates[:, 0], 4.5, atol=1e-2)

    def test_isolated_node_does_not_block(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        engine = SparseGossipEngine(g, rng=14)
        out = engine.run(np.array([1.0, 2.0, 3.0, 9.0]), np.ones(4), xi=1e-8)
        # Node 3 keeps its own value; the triangle averages its own.
        assert out.estimates[3, 0] == pytest.approx(9.0)
        assert np.allclose(out.estimates[:3, 0], 2.0, atol=1e-3)

    @pytest.mark.parametrize("num_channels", [1, 2])
    def test_observe_runs_once_per_step_through_module_name(
        self, fig2_network, monkeypatch, num_channels
    ):
        # The benchmark's traced pass times convergence by swapping this
        # module-global name for a subclass that wraps observe; if the
        # engine built its protocol any other way, or bypassed observe,
        # convergence.observe_ms would silently read 0.
        import repro.core.sparse_engine as sparse_module

        calls = []

        class CountingProtocol(sparse_module.ConvergenceProtocol):
            def observe(self, *args, **kwargs):
                calls.append(1)
                return super().observe(*args, **kwargs)

        monkeypatch.setattr(sparse_module, "ConvergenceProtocol", CountingProtocol)
        values = np.column_stack([np.arange(10.0), np.arange(10.0)[::-1]])
        out = SparseGossipEngine(fig2_network, rng=6).run(
            values, np.ones((10, 2)), xi=1e-6, num_channels=num_channels
        )
        assert out.steps > 0
        assert len(calls) == out.steps


class TestMessageAccounting:
    def test_push_messages_positive(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=15)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        assert out.push_messages > 0
        assert out.total_messages == out.push_messages + out.protocol_messages

    def test_degree_announcements_counted_for_differential(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=16)
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        assert out.protocol_messages >= int(fig2_network.degrees.sum())

    def test_no_degree_announcements_for_fixed_counts(self, fig2_network):
        engine = SparseGossipEngine(
            fig2_network, push_counts=fixed_push_counts(fig2_network, 1), rng=17
        )
        out = engine.run(np.arange(10.0), np.ones(10), xi=1e-5)
        # Only convergence announcements remain.
        assert out.protocol_messages < int(fig2_network.degrees.sum()) + 1

    def test_messages_per_node_per_step(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        engine = SparseGossipEngine(pa_graph_small, rng=18)
        out = engine.run(np.random.default_rng(4).random(n), np.ones(n), xi=1e-4)
        assert 1.0 < out.messages_per_node_per_step < 2.5
        assert out.messages_per_node_per_wallclock_step <= out.messages_per_node_per_step


class TestDeterminismAndInvariants:
    def test_same_seed_bit_identical(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        values = np.random.default_rng(3).random(n)
        runs = [
            SparseGossipEngine(pa_graph_medium, rng=77).run(values, np.ones(n), xi=1e-7)
            for _ in range(2)
        ]
        assert runs[0].steps == runs[1].steps
        assert np.array_equal(runs[0].values, runs[1].values)
        assert np.array_equal(runs[0].weights, runs[1].weights)

    def test_different_seeds_different_paths(self, pa_graph_small):
        n = pa_graph_small.num_nodes
        values = np.random.default_rng(5).random(n)
        a = SparseGossipEngine(pa_graph_small, rng=1).run(values, np.ones(n), xi=1e-5)
        b = SparseGossipEngine(pa_graph_small, rng=2).run(values, np.ones(n), xi=1e-5)
        assert not np.array_equal(a.estimates, b.estimates)

    def test_mass_conserved_under_loss(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        values = np.random.default_rng(4).random(n)
        loss = PacketLossModel(0.3, rng=30)
        out = SparseGossipEngine(pa_graph_medium, loss_model=loss, rng=31).run(
            values, np.ones(n), xi=1e-7
        )
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9)
        assert float(out.weights.sum()) == pytest.approx(n, rel=1e-9)
        assert np.allclose(out.estimates, values.mean(), atol=5e-3)
        assert loss.lost_count > 0

    def test_extras_ride_along(self, fig2_network):
        engine = SparseGossipEngine(fig2_network, rng=12)
        out = engine.run(
            np.arange(10, dtype=float),
            np.ones(10),
            xi=1e-7,
            extras={"count": np.ones(10)},
        )
        # count starts equal to weight, so count/weight stays exactly 1.
        assert np.allclose(out.extra_estimates("count"), 1.0, atol=1e-9)
        assert float(out.extras["count"].sum()) == pytest.approx(10.0, rel=1e-9)

    def test_history_tracking(self, fig2_network):
        out = SparseGossipEngine(fig2_network, rng=13).run(
            np.arange(10, dtype=float), np.ones(10), xi=1e-5, track_history=True
        )
        assert out.ratio_history is not None
        assert len(out.ratio_history) == out.steps
        assert out.ratio_history[0].shape == (10, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=40),
        p=st.floats(min_value=0.15, max_value=0.6),
        graph_seed=st.integers(min_value=0, max_value=2**31 - 1),
        value_seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=1, max_value=8),
    )
    def test_mass_conserved_every_round(self, n, p, graph_seed, value_seed, steps):
        """Property: value and weight mass are invariant round by round.

        The engine asserts conservation internally after *every* step
        (raising MassConservationError on drift), so running ``steps``
        rounds exercises the per-round check; the final-sum assertion
        here is the independent external witness.
        """
        graph = erdos_renyi_graph(n, p, rng=graph_seed)
        values = np.random.default_rng(value_seed).random(n)
        weights = np.ones(n)
        out = SparseGossipEngine(graph, rng=graph_seed ^ 0x5EED).run(
            values, weights, xi=1e-9, max_steps=steps, run_to_max=True
        )
        assert out.steps == steps
        assert float(out.values.sum()) == pytest.approx(float(values.sum()), rel=1e-9, abs=1e-9)
        assert float(out.weights.sum()) == pytest.approx(float(weights.sum()), rel=1e-9)


class TestMemoryFootprint:
    def test_gclr_shaped_run_peak_memory(self):
        """An 8-target GCLR round allocates under four state matrices' worth.

        The ``(N, C)`` state (C = 24: value, weight and count columns for
        8 targets) is the one matrix the round needs; with the float64
        ratio buffers (2/3 of it), the boolean masks and the per-column
        share buffer the engine peaks near 2.5x. Per-component input
        copies, a copied outcome, a second prescale buffer and a
        ``(P, C)`` share matrix took it to about 7x.
        """
        graph = preferential_attachment_graph_fast(3000, 4, rng=1)
        trust = random_trust_matrix(graph, rng=2)
        targets = list(range(0, 3000, 375))
        values, weights, counts = initial_state_vector_gclr(
            trust, targets, pick_designated_node(graph)
        )
        engine = SparseGossipEngine(graph, rng=3)
        tracemalloc.start()
        try:
            out = engine.run(values, weights, extras={"count": counts}, xi=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.converged.all()
        state_bytes = graph.num_nodes * 3 * len(targets) * 8
        assert peak < 4 * state_bytes, f"peak {peak / state_bytes:.2f}x the state matrix"
