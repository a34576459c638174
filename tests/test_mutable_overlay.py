"""MutableOverlay: mutation semantics and incremental CSR snapshots."""

import numpy as np
import pytest

from repro.network.graph import Graph
from repro.network.mutable import MutableOverlay
from repro.network.preferential_attachment import preferential_attachment_graph


def reference_graph(overlay: MutableOverlay):
    """Rebuild the snapshot graph from scratch out of the adjacency dict."""
    pids = overlay.peer_ids()
    index = {int(p): i for i, p in enumerate(pids)}
    edges = set()
    for u in pids:
        for v in overlay.neighbors_of(int(u)):
            edges.add(tuple(sorted((index[int(u)], index[int(v)]))))
    return Graph(len(pids), sorted(edges))


class TestConstruction:
    def test_from_graph_preserves_topology(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        graph, pids = overlay.snapshot()
        assert graph == fig2_network
        assert pids.tolist() == list(range(fig2_network.num_nodes))

    def test_grow_preferential_matches_generator(self):
        overlay = MutableOverlay.grow_preferential(40, m=2, rng=9)
        graph, _ = overlay.snapshot()
        assert graph == preferential_attachment_graph(40, m=2, rng=9)

    def test_counts_track_graph(self, pa_graph_small):
        overlay = MutableOverlay.from_graph(pa_graph_small)
        assert overlay.num_peers == pa_graph_small.num_nodes
        assert overlay.num_edges == pa_graph_small.num_edges


class TestMutation:
    def test_add_peer_assigns_fresh_monotonic_ids(self, pa_graph_small):
        overlay = MutableOverlay.from_graph(pa_graph_small)
        first = overlay.add_peer(m=2, rng=1)
        overlay.remove_peer(first, rng=1)
        second = overlay.add_peer(m=2, rng=2)
        assert first == pa_graph_small.num_nodes
        assert second == first + 1  # departed ids are never reused
        assert not overlay.has_peer(first)

    def test_add_peer_wires_m_distinct_targets(self, pa_graph_small):
        overlay = MutableOverlay.from_graph(pa_graph_small)
        pid = overlay.add_peer(m=3, rng=5)
        assert overlay.degree_of(pid) == 3
        assert len(set(overlay.neighbors_of(pid))) == 3

    def test_add_peer_fills_up_from_isolated_peers(self):
        # Only peers 0 and 1 have edges, so a 3-edge join takes both and
        # one of the isolated peers 2 and 3 (it used to raise).
        overlay = MutableOverlay.from_graph(Graph(4, [(0, 1)]))
        pid = overlay.add_peer(m=3, rng=0)
        neighbors = set(overlay.neighbors_of(pid))
        assert len(neighbors) == 3 and {0, 1} <= neighbors
        overlay.check_invariants()

    def test_add_peer_explicit_targets(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        pid = overlay.add_peer(targets=[0, 3])
        assert overlay.neighbors_of(pid) == (0, 3)

    def test_attachment_is_degree_biased(self):
        # On a 6-node star the hub holds half the degree mass (5 of 10),
        # so PA joins must pick it ~50% of the time (uniform would be
        # 1/6). Join+leave keeps the overlay fixed between trials.
        overlay = MutableOverlay.from_graph(Graph(6, [(0, i) for i in range(1, 6)]))
        rng = np.random.default_rng(3)
        hub_picks = 0
        for _ in range(100):
            pid = overlay.add_peer(m=1, rng=rng)
            hub_picks += 0 in overlay.neighbors_of(pid)
            overlay.remove_peer(pid, rewire_isolated=False)
        assert 30 <= hub_picks <= 70

    def test_remove_peer_returns_former_neighbors(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        expected = tuple(int(v) for v in fig2_network.neighbors(2))
        assert overlay.remove_peer(2, rng=0) == expected

    def test_remove_peer_rewires_stranded_neighbors(self):
        # Leaf 1 only knows the hub; the hub leaving must not strand it.
        overlay = MutableOverlay.from_graph(Graph(5, [(0, i) for i in range(1, 5)]))
        overlay.remove_peer(0, rewire_isolated=True, rng=7)
        for pid in overlay.peer_ids():
            assert overlay.degree_of(int(pid)) >= 1

    def test_remove_peer_can_leave_isolated_when_asked(self):
        overlay = MutableOverlay.from_graph(Graph(3, [(0, 1), (0, 2)]))
        overlay.remove_peer(0, rewire_isolated=False)
        graph, _ = overlay.snapshot()
        assert graph.num_edges == 0

    def test_edge_add_remove_roundtrip(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        assert not overlay.has_edge(0, 9)
        overlay.add_edge(0, 9)
        assert overlay.has_edge(0, 9)
        overlay.remove_edge(0, 9)
        assert overlay.num_edges == fig2_network.num_edges
        assert overlay.snapshot()[0] == fig2_network

    def test_rejects_bad_mutations(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        with pytest.raises(ValueError):
            overlay.add_edge(0, 0)
        with pytest.raises(ValueError):
            overlay.add_edge(0, 1)  # duplicate
        with pytest.raises(KeyError):
            overlay.remove_edge(0, 9)  # absent
        with pytest.raises(KeyError):
            overlay.remove_peer(99)
        with pytest.raises(ValueError):
            overlay.add_peer(m=0)

    def test_refuses_to_empty_the_overlay(self):
        overlay = MutableOverlay.from_graph(Graph(2, [(0, 1)]))
        with pytest.raises(ValueError):
            overlay.remove_peer(0)


class TestBridgeComponents:
    def test_connected_overlay_is_untouched(self, pa_graph_small):
        overlay = MutableOverlay.from_graph(pa_graph_small)
        assert overlay.bridge_components(rng=0) == 0
        assert overlay.snapshot()[0] == pa_graph_small

    def test_islands_get_one_bridge_each(self):
        # Two triangles and a pair: three components, giant = triangle 0.
        overlay = MutableOverlay.from_graph(
            Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)])
        )
        assert overlay.bridge_components(rng=1) == 2
        assert overlay.snapshot()[0].is_connected()

    def test_departure_splits_are_repaired(self):
        overlay = MutableOverlay.grow_preferential(60, m=2, rng=2)
        rng = np.random.default_rng(5)
        for _ in range(25):
            pids = overlay.peer_ids()
            overlay.remove_peer(int(pids[rng.integers(len(pids))]), rng=rng)
        overlay.bridge_components(rng=rng)
        assert overlay.snapshot()[0].is_connected()


class TestSnapshots:
    def test_snapshot_is_cached_until_mutation(self, pa_graph_small):
        overlay = MutableOverlay.from_graph(pa_graph_small)
        first = overlay.snapshot()[0]
        assert overlay.snapshot()[0] is first
        overlay.add_peer(m=2, rng=0)
        assert overlay.snapshot()[0] is not first

    def test_peer_ids_map_indices_to_stable_ids(self, pa_graph_small):
        overlay = MutableOverlay.from_graph(pa_graph_small)
        overlay.remove_peer(5, rng=0)
        pid = overlay.add_peer(m=2, rng=1)
        graph, pids = overlay.snapshot()
        assert graph.num_nodes == pids.shape[0] == overlay.num_peers
        assert 5 not in pids
        assert pids[-1] == pid
        # Degrees line up under the id map.
        for index, peer in enumerate(pids):
            assert graph.degree(index) == overlay.degree_of(int(peer))

    def test_incremental_patch_equals_scratch_rebuild(self):
        overlay = MutableOverlay.grow_preferential(120, m=2, rng=11)
        rng = np.random.default_rng(4)
        for _ in range(25):
            for _ in range(int(rng.integers(1, 5))):
                op = rng.integers(4)
                pids = overlay.peer_ids()
                if op == 0:
                    overlay.add_peer(m=2, rng=rng)
                elif op == 1 and overlay.num_peers > 10:
                    overlay.remove_peer(int(pids[rng.integers(len(pids))]), rng=rng)
                elif op == 2:
                    u, v = (int(x) for x in rng.choice(pids, 2, replace=False))
                    if not overlay.has_edge(u, v):
                        overlay.add_edge(u, v)
                else:
                    u = int(pids[rng.integers(len(pids))])
                    nbrs = overlay.neighbors_of(u)
                    if len(nbrs) > 1:
                        overlay.remove_edge(u, int(nbrs[rng.integers(len(nbrs))]))
            graph, _ = overlay.snapshot()
            assert graph == reference_graph(overlay)
            assert graph.num_edges == overlay.num_edges

    def test_add_then_remove_same_edge_between_snapshots(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        overlay.add_edge(0, 9)
        overlay.remove_edge(0, 9)
        assert overlay.snapshot()[0] == fig2_network

    def test_remove_then_readd_same_edge_between_snapshots(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        overlay.remove_edge(0, 1)
        overlay.add_edge(0, 1)
        assert overlay.snapshot()[0] == fig2_network


class TestExplicitDuplicateEdgePath:
    """_record_edge skips (never recounts) an already-present edge."""

    def test_duplicate_record_is_skipped_and_counts_stay_consistent(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        edges_before = overlay.num_edges
        deg_before = overlay.degree_of(0)
        assert overlay._record_edge(0, 9) is True  # fresh edge
        assert overlay._record_edge(0, 9) is False  # duplicate: skipped
        assert overlay._record_edge(9, 0) is False  # either orientation
        assert overlay.num_edges == edges_before + 1
        assert overlay.degree_of(0) == deg_before + 1
        overlay.check_invariants()
        # The snapshot sees the edge exactly once.
        graph, _ = overlay.snapshot()
        assert graph.num_edges == overlay.num_edges

    def test_bridge_components_counts_only_new_edges(self):
        overlay = MutableOverlay.from_graph(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
        added = overlay.bridge_components(rng=3)
        assert added == 1
        overlay.check_invariants()
        assert overlay.snapshot()[0].is_connected()
        assert overlay.bridge_components(rng=4) == 0

    def test_orphan_rewire_keeps_invariants(self):
        # Removing the middle of a path strands both ends; the rewires
        # must leave a consistent edge set.
        overlay = MutableOverlay.from_graph(Graph(5, [(0, 2), (1, 2), (2, 3), (3, 4)]))
        overlay.remove_peer(2, rewire_isolated=True, rng=1)
        overlay.check_invariants()
        assert all(overlay.degree_of(int(p)) > 0 for p in overlay.peer_ids())

    def test_check_invariants_catches_corruption(self, fig2_network):
        overlay = MutableOverlay.from_graph(fig2_network)
        overlay._num_edges += 1  # simulate the double-count bug
        with pytest.raises(AssertionError, match="edge set"):
            overlay.check_invariants()


from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule


class OverlayMachine(RuleBasedStateMachine):
    """Random join/leave/rewire/bridge walks never desynchronise counts.

    The load-bearing check is the invariant: after *every* mutation,
    ``num_edges`` equals the size of the actual undirected edge set and
    the degree array matches the adjacency — the exact quantities a
    silently recounted duplicate edge would corrupt.
    """

    @initialize(seed=st.integers(min_value=0, max_value=2**20))
    def grow(self, seed):
        self.overlay = MutableOverlay.grow_preferential(12, m=2, rng=seed)
        self.rng = np.random.default_rng(seed + 1)

    @rule(m=st.integers(min_value=1, max_value=3))
    def join(self, m):
        self.overlay.add_peer(m=m, rng=self.rng)

    @rule()
    def leave(self):
        if self.overlay.num_peers > 4:
            pids = self.overlay.peer_ids()
            victim = int(pids[self.rng.integers(len(pids))])
            self.overlay.remove_peer(victim, rewire_isolated=True, rng=self.rng)

    @rule()
    def wire(self):
        pids = self.overlay.peer_ids()
        u, v = (int(x) for x in self.rng.choice(pids, 2, replace=False))
        if not self.overlay.has_edge(u, v):
            self.overlay.add_edge(u, v)

    @rule()
    def unwire(self):
        pids = self.overlay.peer_ids()
        u = int(pids[self.rng.integers(len(pids))])
        nbrs = self.overlay.neighbors_of(u)
        if nbrs:
            self.overlay.remove_edge(u, int(nbrs[self.rng.integers(len(nbrs))]))

    @rule()
    def bridge(self):
        self.overlay.bridge_components(rng=self.rng)

    @rule()
    def snapshot_agrees(self):
        graph, _ = self.overlay.snapshot()
        assert graph.num_edges == self.overlay.num_edges

    @invariant()
    def counts_describe_one_edge_set(self):
        if hasattr(self, "overlay"):
            self.overlay.check_invariants()


OverlayMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestOverlayStateful = pytest.mark.property(OverlayMachine.TestCase)
