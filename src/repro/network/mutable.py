"""Mutable peer overlay with stable ids and incremental CSR snapshots.

:class:`repro.network.graph.Graph` is deliberately immutable — the
gossip engines read its CSR arrays on the hot path and must never see a
topology change mid-round. A *dynamic* network (peers joining via
preferential attachment, peers leaving, edges being rewired) therefore
needs a second structure: :class:`MutableOverlay` holds the live
adjacency, applies mutations in O(degree), and materialises an immutable
:class:`Graph` per epoch via :meth:`MutableOverlay.snapshot`.

Two design points matter for the dynamic runtime built on top
(:mod:`repro.runtime`):

- **Stable peer ids.** Graph nodes are compact indices ``0..n-1`` and
  get renumbered when peers leave; overlay peers carry monotonically
  increasing *peer ids* that never change. ``snapshot()`` returns the
  graph together with the ``index -> peer id`` map, so per-peer state
  (reputations, gossip pairs) survives arbitrary churn.
- **Incremental CSR patching.** A snapshot is built by *patching* the
  previous snapshot's directed-edge arrays with the pending additions
  and removals (vectorised mask + concatenate + one sort of the
  ``row * n + column`` keys), then handing the result to
  :meth:`Graph.from_csr` with validation off. No per-edge Python loop
  ever runs again after the overlay exists, so an epoch with a few
  hundred churn events costs milliseconds even at 100 000 peers —
  versus re-running ``Graph.__init__``'s Python edge loop from scratch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator

Edge = Tuple[int, int]


def _undirected(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge key."""
    return (u, v) if u < v else (v, u)


class MutableOverlay:
    """Evolving P2P overlay: join / leave / rewire with graph snapshots.

    Construct via :meth:`from_graph` (wrap an existing topology) or
    :meth:`grow_preferential` (grow a fresh PA overlay). Peer ids start
    at ``0..n-1`` for the initial peers and increase monotonically for
    every subsequent :meth:`add_peer`; ids of departed peers are never
    reused.

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> overlay = MutableOverlay.from_graph(preferential_attachment_graph(20, m=2, rng=0))
    >>> newcomer = overlay.add_peer(m=2, rng=1)
    >>> former_neighbors = overlay.remove_peer(0, rng=1)
    >>> graph, peer_ids = overlay.snapshot()
    >>> graph.num_nodes == overlay.num_peers == 20
    True
    >>> int(peer_ids[-1]) == newcomer
    True
    """

    def __init__(self) -> None:
        self._adj: Dict[int, Set[int]] = {}
        self._next_pid = 0
        # Degrees / liveness indexed directly by peer id (grown on demand)
        # so degree-proportional sampling is one vectorised draw.
        self._deg = np.zeros(0, dtype=np.int64)
        self._alive = np.zeros(0, dtype=bool)
        self._num_edges = 0
        # Snapshot cache + pending deltas for incremental CSR patching.
        self._snap_rows = np.zeros(0, dtype=np.int64)  # directed, peer-id based
        self._snap_cols = np.zeros(0, dtype=np.int64)
        self._pending_add: Set[Edge] = set()
        self._pending_remove: Set[Edge] = set()
        self._cached_graph: Optional[Graph] = None
        self._cached_pids: Optional[np.ndarray] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "MutableOverlay":
        """Wrap an existing :class:`Graph`; node ``i`` becomes peer id ``i``."""
        overlay = cls()
        n = graph.num_nodes
        overlay._next_pid = n
        overlay._deg = np.array(graph.degrees, dtype=np.int64)
        overlay._alive = np.ones(n, dtype=bool)
        overlay._adj = {u: set(int(v) for v in graph.neighbors(u)) for u in range(n)}
        overlay._num_edges = graph.num_edges
        overlay._snap_rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(graph.indptr)
        )
        overlay._snap_cols = np.array(graph.indices, dtype=np.int64)
        overlay._cached_graph = graph
        overlay._cached_pids = np.arange(n, dtype=np.int64)
        return overlay

    @classmethod
    def grow_preferential(cls, num_nodes: int, m: int = 2, *, rng: RngLike = None) -> "MutableOverlay":
        """Grow a fresh preferential-attachment overlay of ``num_nodes`` peers."""
        from repro.network.preferential_attachment import preferential_attachment_graph

        return cls.from_graph(preferential_attachment_graph(num_nodes, m=m, rng=rng))

    # -- accessors -----------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Number of live peers."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of live undirected edges."""
        return self._num_edges

    @property
    def max_peer_id(self) -> int:
        """Largest peer id ever assigned (``-1`` before any peer exists)."""
        return self._next_pid - 1

    def has_peer(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is currently in the overlay."""
        return peer_id in self._adj

    def degree_of(self, peer_id: int) -> int:
        """Current degree of a live peer."""
        return len(self._adj[peer_id])

    def neighbors_of(self, peer_id: int) -> Tuple[int, ...]:
        """Sorted neighbour peer ids of a live peer."""
        return tuple(sorted(self._adj[peer_id]))

    def peer_ids(self) -> np.ndarray:
        """Live peer ids, ascending (the ``snapshot()`` index order)."""
        return np.flatnonzero(self._alive).astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge between peers ``u`` and ``v`` exists."""
        return u in self._adj and v in self._adj[u]

    def edges(self) -> List[Edge]:
        """Live undirected edges as canonical ``(min, max)`` pairs, sorted.

        A materialised list (not a generator), so callers may mutate the
        overlay while iterating — partition cuts remove edges mid-walk.
        """
        return sorted(
            (u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v
        )

    def check_invariants(self) -> None:
        """Assert the overlay's internal counts describe one edge set.

        Verifies, in O(N + E):

        - the adjacency sets are symmetric and self-loop free;
        - ``num_edges`` equals the size of the undirected edge set;
        - the degree array matches each live peer's adjacency size and
          is zero for departed peers.

        Raises ``AssertionError`` on the first violation. Used by the
        hypothesis stateful suite after every mutation; cheap enough to
        call from application code when debugging overlay churn.
        """
        edge_set = set()
        for u, nbrs in self._adj.items():
            assert u not in nbrs, f"self-loop on peer {u}"
            assert self._alive[u], f"dead peer {u} still has an adjacency entry"
            assert self._deg[u] == len(nbrs), (
                f"degree array says {self._deg[u]} for peer {u}, adjacency has {len(nbrs)}"
            )
            for v in nbrs:
                assert v in self._adj and u in self._adj[v], f"asymmetric edge ({u}, {v})"
                edge_set.add(_undirected(u, v))
        assert self._num_edges == len(edge_set), (
            f"num_edges={self._num_edges} but the edge set has {len(edge_set)} edges"
        )
        dead = np.flatnonzero(~self._alive[: self._next_pid])
        assert not np.any(self._deg[dead]), "departed peers must have degree 0"

    def copy(self) -> "MutableOverlay":
        """Independent deep copy (peer ids, adjacency, pending deltas).

        Attack models poison *copies* of the world — a sybil flood joins
        its swarm to a copied overlay so the honest topology stays the
        clean-run baseline. The cached immutable snapshot (if any) is
        shared: :class:`Graph` is read-only and either copy invalidates
        its own cache on the next mutation.
        """
        clone = MutableOverlay()
        clone._adj = {peer: set(nbrs) for peer, nbrs in self._adj.items()}
        clone._next_pid = self._next_pid
        clone._deg = self._deg.copy()
        clone._alive = self._alive.copy()
        clone._num_edges = self._num_edges
        clone._snap_rows = self._snap_rows.copy()
        clone._snap_cols = self._snap_cols.copy()
        clone._pending_add = set(self._pending_add)
        clone._pending_remove = set(self._pending_remove)
        clone._cached_graph = self._cached_graph
        clone._cached_pids = self._cached_pids
        return clone

    # -- mutation ------------------------------------------------------------

    def _invalidate(self) -> None:
        self._cached_graph = None
        self._cached_pids = None

    def _require_peer(self, peer_id: int) -> None:
        if peer_id not in self._adj:
            raise KeyError(f"peer {peer_id} is not in the overlay")

    def _record_edge(self, u: int, v: int) -> bool:
        """Install the undirected edge ``(u, v)``; return whether it was new.

        An already-present edge is skipped *explicitly* (nothing is
        recounted): the adjacency sets would absorb a duplicate
        silently, but the degree array, the edge count and the pending
        snapshot deltas would all double-count it, corrupting every
        later snapshot. Internal rewiring paths (orphan rewires,
        component bridging) check this return value instead of assuming
        their proposal is fresh.
        """
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._deg[u] += 1
        self._deg[v] += 1
        self._num_edges += 1
        key = _undirected(u, v)
        if key in self._pending_remove:
            self._pending_remove.discard(key)  # back to the snapshot's state
        else:
            self._pending_add.add(key)
        self._invalidate()
        return True

    def _erase_edge(self, u: int, v: int) -> None:
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._deg[u] -= 1
        self._deg[v] -= 1
        self._num_edges -= 1
        key = _undirected(u, v)
        if key in self._pending_add:
            self._pending_add.discard(key)  # the snapshot never saw it
        else:
            self._pending_remove.add(key)
        self._invalidate()

    def add_edge(self, u: int, v: int) -> None:
        """Connect two live peers (rejects self-loops and duplicates)."""
        self._require_peer(u)
        self._require_peer(v)
        if u == v:
            raise ValueError(f"self-loop on peer {u} is not allowed")
        if v in self._adj[u]:
            raise ValueError(f"edge ({u}, {v}) already exists")
        self._record_edge(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Disconnect two live peers (the edge must exist)."""
        self._require_peer(u)
        self._require_peer(v)
        if v not in self._adj[u]:
            raise KeyError(f"edge ({u}, {v}) does not exist")
        self._erase_edge(u, v)

    def _sample_targets(
        self, count: int, rng: np.random.Generator, *, exclude: Iterable[int] = ()
    ) -> List[int]:
        """Draw ``count`` distinct live peers degree-proportionally.

        This is the preferential-attachment rule: an existing peer is
        chosen with probability proportional to its degree, so joins
        preserve the overlay's power-law shape. Falls back to uniform
        when the overlay has no edges yet.
        """
        excluded = tuple(exclude)
        weights = self._deg.astype(np.float64) * self._alive
        for pid in excluded:
            if pid < weights.shape[0]:
                weights[pid] = 0.0
        total = weights.sum()
        if total <= 0:
            candidates = np.flatnonzero(self._alive)
            if excluded:
                candidates = candidates[~np.isin(candidates, np.array(excluded, dtype=np.int64))]
            if candidates.shape[0] < count:
                raise ValueError("not enough live peers to attach to")
            picks = as_generator(rng).choice(candidates, size=count, replace=False)
            return [int(p) for p in picks]
        available = int(np.count_nonzero(weights > 0))
        if available < count:
            raise ValueError(
                f"cannot pick {count} distinct attachment targets from {available} candidates"
            )
        picks = rng.choice(weights.shape[0], size=count, replace=False, p=weights / total)
        return [int(p) for p in picks]

    def _grow_pid_arrays(self) -> None:
        if self._next_pid >= self._deg.shape[0]:
            new_capacity = max(16, 2 * self._deg.shape[0], self._next_pid + 1)
            deg = np.zeros(new_capacity, dtype=np.int64)
            alive = np.zeros(new_capacity, dtype=bool)
            deg[: self._deg.shape[0]] = self._deg
            alive[: self._alive.shape[0]] = self._alive
            self._deg, self._alive = deg, alive

    def add_peer(
        self,
        *,
        m: int = 2,
        rng: RngLike = None,
        targets: Optional[Iterable[int]] = None,
    ) -> int:
        """Join a new peer and return its peer id.

        Parameters
        ----------
        m:
            Edges the joiner brings; wired to ``min(m, num_peers)``
            distinct existing peers chosen degree-proportionally (the
            preferential-attachment join of the paper's Section 2).
        rng:
            Seed / generator for target selection.
        targets:
            Explicit attachment targets (overrides the PA draw).
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        generator = as_generator(rng)
        if targets is not None:
            chosen = [int(t) for t in targets]
            for t in chosen:
                self._require_peer(t)
            if len(set(chosen)) != len(chosen):
                raise ValueError("attachment targets must be distinct")
        elif self.num_peers == 0:
            chosen = []
        else:
            chosen = self._sample_targets(min(m, self.num_peers), generator)
        pid = self._next_pid
        self._next_pid += 1
        self._grow_pid_arrays()
        self._adj[pid] = set()
        self._alive[pid] = True
        self._deg[pid] = 0
        for t in chosen:
            self._record_edge(pid, t)
        self._invalidate()
        return pid

    def remove_peer(
        self,
        peer_id: int,
        *,
        rewire_isolated: bool = True,
        rng: RngLike = None,
    ) -> Tuple[int, ...]:
        """Depart ``peer_id``, dropping all its edges.

        Parameters
        ----------
        peer_id:
            The leaving peer.
        rewire_isolated:
            When the departure strands a neighbour at degree 0, wire the
            orphan to a fresh degree-proportional target (a stranded
            peer would silently drop out of the gossip — engines exclude
            isolated nodes from convergence).
        rng:
            Seed / generator for the rewiring draws.

        Returns
        -------
        tuple
            The former neighbours of the departed peer (the candidates a
            caller may hand the peer's gossip mass to).
        """
        self._require_peer(peer_id)
        if self.num_peers <= 2:
            raise ValueError("refusing to shrink the overlay below 2 peers")
        former = tuple(sorted(self._adj[peer_id]))
        for nb in former:
            self._erase_edge(peer_id, nb)
        del self._adj[peer_id]
        self._alive[peer_id] = False
        if rewire_isolated:
            generator = as_generator(rng)
            for nb in former:
                if nb in self._adj and not self._adj[nb]:
                    # The orphan has degree 0, so any live target is a
                    # fresh edge; re-draw defensively if a proposal is
                    # somehow already present rather than miscounting.
                    for _ in range(8):
                        target = self._sample_targets(1, generator, exclude=(nb,))[0]
                        if self._record_edge(nb, target):
                            break
        self._invalidate()
        return former

    def bridge_components(
        self, *, rng: RngLike = None, groups: "Optional[Dict[int, int]]" = None
    ) -> int:
        """Overlay maintenance: reconnect components churn split off.

        Departures can partition the overlay, and a partitioned overlay
        cannot aggregate globally — each island converges to its own
        mean. Real P2P overlays re-bridge via bootstrap/maintenance
        traffic; this method does the same in one sweep: every
        non-giant component gets one edge from a random member to a
        random member of the giant component. Returns the number of
        bridge edges added (0 when already connected).

        When ``groups`` is given (a mapping from peer id to group
        label), bridging is restricted to *within each group*: every
        group's non-giant components connect to that group's own giant.
        A scheduled partition (see
        :class:`repro.network.conditions.EpochPartition`) deliberately
        holds groups apart, so churn repair during an active partition
        must not re-join them — each fragment lies entirely inside one
        group once the cross-group edges are cut, and its repairs stay
        there. Peers missing from the mapping form their own singleton
        groups and are left untouched.
        """
        import scipy.sparse.csgraph

        graph, pids = self.snapshot()
        num_components, labels = scipy.sparse.csgraph.connected_components(
            graph.to_scipy_csr(), directed=False
        )
        if num_components <= 1:
            return 0
        generator = as_generator(rng)
        sizes = np.bincount(labels, minlength=num_components)
        if groups is None:
            component_pool = {0: list(range(num_components))}
        else:
            # Assign each component the group of its lowest-id member
            # (fragments are group-pure while a partition is active, and
            # a mixed fragment is already a cross-group path no bridge
            # can worsen).
            component_pool = {}
            for label in range(num_components):
                members = np.flatnonzero(labels == label)
                group = groups.get(int(pids[members[0]]), -1 - label)
                component_pool.setdefault(group, []).append(label)
        bridges = 0
        for pool in component_pool.values():
            if len(pool) <= 1:
                continue
            giant = max(pool, key=lambda label: (sizes[label], -label))
            giant_members = np.flatnonzero(labels == giant)
            for label in pool:
                if label == giant:
                    continue
                members = np.flatnonzero(labels == label)
                u = int(pids[members[generator.integers(members.shape[0])]])
                v = int(
                    pids[giant_members[generator.integers(giant_members.shape[0])]]
                )
                # u and v sit in different components, so (u, v) cannot
                # exist — but the skip is explicit, never an assumption
                # about _record_edge silently tolerating duplicates.
                if self._record_edge(u, v):
                    bridges += 1
        return bridges

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Tuple[Graph, np.ndarray]:
        """Materialise the current topology as ``(graph, peer_ids)``.

        ``peer_ids[i]`` is the peer id of graph node ``i`` (live peer
        ids in ascending order). The CSR arrays are patched from the
        previous snapshot — pending removals are masked out and pending
        additions appended, all vectorised — so successive snapshots of
        a large, mildly churning overlay cost O(E) numpy work, not a
        per-edge Python reconstruction.
        """
        if self._cached_graph is not None and self._cached_pids is not None:
            return self._cached_graph, self._cached_pids
        if self.num_peers == 0:
            raise ValueError("cannot snapshot an empty overlay")
        rows, cols = self._snap_rows, self._snap_cols
        if self._pending_remove:
            stride = self._next_pid
            removed = np.array(sorted(self._pending_remove), dtype=np.int64)
            gone = np.concatenate(
                [removed[:, 0] * stride + removed[:, 1], removed[:, 1] * stride + removed[:, 0]]
            )
            keep = ~np.isin(rows * stride + cols, gone)
            rows, cols = rows[keep], cols[keep]
        if self._pending_add:
            added = np.array(sorted(self._pending_add), dtype=np.int64)
            rows = np.concatenate([rows, added[:, 0], added[:, 1]])
            cols = np.concatenate([cols, added[:, 1], added[:, 0]])
        pids = self.peer_ids()
        n = pids.shape[0]
        # The directed pairs are unique, so one sort of the key r * n + c
        # gives the (row, column) order.
        keys = np.searchsorted(pids, rows) * n
        keys += np.searchsorted(pids, cols)
        keys.sort()
        r, c = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
        graph = Graph.from_csr(n, indptr, c, validate=False)
        # The patched arrays become the next snapshot's baseline.
        self._snap_rows, self._snap_cols = rows, cols
        self._pending_add.clear()
        self._pending_remove.clear()
        self._cached_graph = graph
        self._cached_pids = pids
        return graph, pids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MutableOverlay(num_peers={self.num_peers}, num_edges={self.num_edges})"
