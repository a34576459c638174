"""Undirected simple graph backed by CSR adjacency arrays.

The gossip engines need exactly three things from a topology, all of them
hot-path: a node's neighbour list, its degree, and the mean degree of its
neighbours (the denominator of the differential push ratio ``k_i``).
Storing adjacency in compressed-sparse-row form gives each of these as an
O(1) slice / precomputed array lookup, and makes the vectorised engine's
scatter-adds cache-friendly for networks up to the paper's 50 000 nodes.

Graphs are immutable after construction; churn within a round is
modelled at the message layer as packet loss (see
:mod:`repro.network.conditions`), matching the paper's assumption that
a push to a departed node falls back to its sender rather than
mutating the topology mid-round.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


class Graph:
    """Immutable undirected simple graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes; nodes are the integers ``0 .. num_nodes - 1``.
    edges:
        Iterable of ``(u, v)`` pairs. Self-loops and duplicate edges are
        rejected — the gossip protocol pushes to *distinct neighbours*,
        and a multi-edge would silently bias target selection.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(int(v) for v in g.neighbors(1))
    [0, 2]
    """

    __slots__ = (
        "_num_nodes",
        "_indptr",
        "_indices",
        "_degrees",
        "_avg_neighbor_degree",
        "_scipy_csr",
    )

    def __init__(self, num_nodes: int, edges: Iterable[Edge]):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self._num_nodes = int(num_nodes)

        seen: set = set()
        adjacency: List[List[int]] = [[] for _ in range(self._num_nodes)]
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
                raise ValueError(
                    f"edge ({u}, {v}) references a node outside 0..{self._num_nodes - 1}"
                )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)

        degrees = np.array([len(nbrs) for nbrs in adjacency], dtype=np.int64)
        indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for node, nbrs in enumerate(adjacency):
            nbrs.sort()
            indices[indptr[node] : indptr[node + 1]] = nbrs

        self._finalize(indptr, indices, degrees)

    def _finalize(self, indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray) -> None:
        """Install validated CSR arrays and derived degree statistics."""
        self._indptr = indptr
        self._indices = indices
        self._degrees = degrees
        self._avg_neighbor_degree = self._compute_avg_neighbor_degree()
        self._scipy_csr = None

    # -- alternate constructors ---------------------------------------------

    @classmethod
    def from_csr(
        cls,
        num_nodes: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
    ) -> "Graph":
        """Build a :class:`Graph` directly from CSR adjacency arrays.

        This is the fast path for large graphs: construction is fully
        vectorised (no per-edge Python loop), so million-node topologies
        build in milliseconds once their CSR arrays exist.

        Parameters
        ----------
        num_nodes:
            Number of nodes.
        indptr, indices:
            CSR row pointers (``(num_nodes + 1,)``) and column indices.
            Each row must be strictly increasing (sorted, no duplicate
            neighbours), free of self-loops, and the adjacency must be
            symmetric.
        validate:
            Skip the O(E) structural checks when ``False`` — only for
            arrays built by the library's own constructors (the fast PA
            generator and the mutable overlay's snapshot).

        Examples
        --------
        >>> g = Graph(3, [(0, 1), (1, 2)])
        >>> h = Graph.from_csr(3, g.indptr, g.indices)
        >>> h == g
        True
        """
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        n = int(num_nodes)
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        for name, array in (("indptr", indptr), ("indices", indices)):
            if not np.issubdtype(array.dtype, np.integer):
                # Silent float truncation would fabricate edges from a
                # misaligned array (e.g. a scipy .data array).
                raise ValueError(f"{name} must be an integer array, got dtype {array.dtype}")
        indptr = np.array(indptr, dtype=np.int64, copy=True)
        indices = np.array(indices, dtype=np.int64, copy=True)
        if indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have shape ({n + 1},), got {indptr.shape}")
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        degrees = np.diff(indptr)
        if validate:
            if indptr[0] != 0 or int(indptr[-1]) != indices.shape[0] or np.any(degrees < 0):
                raise ValueError("indptr must start at 0, be non-decreasing and end at len(indices)")
            if indices.size and (indices.min() < 0 or indices.max() >= n):
                raise ValueError(f"indices reference nodes outside 0..{n - 1}")
            rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
            if np.any(rows == indices):
                raise ValueError("self-loops are not allowed")
            if indices.size > 1:
                same_row = rows[1:] == rows[:-1]
                if np.any(same_row & (np.diff(indices) <= 0)):
                    raise ValueError("each CSR row must be strictly increasing (sorted, no duplicates)")
            # Symmetry: the multiset of directed edges equals its reverse.
            forward = np.sort(rows * n + indices)
            backward = np.sort(indices * n + rows)
            if not np.array_equal(forward, backward):
                raise ValueError("adjacency is not symmetric")
        graph = object.__new__(cls)
        graph._num_nodes = n
        graph._finalize(indptr, indices, degrees)
        return graph

    @classmethod
    def from_scipy_sparse(cls, matrix) -> "Graph":
        """Build a :class:`Graph` from a scipy sparse adjacency matrix.

        The nonzero *pattern* of ``matrix`` defines the edges (values are
        ignored); it must be square, symmetric and zero-diagonal.

        Examples
        --------
        >>> import scipy.sparse
        >>> adj = scipy.sparse.csr_matrix(
        ...     ([1.0, 1.0, 1.0, 1.0], ([0, 1, 1, 2], [1, 0, 2, 1])), shape=(3, 3)
        ... )
        >>> Graph.from_scipy_sparse(adj).num_edges
        2
        """
        csr = matrix.tocsr(copy=True)
        rows, cols = csr.shape
        if rows != cols:
            raise ValueError(f"adjacency must be square, got shape {csr.shape}")
        csr.sum_duplicates()
        # Stored entries that are numerically zero (e.g. duplicates that
        # cancelled, or results of sparse arithmetic) are NOT edges.
        csr.eliminate_zeros()
        csr.sort_indices()
        return cls.from_csr(rows, csr.indptr, csr.indices)

    def to_scipy_csr(self):
        """This graph's adjacency as a ``scipy.sparse.csr_matrix`` (cached).

        Entries are 1.0 at every edge. The matrix is built once and
        shared across callers — treat it as read-only.

        Examples
        --------
        >>> g = Graph(3, [(0, 1), (1, 2)])
        >>> g.to_scipy_csr().toarray().tolist()
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        """
        if self._scipy_csr is None:
            try:
                import scipy.sparse
            except ImportError as error:  # pragma: no cover - scipy is a core dependency
                raise ImportError("to_scipy_csr() requires scipy") from error
            data = np.ones(self._indices.shape[0], dtype=np.float64)
            self._scipy_csr = scipy.sparse.csr_matrix(
                (data, self._indices.copy(), self._indptr.copy()),
                shape=(self._num_nodes, self._num_nodes),
            )
        return self._scipy_csr

    def _compute_avg_neighbor_degree(self) -> np.ndarray:
        """Mean degree over each node's neighbourhood (0.0 for isolated nodes)."""
        # Integer prefix sums of the neighbours' degrees, differenced at
        # the row boundaries. The sums are integers far below 2**53, so
        # the float64 cast is exact and matches a float scatter-add.
        # The indices are in range, and mode="clip" gathers straight
        # into `prefix` without the bounds-checked copy of mode="raise".
        prefix = np.zeros(self._indices.shape[0] + 1, dtype=np.int64)
        np.take(self._degrees, self._indices, out=prefix[1:], mode="clip")
        np.cumsum(prefix, out=prefix)
        sums = (prefix[self._indptr[1:]] - prefix[self._indptr[:-1]]).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(self._degrees > 0, sums / np.maximum(self._degrees, 1), 0.0)
        return avg

    # -- basic accessors ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._indices.shape[0]) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Read-only array of node degrees (shape ``(num_nodes,)``)."""
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only), for vectorised engines."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (read-only), for vectorised engines."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    @property
    def average_neighbor_degrees(self) -> np.ndarray:
        """Mean neighbour degree per node (read-only array).

        This is the quantity each node learns by having every neighbour
        push its degree once at round start (paper Section 4.1.1).
        """
        view = self._avg_neighbor_degree.view()
        view.flags.writeable = False
        return view

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return int(self._degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted array of neighbours of ``node`` (read-only view)."""
        view = self._indices[self._indptr[node] : self._indptr[node + 1]]
        view.flags.writeable = False
        return view

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        nbrs = self._indices[self._indptr[u] : self._indptr[u + 1]]
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.shape[0] and nbrs[pos] == v)

    def edges(self) -> Iterator[Edge]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u in range(self._num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    # -- structure queries ---------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the graph is connected (single node counts as connected)."""
        if self._num_nodes == 1:
            return True
        visited = np.zeros(self._num_nodes, dtype=bool)
        queue: deque = deque([0])
        visited[0] = True
        count = 1
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if not visited[v]:
                    visited[v] = True
                    count += 1
                    queue.append(int(v))
        return count == self._num_nodes

    def connected_components(self) -> List[List[int]]:
        """List of connected components, each a sorted list of node ids."""
        visited = np.zeros(self._num_nodes, dtype=bool)
        components: List[List[int]] = []
        for start in range(self._num_nodes):
            if visited[start]:
                continue
            component = [start]
            visited[start] = True
            queue: deque = deque([start])
            while queue:
                u = queue.popleft()
                for v in self.neighbors(u):
                    if not visited[v]:
                        visited[v] = True
                        component.append(int(v))
                        queue.append(int(v))
            components.append(sorted(component))
        return components

    def diameter_estimate(self, samples: int = 8, rng: "np.random.Generator | None" = None) -> int:
        """Lower-bound estimate of the diameter via repeated double-sweep BFS.

        Exact diameters are O(N·E); the analysis in Section 5.1 only needs
        the ``~log2 N`` scale of PA-graph diameters, for which the classic
        double-sweep lower bound is accurate in practice.
        """
        if not self.is_connected():
            raise ValueError("diameter is undefined for a disconnected graph")
        generator = rng if rng is not None else np.random.default_rng(0)
        best = 0
        for _ in range(max(1, samples)):
            start = int(generator.integers(self._num_nodes))
            far, _ = self._bfs_farthest(start)
            _, dist = self._bfs_farthest(far)
            best = max(best, dist)
        return best

    def _bfs_farthest(self, start: int) -> Tuple[int, int]:
        """Return ``(farthest_node, distance)`` from ``start`` by BFS."""
        dist = np.full(self._num_nodes, -1, dtype=np.int64)
        dist[start] = 0
        queue: deque = deque([start])
        farthest, far_dist = start, 0
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    if dist[v] > far_dist:
                        farthest, far_dist = int(v), int(dist[v])
                    queue.append(int(v))
        return farthest, far_dist

    def degree_histogram(self) -> Dict[int, int]:
        """Map ``degree -> number of nodes with that degree``."""
        values, counts = np.unique(self._degrees, return_counts=True)
        return {int(d): int(c) for d, c in zip(values, counts)}

    # -- dunder -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._num_nodes, self._indices.tobytes()))


def csr_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """CSR positions of every entry of ``rows``, row by row, in CSR order.

    ``indices[csr_positions(indptr, rows)]`` concatenates the rows'
    neighbour lists without a Python loop: each row's start is repeated
    by its length and one ``arange`` over the total adds the offsets.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def from_adjacency(adjacency: Sequence[Sequence[int]]) -> Graph:
    """Build a :class:`Graph` from an adjacency-list representation.

    Each entry ``adjacency[u]`` lists the neighbours of ``u``; the listing
    must be symmetric (``v in adjacency[u]`` iff ``u in adjacency[v]``).
    """
    num_nodes = len(adjacency)
    edges = []
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if u < v:
                edges.append((u, v))
            elif u == v:
                raise ValueError(f"self-loop on node {u} is not allowed")
    graph = Graph(num_nodes, edges)
    for u, nbrs in enumerate(adjacency):
        if sorted(int(v) for v in nbrs) != list(map(int, graph.neighbors(u))):
            raise ValueError(f"adjacency list for node {u} is not symmetric")
    return graph
