"""Unit tests for the PA generator — the paper's only evaluation topology."""

import tracemalloc

import numpy as np
import pytest

from repro.network.degree_sequence import estimate_power_law_exponent
from repro.network.graph import Graph
from repro.network.preferential_attachment import (
    degree_proportional_sample,
    expected_num_edges,
    preferential_attachment_graph,
    preferential_attachment_graph_fast,
)
from repro.utils.rng import as_generator


def reference_fast_pa_csr(num_nodes, m, rng):
    """The fast generator's original per-edge loop, kept as its byte oracle.

    Returns the ``(indptr, indices)`` CSR arrays that
    :func:`preferential_attachment_graph_fast` must reproduce exactly.
    """
    generator = as_generator(rng)
    n = int(num_nodes)
    seed_size = m + 1
    seed_edges = m * (m + 1) // 2
    join_edges = m * (n - seed_size)
    total_edges = seed_edges + join_edges

    endpoints = np.empty(2 * total_edges, dtype=np.int64)
    upper, lower = np.triu_indices(seed_size, k=1)
    endpoints[0 : 2 * seed_edges : 2] = upper
    endpoints[1 : 2 * seed_edges : 2] = lower
    uniforms = generator.random(join_edges)
    position = 2 * seed_edges
    index = 0
    for v in range(seed_size, n):
        for e in range(m):
            endpoints[position] = v
            bound = position if e == 0 else position + 1
            endpoints[position + 1] = endpoints[int(uniforms[index] * bound)]
            position += 2
            index += 1

    u, v = endpoints[0::2], endpoints[1::2]
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    keys = np.unique(lo * np.int64(n) + hi)
    lo, hi = keys // n, keys % n
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


class TestGeneration:
    def test_edge_count_matches_formula(self):
        for n, m in [(10, 2), (50, 3), (200, 2)]:
            g = preferential_attachment_graph(n, m=m, rng=0)
            assert g.num_edges == expected_num_edges(n, m)

    def test_always_connected(self):
        for seed in range(5):
            g = preferential_attachment_graph(100, m=2, rng=seed)
            assert g.is_connected()

    def test_min_degree_is_m(self):
        g = preferential_attachment_graph(200, m=3, rng=1)
        assert int(g.degrees.min()) >= 3

    def test_reproducible_from_seed(self):
        a = preferential_attachment_graph(80, m=2, rng=42)
        b = preferential_attachment_graph(80, m=2, rng=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = preferential_attachment_graph(80, m=2, rng=1)
        b = preferential_attachment_graph(80, m=2, rng=2)
        assert a != b

    def test_m1_gives_tree_plus_seed(self):
        g = preferential_attachment_graph(50, m=1, rng=3)
        # seed clique on 2 nodes is a single edge; each join adds one edge.
        assert g.num_edges == 49
        assert g.is_connected()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph(5, m=0)
        with pytest.raises(ValueError):
            preferential_attachment_graph(2, m=2)

    def test_simple_graph_no_duplicates(self):
        # Graph constructor would raise on duplicates; surviving construction
        # plus the degree identity is the witness.
        g = preferential_attachment_graph(300, m=4, rng=9)
        assert int(g.degrees.sum()) == 2 * g.num_edges


class TestPowerLawShape:
    def test_heavy_tail_exists(self):
        g = preferential_attachment_graph(2000, m=2, rng=7)
        # A power-law graph must have hubs far above the mean degree (4).
        assert int(g.degrees.max()) > 25

    def test_exponent_in_plausible_band(self):
        g = preferential_attachment_graph(5000, m=2, rng=11)
        alpha = estimate_power_law_exponent(g.degrees, d_min=4)
        # PA's asymptotic exponent is 3; finite-size MLE lands nearby.
        assert 2.0 < alpha < 4.0

    def test_most_nodes_low_degree(self):
        g = preferential_attachment_graph(2000, m=2, rng=13)
        frac_low = float(np.mean(g.degrees <= 4))
        assert frac_low > 0.5


class TestDegreeProportionalSample:
    def test_prefers_hubs(self):
        g = preferential_attachment_graph(500, m=2, rng=17)
        sample = degree_proportional_sample(g, 4000, rng=18)
        hub = int(np.argmax(g.degrees))
        hub_rate = float(np.mean(sample == hub))
        uniform_rate = 1.0 / g.num_nodes
        assert hub_rate > 3 * uniform_rate

    def test_size_zero(self, pa_graph_small):
        assert degree_proportional_sample(pa_graph_small, 0, rng=1).size == 0

    def test_rejects_negative_size(self, pa_graph_small):
        with pytest.raises(ValueError):
            degree_proportional_sample(pa_graph_small, -1)


class TestExpectedNumEdges:
    def test_formula(self):
        # seed K3 has 3 edges, then 7 joins x 2 edges.
        assert expected_num_edges(10, 2) == 3 + 14

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            expected_num_edges(2, 2)

    def test_upper_bound_for_fast_generator(self):
        for n, m in [(50, 3), (2000, 1), (5000, 6)]:
            assert preferential_attachment_graph_fast(n, m=m, rng=0).num_edges <= expected_num_edges(n, m)


FAST_GRID = [(2, 1), (4, 3), (50, 3), (2000, 1), (3000, 2), (5000, 6), (20_000, 4)]


class TestFastGeneratorMatchesLoop:
    """The vectorised generator is byte-identical to the per-edge loop."""

    @pytest.mark.parametrize("num_nodes, m", FAST_GRID)
    @pytest.mark.parametrize(
        "seed", [0, 11, np.random.SeedSequence(2024)], ids=["int-0", "int-11", "seed-sequence"]
    )
    def test_csr_bytes_equal(self, num_nodes, m, seed):
        indptr, indices = reference_fast_pa_csr(num_nodes, m, seed)
        graph = preferential_attachment_graph_fast(num_nodes, m=m, rng=seed)
        assert graph.indptr.dtype == indptr.dtype
        assert graph.indices.dtype == indices.dtype
        assert graph.indptr.tobytes() == indptr.tobytes()
        assert graph.indices.tobytes() == indices.tobytes()
        assert graph.degrees.tobytes() == np.diff(indptr).tobytes()

    def test_builds_in_bounded_memory(self):
        # The per-edge loop with np.unique and np.lexsort peaked at 9.7x
        # the final CSR bytes; the vectorised build stays near 3x.
        tracemalloc.start()
        try:
            graph = preferential_attachment_graph_fast(50_000, m=8, rng=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        csr_bytes = graph.indptr.nbytes + graph.indices.nbytes
        assert peak < 6 * csr_bytes


def scatter_avg_neighbor_degree(graph):
    """Mean neighbour degree by a float scatter-add (the original formula)."""
    n, degrees = graph.num_nodes, graph.degrees
    sums = np.zeros(n, dtype=np.float64)
    np.add.at(sums, np.repeat(np.arange(n), degrees), degrees[graph.indices].astype(np.float64))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(degrees > 0, sums / np.maximum(degrees, 1), 0.0)


class TestAverageNeighborDegree:
    @pytest.mark.parametrize(
        "graph",
        [
            preferential_attachment_graph_fast(3000, m=4, rng=9),
            Graph(6, [(0, i) for i in range(1, 6)]),
            Graph(7, [(1, 2), (2, 4), (1, 4), (4, 5)]),
        ],
        ids=["pa", "star", "isolated-nodes"],
    )
    def test_bytes_equal_scatter_add(self, graph):
        expected = scatter_avg_neighbor_degree(graph)
        assert graph.average_neighbor_degrees.dtype == np.float64
        assert graph.average_neighbor_degrees.tobytes() == expected.tobytes()
