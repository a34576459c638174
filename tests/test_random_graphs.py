"""Unit tests for the non-PA overlay generators (ablation controls)."""

import numpy as np
import pytest

from repro.core.differential import push_counts
from repro.network.random_graphs import erdos_renyi_graph, random_regular_graph


class TestErdosRenyi:
    def test_edge_count_near_expectation(self):
        n, p = 200, 0.05
        g = erdos_renyi_graph(n, p, rng=1)
        expected = p * n * (n - 1) / 2
        assert abs(g.num_edges - expected) < 4 * np.sqrt(expected)

    def test_p_zero_empty(self):
        assert erdos_renyi_graph(50, 0.0, rng=2).num_edges == 0

    def test_p_one_complete(self):
        g = erdos_renyi_graph(20, 1.0, rng=3)
        assert g.num_edges == 20 * 19 // 2

    def test_deterministic(self):
        assert erdos_renyi_graph(60, 0.1, rng=7) == erdos_renyi_graph(60, 0.1, rng=7)

    def test_light_tail_vs_pa(self):
        from repro.network.preferential_attachment import preferential_attachment_graph

        n = 1000
        er = erdos_renyi_graph(n, 4.0 / n, rng=4)
        pa = preferential_attachment_graph(n, m=2, rng=4)
        # Same mean degree (~4) but PA's max degree dwarfs ER's.
        assert int(pa.degrees.max()) > 2 * int(er.degrees.max())

    def test_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(0, 0.5)
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)


class TestRandomRegular:
    def test_all_degrees_equal(self):
        g = random_regular_graph(60, 4, rng=5)
        assert set(map(int, g.degrees)) == {4}

    def test_differential_counts_collapse_to_one(self):
        # On a regular graph the differential rule IS normal push.
        g = random_regular_graph(80, 6, rng=6)
        assert np.all(push_counts(g) == 1)

    def test_deterministic(self):
        a = random_regular_graph(40, 4, rng=8)
        b = random_regular_graph(40, 4, rng=8)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            random_regular_graph(10, 0)
        with pytest.raises(ValueError):
            random_regular_graph(10, 10)
        with pytest.raises(ValueError):
            random_regular_graph(9, 3)  # odd stub count

    def test_gossip_converges_on_regular(self):
        from repro.core.sparse_engine import SparseGossipEngine

        g = random_regular_graph(50, 4, rng=9)
        values = np.random.default_rng(0).random(50)
        out = SparseGossipEngine(g, rng=10).run(values, np.ones(50), xi=1e-7)
        assert np.allclose(out.estimates, values.mean(), atol=1e-3)
