"""The ring-graph helper and the fast PA generator's checks.

The sharded backend these tests once covered is gone: the single-process
sparse engine outran it at every measured size, and ``backend="sharded"``
now raises :class:`repro.core.backend.UnknownBackendError`. Two pieces
outlived it and stay in this module so their test ids and import path
keep working: :func:`ring_graph`, which other suites import to build
large rings without a Python edge loop, and :class:`TestFastPaGenerator`,
the behavioural checks of
:func:`repro.network.preferential_attachment.preferential_attachment_graph_fast`
(its byte-identity suite lives in ``tests/test_preferential_attachment.py``).
"""

import numpy as np
import pytest

from repro.network.graph import Graph
from repro.network.preferential_attachment import preferential_attachment_graph_fast


def ring_graph(n: int) -> Graph:
    """An n-cycle built straight from CSR arrays (no Python edge loop)."""
    i = np.arange(n, dtype=np.int64)
    a, b = (i - 1) % n, (i + 1) % n
    cols = np.empty(2 * n, dtype=np.int64)
    cols[0::2] = np.minimum(a, b)
    cols[1::2] = np.maximum(a, b)
    return Graph.from_csr(n, 2 * np.arange(n + 1, dtype=np.int64), cols, validate=False)


class TestFastPaGenerator:
    def test_connected_and_near_target_edges(self):
        graph = preferential_attachment_graph_fast(5000, m=6, rng=4)
        assert graph.is_connected()
        assert 0.95 * 6 * 5000 < graph.num_edges <= 6 * 5000

    def test_deterministic(self):
        a = preferential_attachment_graph_fast(800, m=3, rng=17)
        b = preferential_attachment_graph_fast(800, m=3, rng=17)
        assert a == b

    def test_heavy_tail(self):
        graph = preferential_attachment_graph_fast(4000, m=4, rng=8)
        degrees = np.asarray(graph.degrees)
        # PA hubs: the max degree dwarfs the median.
        assert degrees.max() > 10 * np.median(degrees)

    def test_validation(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph_fast(3, m=3)
        with pytest.raises(ValueError):
            preferential_attachment_graph_fast(10, m=0)
