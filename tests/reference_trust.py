"""The per-entry trust builders that :mod:`repro.trust.matrix` replaced.

``random_trust_matrix`` and ``complete_trust_matrix`` used to call
:meth:`TrustMatrix.set` once per entry, drawing their values one edge
or one row at a time. They now draw all values at once and build the
matrix with :meth:`TrustMatrix.from_arrays`; the tests pin the new
builders to these loops byte for byte, down to every iteration order.
The loop here covers ``edge_probability=1`` only: below it the builder
now draws every edge's keep-or-drop first, a different stream.
"""

from __future__ import annotations

from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike, as_generator


def reference_random_trust_matrix(
    graph: Graph, *, extra_pairs: int = 0, rng: RngLike = None
) -> TrustMatrix:
    """Mutual opinions per edge, then ``extra_pairs`` random ordered pairs."""
    generator = as_generator(rng)
    matrix = TrustMatrix(graph.num_nodes)
    for u, v in graph.edges():
        matrix.set(u, v, float(generator.random()))
        matrix.set(v, u, float(generator.random()))
    placed = 0
    while placed < extra_pairs:
        observer = int(generator.integers(graph.num_nodes))
        target = int(generator.integers(graph.num_nodes))
        if observer == target:
            continue
        matrix.set(observer, target, float(generator.random()))
        placed += 1
    return matrix


def reference_complete_trust_matrix(num_nodes: int, *, rng: RngLike = None) -> TrustMatrix:
    """Every ordered pair, one row draw per observer."""
    generator = as_generator(rng)
    matrix = TrustMatrix(num_nodes)
    for observer in range(num_nodes):
        values = generator.random(num_nodes)
        for target in range(num_nodes):
            if observer != target:
                matrix.set(observer, target, float(values[target]))
    return matrix
