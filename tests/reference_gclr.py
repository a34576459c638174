"""Eq.-6 oracles, written independently of the vector code.

:func:`neighbor_correction_terms` walks every estimating node's
neighbours for one target ``j`` — the literal reading of eq. 6's
neighbour sums — and :func:`reference_gclr` turns them into the exact
``Rep_I,j`` column. :func:`repro.core.vector_gclr.true_vector_gclr`
computes every tracked column at once as one sparse product; the tests
compare the two column by column.

:func:`neighbor_corrections_loop` is the all-targets loop that the
sparse product replaced. It adds the same terms in the same order, so
the tests demand byte-equal terms from the two.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.weights import WeightParams, excess_weights
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix


def neighbor_correction_terms(
    graph: Graph, trust: TrustMatrix, target: int, params: WeightParams
) -> tuple:
    """``(y_hat, w_excess_sum)`` of eq. 6 for one target, one entry per node.

    ``y_hat[I] = sum_{k in NS_I} (w_Ik - 1) * t_kj`` and
    ``w_excess_sum[I] = sum_{k in NS_I} (w_Ik - 1)``. Only neighbours
    enter these sums: non-neighbours always have weight exactly 1.
    """
    n = graph.num_nodes
    y_hat = np.zeros(n, dtype=np.float64)
    w_excess_sum = np.zeros(n, dtype=np.float64)
    feedback = trust.column(target)
    for estimator in range(n):
        excess = excess_weights(params, trust.row(estimator))
        for neighbor in graph.neighbors(estimator):
            e = excess.get(int(neighbor))
            if e is None:
                continue
            w_excess_sum[estimator] += e
            t_kj = feedback.get(int(neighbor))
            if t_kj is not None:
                y_hat[estimator] += e * t_kj
    return y_hat, w_excess_sum


def reference_gclr(
    graph: Graph,
    trust: TrustMatrix,
    target: int,
    params: WeightParams,
    denominator_convention: str = "observers",
) -> np.ndarray:
    """Exact eq.-6 reputations of ``target`` as seen by every node."""
    y_hat, w_excess_sum = neighbor_correction_terms(graph, trust, target, params)
    column = trust.column(target)
    global_sum = math.fsum(column.values())
    count = len(column) if denominator_convention == "observers" else trust.num_nodes
    denominator = w_excess_sum + count
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator > 0, (y_hat + global_sum) / denominator, 0.0)


def neighbor_corrections_loop(
    graph: Graph, trust: TrustMatrix, targets: np.ndarray, params: WeightParams
) -> tuple:
    """``(y_hat, w_excess_sum)`` for every tracked column, one neighbour at a time."""
    n = graph.num_nodes
    column_index = {int(t): c for c, t in enumerate(targets)}
    y_hat = np.zeros((n, len(targets)), dtype=np.float64)
    w_excess_sum = np.zeros(n, dtype=np.float64)
    opinion_rows = [
        [(column_index[t], v) for t, v in trust.row(k).items() if t in column_index]
        for k in range(n)
    ]
    for estimator in range(n):
        excess = excess_weights(params, trust.row(estimator))
        if not excess:
            continue
        for neighbor in graph.neighbors(estimator):
            e = excess.get(int(neighbor))
            if e is None:
                continue
            w_excess_sum[estimator] += e
            for col, value in opinion_rows[int(neighbor)]:
                y_hat[estimator, col] += e * value
    return y_hat, w_excess_sum
