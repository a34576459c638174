"""Algorithm variant 4 — simultaneous GCLR aggregation for all nodes.

The full Differential Gossip Trust system: one gossip round carries,
slot-wise for every tracked target ``j``, the value sum ``sum_i t_ij``,
the single-unit gossip weight and the observer count ``N_dj``; each
estimating node then folds in its weighted neighbour feedback via eq. 6.
The result is the ``(N, d)`` matrix of *per-node* reputations
``Rep_I,j`` — the quantity the collusion experiments (Figures 5–6)
measure RMS error over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.backend import GossipConfig, run_backend
from repro.core.results import GossipOutcome
from repro.core.single_gclr import DenominatorConvention, pick_designated_node
from repro.core.weights import WeightParams, excess_weights
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike


@dataclass
class VectorGclrResult:
    """Outcome of variant 4.

    Attributes
    ----------
    targets:
        Target node ids, one per column.
    reputations:
        ``(N, d)``: ``reputations[I, c]`` is ``Rep_{I, targets[c]}``.
    true_reputations:
        Exact eq.-6 values for every (node, target) cell.
    outcome:
        Raw engine outcome.
    """

    targets: np.ndarray
    reputations: np.ndarray
    true_reputations: np.ndarray
    outcome: GossipOutcome

    @property
    def max_absolute_error(self) -> float:
        """Worst gossip-vs-exact deviation over all cells."""
        return float(np.abs(self.reputations - self.true_reputations).max())

    def reputation_of(self, estimator: int, target: int) -> float:
        """``Rep_{estimator, target}`` (target must be a tracked column)."""
        columns = np.flatnonzero(self.targets == target)
        if columns.size == 0:
            raise KeyError(f"target {target} was not tracked; tracked: {self.targets.tolist()}")
        return float(self.reputations[estimator, int(columns[0])])


def _neighbor_corrections_matrix(
    graph: Graph,
    trust: TrustMatrix,
    targets: np.ndarray,
    params: WeightParams,
) -> tuple:
    """Vectorised eq.-6 correction terms for all estimating nodes at once.

    Returns ``(y_hat, w_excess_sum)`` with shapes ``(N, d)`` and ``(N,)``.
    """
    n = graph.num_nodes
    d = targets.size
    column_index = {int(t): c for c, t in enumerate(targets)}
    # feedback[k] maps column -> t_k,target for targets k has opined about.
    y_hat = np.zeros((n, d), dtype=np.float64)
    w_excess_sum = np.zeros(n, dtype=np.float64)
    # Pre-extract each node's sparse opinions restricted to tracked columns.
    opinion_rows = []
    for k in range(n):
        row = trust.row(k)
        opinion_rows.append(
            [(column_index[t], v) for t, v in row.items() if t in column_index]
        )
    for estimator in range(n):
        excess = excess_weights(params, trust.row(estimator))
        if not excess:
            continue
        for neighbor in graph.neighbors(estimator):
            neighbor = int(neighbor)
            e = excess.get(neighbor)
            if e is None:
                continue
            w_excess_sum[estimator] += e
            for col, value in opinion_rows[neighbor]:
                y_hat[estimator, col] += e * value
    return y_hat, w_excess_sum


def true_vector_gclr(
    graph: Graph,
    trust: TrustMatrix,
    targets: Sequence[int],
    params: WeightParams,
    denominator_convention: DenominatorConvention = "observers",
) -> np.ndarray:
    """Exact eq.-6 reputation matrix (ground truth, no gossip)."""
    target_array = np.asarray(list(targets), dtype=np.int64)
    y_hat, w_excess_sum = _neighbor_corrections_matrix(graph, trust, target_array, params)
    sums = np.array([trust.column_sum(int(t)) for t in target_array])
    if denominator_convention == "observers":
        counts = np.array([float(len(trust.column(int(t)))) for t in target_array])
    else:
        counts = np.full(target_array.size, float(trust.num_nodes))
    denominator = w_excess_sum[:, None] + counts[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator > 0, (y_hat + sums[None, :]) / denominator, 0.0)


def initial_state_vector_gclr(
    trust: TrustMatrix, targets: Sequence[int], designated: int
) -> tuple:
    """Initial ``(values, weights, counts)`` matrices for variant 4.

    Column ``c`` carries target ``targets[c]``'s value sum and observer
    count; the single ``designated`` node holds gossip weight 1 in every
    column. Exposed separately so the :func:`repro.aggregate` facade and
    tests share the exact initialisation.
    """
    n = trust.num_nodes
    target_array = np.asarray(list(targets), dtype=np.int64)
    d = target_array.size
    values = np.zeros((n, d), dtype=np.float64)
    counts = np.zeros((n, d), dtype=np.float64)
    for col, target in enumerate(target_array):
        for observer, value in trust.column(int(target)).items():
            values[observer, col] = value
            counts[observer, col] = 1.0
    weights = np.zeros((n, d), dtype=np.float64)
    weights[designated, :] = 1.0
    return values, weights, counts


def gclr_reputations(
    graph: Graph,
    trust: TrustMatrix,
    targets: np.ndarray,
    outcome: GossipOutcome,
    params: WeightParams,
    denominator_convention: DenominatorConvention = "observers",
) -> np.ndarray:
    """Fold eq.-6 neighbour corrections into a finished gossip outcome.

    Separating the post-processing from the gossip run lets any backend
    (or the :func:`repro.aggregate` facade) produce the outcome while
    the eq.-6 algebra stays in one place.
    """
    n = graph.num_nodes
    sum_estimates = outcome.estimates  # (N, d): each approximates sum_i t_ij
    count_estimates = outcome.extra_estimates("count")  # (N, d): approximates N_dj
    y_hat, w_excess_sum = _neighbor_corrections_matrix(graph, trust, targets, params)

    if denominator_convention == "observers":
        count_term = count_estimates
    else:
        count_term = np.full((n, targets.size), float(n))
    denominator = w_excess_sum[:, None] + count_term
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator > 0, (y_hat + sum_estimates) / denominator, 0.0)


def aggregate_vector_gclr(
    graph: Graph,
    trust: TrustMatrix,
    *,
    targets: Optional[Sequence[int]] = None,
    params: WeightParams = WeightParams(),
    xi: float = 1e-4,
    denominator_convention: DenominatorConvention = "observers",
    backend: str = "auto",
    designated_node: Optional[int] = None,
    push_counts: Optional[np.ndarray] = None,
    rng: RngLike = None,
    max_steps: int = 10_000,
    track_history: bool = False,
    patience: int = 3,
) -> VectorGclrResult:
    """Run variant 4: per-node calibrated reputations for all tracked targets.

    Parameters combine those of variants 2 and 3 (``backend`` names any
    registered gossip backend, or ``"auto"``); see
    :func:`repro.core.single_gclr.aggregate_single_gclr` and
    :func:`repro.core.vector_global.aggregate_vector_global`.

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> from repro.trust.matrix import random_trust_matrix
    >>> g = preferential_attachment_graph(40, m=2, rng=5)
    >>> t = random_trust_matrix(g, rng=6)
    >>> r = aggregate_vector_gclr(g, t, targets=[0, 3, 9], xi=1e-6, rng=7)
    >>> r.max_absolute_error < 0.02
    True
    """
    if graph.num_nodes != trust.num_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but trust matrix has {trust.num_nodes}"
        )
    n = graph.num_nodes
    if targets is None:
        targets = range(n)
    target_array = np.asarray(list(targets), dtype=np.int64)
    if target_array.size == 0:
        raise ValueError("targets must be non-empty")
    if np.any((target_array < 0) | (target_array >= n)):
        raise ValueError(f"targets outside 0..{n - 1}")
    if np.unique(target_array).size != target_array.size:
        raise ValueError("targets must be distinct")
    if denominator_convention not in ("observers", "all"):
        raise ValueError(
            f"denominator_convention must be 'observers' or 'all', got {denominator_convention!r}"
        )

    designated = pick_designated_node(graph) if designated_node is None else int(designated_node)
    if not 0 <= designated < n or graph.degree(designated) == 0:
        raise ValueError(f"designated_node {designated} must be a non-isolated node id")

    values, weights, counts = initial_state_vector_gclr(trust, target_array, designated)
    outcome = run_backend(
        graph,
        values,
        weights,
        extras={"count": counts},
        config=GossipConfig(
            xi=xi,
            push_counts=push_counts,
            rng=rng,
            max_steps=max_steps,
            track_history=track_history,
            patience=patience,
        ),
        backend=backend,
    )
    reputations = gclr_reputations(
        graph, trust, target_array, outcome, params, denominator_convention
    )

    return VectorGclrResult(
        targets=target_array,
        reputations=reputations,
        true_reputations=true_vector_gclr(
            graph, trust, target_array, params, denominator_convention
        ),
        outcome=outcome,
    )
