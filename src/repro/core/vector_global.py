"""Algorithm 1 and its vector form — global reputation aggregation.

Every node that holds a direct opinion ``t_ij`` about a target ``j``
starts that target's slot with gossip pair ``(t_ij, 1)``; everyone else
starts with ``(0, 0)``. Push-sum then drives every node's ratio to
``sum_i t_ij / #observers``, the mean opinion over the nodes that have
actually interacted with ``j`` — the convention Algorithm 1's pseudocode
encodes. The surrounding text (eq. 1) instead divides by ``N`` (strangers
count as 0), which corresponds to starting every node with gossip weight
1. ``convention`` selects between the two.

Instead of gossiping about one target, every node pushes its whole
feedback *vector* ``y_i`` (one slot per target) and weight vector
``g_i``, tagged with target ids so receivers add slot-wise (variant 3).
Convergence uses the summed criterion of eq. 7. Dynamics per slot are
identical to Algorithm 1 run under shared push randomness, so one engine
invocation with an ``(N, d)`` state matrix is an exact simulation, and
Algorithm 1 for node ``j`` is ``targets=[j]``.

Memory is ``O(N * d)``: tracking all ``N`` targets is feasible to a few
thousand nodes; beyond that, pass a ``targets`` subset (the experiments
sample targets — slot dynamics are independent, so a sample is unbiased).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.backend import GossipConfig
from repro.core.results import GossipOutcome
from repro.facade import aggregate
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix

Convention = Literal["observers", "all"]


@dataclass
class VectorGlobalResult:
    """Outcome of variant 3.

    Attributes
    ----------
    targets:
        Target node ids, one per column.
    estimates:
        ``(N, d)`` matrix: ``estimates[I, c]`` is node ``I``'s estimate
        of target ``targets[c]``'s global reputation.
    true_values:
        Exact per-target values (length ``d``).
    outcome:
        Raw engine outcome.
    """

    targets: np.ndarray
    estimates: np.ndarray
    true_values: np.ndarray
    outcome: GossipOutcome

    @property
    def max_relative_error(self) -> float:
        """Worst relative error over every (node, target) cell."""
        scale = np.where(np.abs(self.true_values) > 0, np.abs(self.true_values), 1.0)
        return float((np.abs(self.estimates - self.true_values[None, :]) / scale[None, :]).max())


def initial_state_vector_global(
    trust: TrustMatrix,
    targets: Sequence[int],
    convention: Convention = "observers",
) -> tuple:
    """Initial ``(values, weights)`` matrices, one column per target."""
    n = trust.num_nodes
    d = len(targets)
    values = np.zeros((n, d), dtype=np.float64)
    weights = np.zeros((n, d), dtype=np.float64)
    for col, target in enumerate(targets):
        for observer, value in trust.column(int(target)).items():
            values[observer, col] = value
            weights[observer, col] = 1.0
    if convention == "all":
        weights[:, :] = 1.0
    elif convention != "observers":
        raise ValueError(f"convention must be 'observers' or 'all', got {convention!r}")
    return values, weights


def aggregate_vector_global(
    graph: Graph,
    trust: TrustMatrix,
    *,
    targets: Optional[Sequence[int]] = None,
    config: Optional[GossipConfig] = None,
    convention: Convention = "observers",
    backend: str = "auto",
) -> VectorGlobalResult:
    """Run variant 3: every node estimates every target's global reputation.

    Parameters
    ----------
    graph, trust:
        Topology and local trust matrix (sizes must agree).
    targets:
        Target columns to aggregate (default: all ``N`` nodes — mind the
        ``O(N^2)`` memory). ``targets=[j]`` is Algorithm 1 for node ``j``.
    config:
        Knobs of the gossip round (:class:`repro.core.backend.GossipConfig`;
        defaults apply when omitted). ``xi`` is the eq.-7 tolerance
        (per-node threshold ``d * xi``).
    convention:
        ``"observers"`` (Algorithm 1 pseudocode: average over opining
        nodes) or ``"all"`` (eq. 1: average over all ``N`` nodes).
    backend:
        Gossip backend name (or ``"auto"``); see
        :func:`repro.core.backend.available_backends`.

    Examples
    --------
    >>> from repro.core.backend import GossipConfig
    >>> from repro.network.topology_example import example_network
    >>> from repro.trust.matrix import random_trust_matrix
    >>> graph = example_network()
    >>> trust = random_trust_matrix(graph, rng=1)
    >>> result = aggregate_vector_global(
    ...     graph, trust, targets=[0, 3], config=GossipConfig(rng=2)
    ... )
    >>> result.estimates.shape
    (10, 2)
    """
    target_array = np.asarray(
        range(graph.num_nodes) if targets is None else list(targets), dtype=np.int64
    )
    outcome = aggregate(
        graph,
        trust,
        config,
        backend=backend,
        variant="vector-global",
        targets=target_array,
        convention=convention,
    )

    if convention == "observers":
        true_values = np.array(
            [trust.column_mean_over_observers(int(t)) for t in target_array]
        )
    else:
        true_values = np.array([trust.column_mean_over_all(int(t)) for t in target_array])

    return VectorGlobalResult(
        targets=target_array,
        estimates=outcome.estimates,
        true_values=true_values,
        outcome=outcome,
    )
