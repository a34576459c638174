"""Algorithm 1 — global reputation aggregation for a single node.

Every node that holds a direct opinion ``t_ij`` about the target ``j``
starts with gossip pair ``(t_ij, 1)``; everyone else starts with
``(0, 0)``. Push-sum then drives every node's ratio to

``sum_i t_ij / #observers``,

the mean opinion over the nodes that have actually interacted with
``j``. That is the convention Algorithm 1's pseudocode encodes. The
surrounding text (eq. 1) instead divides by ``N`` — the mean over *all*
nodes, strangers counting as 0 — which corresponds to starting every
node with gossip weight 1. Both conventions are implemented and selected
by ``convention``; the discrepancy is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.core.backend import GossipConfig, run_backend
from repro.core.results import GossipOutcome
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike

Convention = Literal["observers", "all"]


@dataclass
class SingleGlobalResult:
    """Outcome of Algorithm 1 for one target node.

    Attributes
    ----------
    target:
        The node whose reputation was aggregated.
    estimates:
        Per-node estimate of the target's global reputation, length N.
    true_value:
        The exact value gossip is estimating (for error reporting).
    outcome:
        Raw engine outcome (steps, messages, convergence flags...).
    """

    target: int
    estimates: np.ndarray
    true_value: float
    outcome: GossipOutcome

    @property
    def max_relative_error(self) -> float:
        """Worst per-node relative estimation error vs the true value."""
        if self.true_value == 0.0:
            return float(np.abs(self.estimates).max())
        return float(np.abs(self.estimates - self.true_value).max() / abs(self.true_value))


def initial_state_single_global(
    trust: TrustMatrix, target: int, convention: Convention = "observers"
) -> tuple:
    """Initial ``(values, weights)`` vectors for Algorithm 1.

    Exposed separately so tests and baselines can reuse the exact
    initialisation.
    """
    n = trust.num_nodes
    values = np.zeros(n, dtype=np.float64)
    weights = np.zeros(n, dtype=np.float64)
    for observer, value in trust.column(target).items():
        values[observer] = value
        weights[observer] = 1.0
    if convention == "all":
        weights[:] = 1.0
    elif convention != "observers":
        raise ValueError(f"convention must be 'observers' or 'all', got {convention!r}")
    return values, weights


def true_single_global(trust: TrustMatrix, target: int, convention: Convention = "observers") -> float:
    """The exact quantity Algorithm 1 estimates for ``target``."""
    if convention == "all":
        return trust.column_mean_over_all(target)
    if convention == "observers":
        return trust.column_mean_over_observers(target)
    raise ValueError(f"convention must be 'observers' or 'all', got {convention!r}")


def aggregate_single_global(
    graph: Graph,
    trust: TrustMatrix,
    target: int,
    *,
    xi: float = 1e-4,
    convention: Convention = "observers",
    backend: str = "auto",
    push_counts: Optional[np.ndarray] = None,
    rng: RngLike = None,
    max_steps: int = 10_000,
    track_history: bool = False,
    patience: int = 3,
) -> SingleGlobalResult:
    """Run Algorithm 1: estimate ``target``'s global reputation at every node.

    Parameters
    ----------
    graph:
        Overlay topology the gossip runs over.
    trust:
        Sparse local trust matrix ``t_ij``.
    target:
        Node ``j`` whose reputation is aggregated.
    xi:
        Gossip error tolerance.
    convention:
        ``"observers"`` (Algorithm 1 pseudocode: average over opining
        nodes) or ``"all"`` (eq. 1: average over all ``N`` nodes).
    backend:
        Backend name from :func:`repro.core.backend.available_backends`;
        ``"auto"`` (default) follows
        :func:`repro.core.backend.choose_backend_name`. See
        :func:`repro.aggregate` for the facade form.
    push_counts:
        Override the differential push counts (baselines/ablations).
    rng:
        Seed / generator.
    max_steps:
        Safety limit before :class:`repro.core.errors.ConvergenceError`.
    track_history:
        Keep per-step ratio snapshots in the outcome.

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> from repro.trust.matrix import random_trust_matrix
    >>> g = preferential_attachment_graph(60, m=2, rng=1)
    >>> t = random_trust_matrix(g, rng=2)
    >>> result = aggregate_single_global(g, t, target=5, xi=1e-5, rng=3)
    >>> result.max_relative_error < 0.01
    True
    """
    if graph.num_nodes != trust.num_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but trust matrix has {trust.num_nodes}"
        )
    if not 0 <= target < graph.num_nodes:
        raise ValueError(f"target {target} outside 0..{graph.num_nodes - 1}")

    values, weights = initial_state_single_global(trust, target, convention)
    outcome = run_backend(
        graph,
        values,
        weights,
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

    return SingleGlobalResult(
        target=target,
        estimates=outcome.estimates.reshape(-1),
        true_value=true_single_global(trust, target, convention),
        outcome=outcome,
    )
