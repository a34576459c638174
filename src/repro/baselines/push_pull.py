"""Push-pull averaging gossip baseline.

Chierichetti et al. showed push-pull spreads rumours on PA graphs in
``O((log N)^2)`` — the bound differential push matches *without*
pulling. This module implements the averaging form (randomised pairwise
averaging à la Boyd et al.): each step every node contacts one random
neighbour, and the contacted pair replaces both states with their
midpoint. Mass is conserved because every exchange is symmetric.

Pull is more expensive than push in practice (a pull is a request *and*
a response — two messages), which is the paper's stated reason to avoid
it; :func:`push_pull_average` therefore counts two messages per contact
so overhead comparisons are fair.
"""

from __future__ import annotations

import numpy as np

from repro.core.differential import fixed_push_counts
from repro.core.results import GossipOutcome
from repro.core.sparse_engine import SynchronousEngine
from repro.network.graph import Graph
from repro.utils.rng import RngLike


class _PairwiseAveraging(SynchronousEngine):
    """Push-pull on the shared synchronous round loop.

    Every node contacts one neighbour per step, so the engine runs with
    ``k = 1`` push counts (no degree announcements) and no loss model.
    """

    def __init__(self, graph: Graph, rng: RngLike):
        super().__init__(graph, push_counts=fixed_push_counts(graph, 1), rng=rng)

    def _round_step(self, state, slices, num_channels):
        return self._contact_step

    def _contact_step(self, state, active, *, all_active, rng, loss_model, heard_out):
        degrees = self._graph.degrees
        indptr, indices = self._graph.indptr, self._graph.indices
        contacts = np.flatnonzero(active)
        heard_out[:] = False
        for node in contacts:
            neighbor = int(indices[indptr[node] + int(rng.integers(degrees[node]))])
            # The pair's whole state rows — values and weights — meet at
            # their midpoint.
            midpoint = 0.5 * (state[node] + state[neighbor])
            state[node] = state[neighbor] = midpoint
            heard_out[node] = heard_out[neighbor] = True
        return state, 2 * contacts.size  # request + response (per contact, any d)


def push_pull_average(
    graph: Graph,
    values: np.ndarray,
    *,
    xi: float = 1e-4,
    rng: RngLike = None,
    max_steps: int = 10_000,
    patience: int = 3,
) -> GossipOutcome:
    """Estimate the average of ``values`` by randomised pairwise averaging.

    Each step, every node picks one uniformly random neighbour; the two
    average their ``(value, weight)`` pairs. Contacts are processed
    sequentially within a step (asynchronous-style), so a node touched
    twice in one step simply averages twice — mass conservation holds
    regardless. The round runs on the synchronous engines' shared loop
    (:class:`repro.core.sparse_engine.SynchronousEngine`) with the
    paper-literal stop rule (no warmup).

    Parameters
    ----------
    graph:
        Topology.
    values:
        Per-node numbers to average: shape ``(N,)`` for one component,
        or ``(N, d)`` to average ``d`` components in one pass (every
        contact exchanges the whole state vector, so the message count
        is per *contact*, not per component).
    xi, rng, max_steps, patience:
        As in the shared engine contract (``rng`` accepts any
        ``RngLike``, routed through
        :func:`repro.utils.rng.as_generator`).

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> import numpy as np
    >>> g = preferential_attachment_graph(40, m=2, rng=0)
    >>> out = push_pull_average(g, np.arange(40.0), xi=1e-6, rng=1)
    >>> bool(np.allclose(out.estimates, 19.5, atol=0.05))
    True
    """
    values = np.asarray(values, dtype=np.float64)
    return _PairwiseAveraging(graph, rng).run(
        values,
        np.ones_like(values),
        xi=xi,
        max_steps=max_steps,
        patience=patience,
        warmup_steps=0,
    )
