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

from repro.core.convergence import ConvergenceProtocol
from repro.core.errors import ConvergenceError
from repro.core.results import GossipOutcome
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


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
    regardless.

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
    check_positive(xi, "xi")
    values = np.asarray(values, dtype=np.float64)
    n = graph.num_nodes
    if values.ndim not in (1, 2) or values.shape[0] != n:
        raise ValueError(f"values must have shape ({n},) or ({n}, d), got {values.shape}")
    columns = values.reshape(n, -1)
    d = columns.shape[1]
    generator = as_generator(rng)

    value = columns.astype(np.float64).copy()
    weight = np.ones(n, dtype=np.float64)
    # Every component shares one weight; the broadcast view follows the
    # in-place contact updates below.
    weights = np.broadcast_to(weight[:, None], value.shape)
    protocol = ConvergenceProtocol(graph, xi, num_components=d, patience=patience)
    protocol.start(value, weights)
    degrees = graph.degrees
    indptr, indices = graph.indptr, graph.indices

    push_messages = 0
    protocol_messages = 0
    active_node_steps = 0
    steps = 0
    while not protocol.all_stopped:
        if steps >= max_steps:
            raise ConvergenceError(steps, protocol.num_unconverged)
        active = np.flatnonzero(~protocol.stopped & (degrees > 0))
        active_node_steps += int(active.size)
        heard_external = np.zeros(n, dtype=bool)
        for node in active:
            neighbor = int(indices[indptr[node] + int(generator.integers(degrees[node]))])
            mid_value = 0.5 * (value[node] + value[neighbor])
            mid_weight = 0.5 * (weight[node] + weight[neighbor])
            value[node] = value[neighbor] = mid_value
            weight[node] = weight[neighbor] = mid_weight
            heard_external[node] = heard_external[neighbor] = True
            push_messages += 2  # request + response (per contact, any d)
        newly = protocol.observe_state(value, weights, heard_external)
        if newly.size:
            protocol_messages += int(degrees[newly].sum())
        steps += 1

    return GossipOutcome(
        values=value,
        weights=np.repeat(weight[:, None], d, axis=1),
        extras={},
        steps=steps,
        push_messages=push_messages,
        protocol_messages=protocol_messages,
        active_node_steps=active_node_steps,
        converged=protocol.converged.copy(),
        ratio_history=None,
    )
