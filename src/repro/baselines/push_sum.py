"""Normal push gossip (push-sum) baseline.

Kempe, Dobra & Gehrke's push-sum is differential gossip with ``k_i = 1``
for every node: each step, every node halves its pair and pushes one
half to a single uniformly random neighbour. On complete graphs it
converges in ``O(log N + log 1/xi)``; on PA graphs it is exactly the
algorithm Chierichetti et al. proved *slow* — which is the gap
differential push closes, and what Figure 3 measures.

Implemented as a thin configuration of the shared engine so that every
other knob (convergence protocol, packet loss, metrics) is identical between
baseline and contribution — differences in results are attributable to
the push rule alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.backend import GossipConfig, run_backend
from repro.core.differential import fixed_push_counts
from repro.core.results import GossipOutcome
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator


def normal_push_engine(
    graph: Graph,
    *,
    rng: RngLike = None,
) -> SparseGossipEngine:
    """A :class:`SparseGossipEngine` configured as normal push (``k = 1``).

    ``rng`` accepts any ``RngLike`` (``None``, int seed, ``Generator``,
    ``SeedSequence``) and is routed through
    :func:`repro.utils.rng.as_generator` here, so a ``SeedSequence``
    behaves identically to every other entry point.
    """
    return SparseGossipEngine(
        graph,
        push_counts=fixed_push_counts(graph, 1),
        rng=as_generator(rng),
    )


def push_sum_average(
    graph: Graph,
    values: np.ndarray,
    *,
    config: Optional[GossipConfig] = None,
    backend: str = "auto",
) -> GossipOutcome:
    """Estimate the average of ``values`` with classic push-sum.

    Every node starts with ``(value_i, 1)`` — the uniform-gossip setting
    of the paper's Section 5.1 analysis — and pushes to one random
    neighbour per step until the stop protocol fires. Runs through the
    unified backend layer (``k = 1`` in the shared
    :class:`repro.core.backend.GossipConfig`), so the baseline scales
    onto the sparse engine like everything else.

    Parameters
    ----------
    graph:
        Topology.
    values:
        Per-node numbers to average, shape ``(N,)``.
    config:
        Knobs of the round (:class:`repro.core.backend.GossipConfig`;
        defaults apply when omitted). Its push rule is overridden:
        ``k = 1``, no ``push_counts``.
    backend:
        Registered gossip backend name; the default ``"auto"`` follows
        :func:`repro.core.backend.choose_backend_name`. Pass an
        explicit name to pin one.

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> import numpy as np
    >>> from repro.core.backend import GossipConfig
    >>> g = preferential_attachment_graph(50, m=2, rng=0)
    >>> out = push_sum_average(g, np.arange(50.0), config=GossipConfig(xi=1e-6, rng=1))
    >>> bool(np.allclose(out.estimates, 24.5, atol=0.05))
    True
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (graph.num_nodes,):
        raise ValueError(f"values must have shape ({graph.num_nodes},), got {values.shape}")
    return run_backend(
        graph,
        values,
        np.ones(graph.num_nodes),
        config=replace(
            config if config is not None else GossipConfig(), k=1, push_counts=None
        ),
        backend=backend,
    )
