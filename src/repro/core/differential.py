"""The differential push rule (Section 4.1.1).

Plain push gossip stalls on power-law graphs: a hub with degree ``d``
pushing once per step needs ``Theta(d)`` steps just to touch each of its
neighbours. The paper's fix is *differential* push — node ``i`` makes

``k_i = round(deg(i) / mean degree of i's neighbours)``     (>= 1)

pushes per step, so hubs push proportionally harder without any node
having to know whether it *is* a hub: both quantities are local (each
node learns neighbour degrees from one degree-announcement push at round
start).

``k_i`` is rounded to the nearest integer when the ratio is >= 1 and
forced to 1 otherwise. Rounding uses round-half-up so the rule is
deterministic across platforms (banker's rounding would map 2.5 -> 2).
"""

from __future__ import annotations

import numpy as np

from repro.network.graph import Graph


def push_ratio(graph: Graph) -> np.ndarray:
    """Raw ratio ``deg(i) / mean neighbour degree`` per node.

    Isolated nodes (degree 0) get ratio 0; they cannot push at all and
    the engines exclude them from convergence requirements.
    """
    degrees = graph.degrees.astype(np.float64)
    avg = graph.average_neighbor_degrees
    out = np.zeros(graph.num_nodes, dtype=np.float64)
    np.divide(degrees, avg, out=out, where=avg > 0.0)
    return out


def push_counts(graph: Graph) -> np.ndarray:
    """Differential push counts ``k_i`` for every node.

    Parameters
    ----------
    graph:
        Topology; degrees and neighbour degrees are read from it.

    Returns
    -------
    numpy.ndarray
        Integer array of per-node push counts, each >= 1 (except
        isolated nodes, which get 0 since they have nobody to push to).
        ``k_i`` never exceeds ``deg(i)``: pushes go to *distinct*
        neighbours, and since every neighbour has degree >= 1 the mean
        neighbour degree is >= 1, hence ``k_i <= deg(i)`` already — the
        clamp below only documents the invariant.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> push_counts(example_network()).tolist()
    [1, 1, 3, 1, 1, 1, 1, 1, 1, 1]
    """
    ratio = push_ratio(graph)
    degrees = graph.degrees
    # round-half-up for ratio >= 1; k = 1 for 0 < ratio < 1.
    k = np.where(ratio >= 1.0, np.floor(ratio + 0.5), 1.0).astype(np.int64)
    k = np.minimum(k, degrees)
    k[degrees == 0] = 0
    return k


# Module-internal alias: resolve_push_counts' parameter shadows the name.
push_counts_differential = push_counts


def resolve_push_counts(graph: Graph, push_counts: np.ndarray | None = None) -> np.ndarray:
    """Default + validate per-node push counts for an engine constructor.

    This is the single definition of the per-hub push-count contract
    every synchronous engine shares:

    - ``push_counts=None`` resolves to the differential rule
      (:func:`push_counts`);
    - an explicit array must be one integer per node;
    - no count may exceed the node's degree (pushes go to *distinct*
      neighbours, and an engine splits state into ``k + 1`` shares, so
      an excess would leak gossip mass) and every non-isolated node
      must push at least once per step.

    :func:`fixed_push_counts` clamps a uniform ``k`` to each degree
    before it gets here. Returns a fresh ``int64`` array of shape
    ``(num_nodes,)``.
    """
    if push_counts is None:
        return push_counts_differential(graph)
    counts = np.asarray(push_counts, dtype=np.int64)
    if counts.shape != (graph.num_nodes,):
        raise ValueError(
            f"push_counts must have shape ({graph.num_nodes},), got {counts.shape}"
        )
    if np.any(counts > graph.degrees):
        raise ValueError(
            "push_counts may not exceed node degree (pushes go to distinct neighbours)"
        )
    if np.any((counts < 1) & (graph.degrees > 0)):
        raise ValueError("every non-isolated node must push at least once per step")
    return counts.copy()


def fixed_push_counts(graph: Graph, k: int) -> np.ndarray:
    """Uniform push counts (``k_i = k`` for all nodes), for baselines/ablations.

    ``k = 1`` reproduces normal push gossip (push-sum). Counts are still
    clamped to node degree so a leaf is never asked to pick two distinct
    neighbours.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = np.minimum(np.full(graph.num_nodes, k, dtype=np.int64), graph.degrees)
    counts[graph.degrees == 0] = 0
    return counts
