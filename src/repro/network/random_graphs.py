"""Non-PA overlay generators, for ablations.

The differential rule's entire advantage comes from degree skew: on a
(near-)regular topology ``k_i ≈ 1`` everywhere and differential push
*is* normal push. These generators provide the controls that make the
claim falsifiable:

- :func:`erdos_renyi_graph` — G(n, p): light-tailed Poisson degrees;
- :func:`random_regular_graph` — every degree identical;
- :func:`regional_graph` — a planted-partition overlay (dense regions,
  sparse cross-region links) whose region blocks line up with the
  regions of a :class:`repro.network.conditions.LinkModel`.

`tests/test_paper_fidelity.py` runs the same convergence experiment on
PA and on a regular overlay and checks that the differential/normal
step gap collapses as the degree distribution flattens.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.network.conditions import block_regions
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_probability


def erdos_renyi_graph(num_nodes: int, edge_probability: float, *, rng: RngLike = None) -> Graph:
    """G(n, p) random graph.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    edge_probability:
        Independent probability of each of the ``n(n-1)/2`` edges.
    rng:
        Seed / generator.

    Notes
    -----
    Sampling is vectorised over the upper triangle, so generation is
    O(n^2 / 2) bits — fine for the ablation sizes (<= a few thousand).

    Examples
    --------
    >>> g = erdos_renyi_graph(100, 0.05, rng=1)
    >>> 0 < g.num_edges < 100 * 99 / 2
    True
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    check_probability(edge_probability, "edge_probability")
    generator = as_generator(rng)
    rows, cols = np.triu_indices(num_nodes, k=1)
    mask = generator.random(rows.shape[0]) < edge_probability
    edges = list(zip(rows[mask].tolist(), cols[mask].tolist()))
    return Graph(num_nodes, edges)


def random_regular_graph(num_nodes: int, degree: int, *, rng: RngLike = None, max_retries: int = 100) -> Graph:
    """Uniform-ish random ``degree``-regular simple graph (pairing model).

    Parameters
    ----------
    num_nodes:
        Number of nodes; ``num_nodes * degree`` must be even and
        ``degree < num_nodes``.
    degree:
        Common degree of every node.
    rng:
        Seed / generator.
    max_retries:
        Pairing-model rejection attempts before giving up (failure
        probability per attempt is bounded away from 1 for fixed
        degree).

    Examples
    --------
    >>> g = random_regular_graph(50, 4, rng=2)
    >>> set(map(int, g.degrees)) == {4}
    True
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree >= num_nodes:
        raise ValueError(f"degree ({degree}) must be < num_nodes ({num_nodes})")
    if (num_nodes * degree) % 2 != 0:
        raise ValueError(f"num_nodes * degree must be even, got {num_nodes} * {degree}")
    generator = as_generator(rng)

    for _ in range(max_retries):
        stubs = np.repeat(np.arange(num_nodes), degree)
        generator.shuffle(stubs)
        # Pair consecutive stubs, then repair conflicts (self-loops and
        # duplicates) by edge swaps — far more reliable than rejecting
        # the whole pairing, whose success probability decays like
        # exp(-(d^2 - 1)/4).
        pairs: List[List[int]] = [
            [int(stubs[i]), int(stubs[i + 1])] for i in range(0, stubs.size, 2)
        ]
        if _repair_pairing(pairs, generator, max_swaps=50 * len(pairs)):
            edges = [(min(u, v), max(u, v)) for u, v in pairs]
            return Graph(num_nodes, edges)
    raise RuntimeError(
        f"pairing model failed to produce a simple {degree}-regular graph "
        f"on {num_nodes} nodes within {max_retries} attempts"
    )


def regional_graph(
    num_nodes: int,
    num_regions: int,
    *,
    intra_probability: float = 0.2,
    inter_probability: float = 0.01,
    rng: RngLike = None,
) -> Graph:
    """Planted-partition overlay: dense regions, sparse cross links.

    Nodes are split into ``num_regions`` contiguous blocks by
    :func:`repro.network.conditions.block_regions`, so the same
    ``num_regions`` handed to a
    :class:`~repro.network.conditions.LinkModel` as ``regions`` assigns every
    peer the region its topology was generated in. Within a region each
    pair is linked with ``intra_probability``; across regions with
    ``inter_probability``. Connectivity is guaranteed: each region gets
    a Hamiltonian path through its block and consecutive regions are
    joined by one deterministic bridge edge (block boundaries), so even
    ``inter_probability=0`` yields a single component.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    num_regions:
        Number of contiguous region blocks; must be in ``[1, num_nodes]``.
    intra_probability:
        Edge probability for same-region pairs.
    inter_probability:
        Edge probability for cross-region pairs.
    rng:
        Seed / generator.

    Examples
    --------
    >>> g = regional_graph(60, 3, rng=5)
    >>> g.is_connected()
    True
    >>> from repro.network.conditions import block_regions
    >>> regions = block_regions(60, 3)
    >>> intra = sum(1 for u, v in g.edges() if regions[u] == regions[v])
    >>> intra > g.num_edges - intra  # regions are denser than cross links
    True
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if not 1 <= num_regions <= num_nodes:
        raise ValueError(
            f"num_regions must be in [1, {num_nodes}], got {num_regions}"
        )
    check_probability(intra_probability, "intra_probability")
    check_probability(inter_probability, "inter_probability")
    generator = as_generator(rng)
    regions = block_regions(num_nodes, num_regions)

    rows, cols = np.triu_indices(num_nodes, k=1)
    same = regions[rows] == regions[cols]
    probs = np.where(same, intra_probability, inter_probability)
    mask = generator.random(rows.shape[0]) < probs
    edge_set = set(zip(rows[mask].tolist(), cols[mask].tolist()))
    # Deterministic connectivity spine: a path through each block plus a
    # bridge between consecutive blocks (their boundary nodes).
    for u in range(num_nodes - 1):
        if regions[u] == regions[u + 1]:
            edge_set.add((u, u + 1))
    boundaries = np.flatnonzero(np.diff(regions)).tolist()
    for u in boundaries:
        edge_set.add((u, u + 1))
    return Graph(num_nodes, sorted(edge_set))


def _repair_pairing(pairs: List[List[int]], generator, max_swaps: int) -> bool:
    """Fix self-loops/duplicate edges in a stub pairing by random swaps.

    A conflicting pair trades one endpoint with a uniformly random other
    pair; the trade is kept only if it does not create new conflicts.
    Returns whether a simple pairing was reached.
    """

    def key(pair: List[int]) -> Tuple[int, int]:
        return (pair[0], pair[1]) if pair[0] < pair[1] else (pair[1], pair[0])

    counts: dict = {}
    for pair in pairs:
        counts[key(pair)] = counts.get(key(pair), 0) + 1

    def is_bad(pair: List[int]) -> bool:
        return pair[0] == pair[1] or counts[key(pair)] > 1

    bad = [idx for idx, pair in enumerate(pairs) if is_bad(pair)]
    swaps = 0
    while bad and swaps < max_swaps:
        swaps += 1
        idx = bad[int(generator.integers(len(bad)))]
        other = int(generator.integers(len(pairs)))
        if other == idx:
            continue
        a, b = pairs[idx], pairs[other]
        # Propose swapping b's second endpoint into a.
        new_a = [a[0], b[1]]
        new_b = [b[0], a[1]]
        if new_a[0] == new_a[1] or new_b[0] == new_b[1]:
            continue
        counts[key(a)] -= 1
        counts[key(b)] -= 1
        if counts.get(key(new_a), 0) >= 1 or counts.get(key(new_b), 0) >= 1 or key(new_a) == key(new_b):
            counts[key(a)] += 1
            counts[key(b)] += 1
            continue
        counts[key(new_a)] = counts.get(key(new_a), 0) + 1
        counts[key(new_b)] = counts.get(key(new_b), 0) + 1
        pairs[idx][:] = new_a
        pairs[other][:] = new_b
        bad = [i for i, pair in enumerate(pairs) if is_bad(pair)]
    return not bad
