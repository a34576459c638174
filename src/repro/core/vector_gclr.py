"""Algorithm 2 and its vector form — globally calibrated local reputation.

Each estimating node ``I`` computes (eq. 6):

``Rep_I,j = (sum_{k in NS_I} (w_Ik - 1) t_kj  +  sum_i t_ij)
           / (sum_{k in NS_I} (w_Ik - 1)      +  N_d)``

The two global sums — ``sum_i t_ij`` and the observer count ``N_dj`` —
come out of one gossip round in which exactly *one* designated node
starts with gossip weight 1 (so every ratio converges to a *sum*, not a
mean), and observers additionally gossip a ``count`` component seeded
at 1. The neighbour terms need each neighbour's direct feedback about
``j``, which neighbours push directly before the round starts (the
pre-gossip feedback exchange in the paper's Figure 1 timeline). The
pseudocode's denominator uses the observer count ``N_d``; the derivation
in eq. 6 uses ``N`` (all nodes). ``denominator_convention`` selects
between them, defaulting to the pseudocode.

The full Differential Gossip Trust system (variant 4) carries these
sums slot-wise for every tracked target ``j`` in one gossip round, and
each estimating node folds in its weighted neighbour feedback. The
result is the ``(N, d)`` matrix of *per-node* reputations ``Rep_I,j`` —
the quantity the collusion experiments (Figures 5–6) measure RMS error
over. Per-slot dynamics are those of Algorithm 2 under shared push
randomness, so Algorithm 2 for node ``j`` is ``targets=[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.backend import GossipConfig
from repro.core.results import GossipOutcome
from repro.core.vector_global import initial_state_vector_global
from repro.core.weights import WeightParams
from repro.facade import aggregate
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix

DenominatorConvention = Literal["observers", "all"]


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


def _excess_entries(graph: Graph, trust: TrustMatrix, params: WeightParams) -> tuple:
    """The matrix ``E`` of eq. 6's excess weights, as ``(rows, neighbours, excess)``.

    ``E[I, k] = w_Ik - 1`` for every neighbour ``k`` of ``I`` that ``I``
    holds an opinion about, where that excess is not 0, listed in the
    graph's CSR order: each node's neighbours in turn, the order eq. 6's
    neighbour sums walk them. Each excess is the scalar
    ``a ** (b * t) - 1`` of :meth:`WeightParams.weight`.
    """
    # Whole-matrix arrays are dropped as soon as they are spent: they set
    # the call's peak memory.
    size = trust.num_nodes
    keys, targets, values = trust.to_arrays()
    keys *= size
    keys += targets
    del targets
    edge_keys = np.repeat(np.arange(graph.num_nodes, dtype=np.int64) * size, graph.degrees)
    edge_keys += graph.indices  # ascending: CSR rows and their columns are sorted
    slots = np.searchsorted(edge_keys, keys)
    # A key past the last edge key lands on the -1 sentinel (ids are >= 0).
    on_edge = np.append(edge_keys, -1)[slots] == keys
    del keys
    slots = slots[on_edge]
    opinions = np.empty(edge_keys.size, dtype=np.float64)
    opinions[slots] = values[on_edge]
    del values, on_edge
    held = np.zeros(edge_keys.size, dtype=bool)
    held[slots] = True
    # Python's scalar ** per entry: np.power can differ in the last bit.
    a, b = params.a, params.b
    excess = np.fromiter(
        (a ** (b * t) - 1.0 for t in map(float, opinions[held])), dtype=np.float64, count=slots.size
    )
    counted = excess != 0.0
    held[held] = counted
    return edge_keys[held] // size, graph.indices[held], excess[counted]


def _neighbor_corrections_matrix(
    graph: Graph,
    trust: TrustMatrix,
    targets: np.ndarray,
    params: WeightParams,
) -> tuple:
    """Eq.-6 correction terms for all estimating nodes at once.

    Returns ``(y_hat, w_excess_sum)`` with shapes ``(N, d)`` and ``(N,)``:
    the sparse products ``y_hat = E @ T[:, targets]`` and
    ``w_excess_sum = E @ 1`` over the excess weights ``E``
    (:func:`_excess_entries`).
    """
    n = graph.num_nodes
    if n > trust.num_nodes:
        raise ValueError(f"graph has {n} nodes but the trust matrix only {trust.num_nodes}")
    rows, neighbours, excess = _excess_entries(graph, trust, params)
    opinions, _ = initial_state_vector_global(trust, targets)
    # bincount adds each cell's terms in array order: E's order, the order a
    # walk over each node's neighbours adds them in. A pairwise sum (np.sum)
    # would not. A neighbour with no opinion about a target adds
    # excess * 0.0 = 0.0, which leaves every partial sum's bits alone.
    w_excess_sum = np.bincount(rows, weights=excess, minlength=n)
    y_hat = np.empty((n, targets.size), dtype=np.float64)
    for c in range(targets.size):
        y_hat[:, c] = np.bincount(rows, weights=excess * opinions[neighbours, c], minlength=n)
    return y_hat, w_excess_sum


def _exact_reputations(
    trust: TrustMatrix,
    targets: np.ndarray,
    terms: tuple,
    denominator_convention: DenominatorConvention,
) -> np.ndarray:
    """Eq. 6 from its correction terms and the exact global sums."""
    y_hat, w_excess_sum = terms
    sums = np.array([trust.column_sum(int(t)) for t in targets])
    if denominator_convention == "observers":
        counts = np.array([float(len(trust.column(int(t)))) for t in targets])
    else:
        counts = np.full(targets.size, float(trust.num_nodes))
    denominator = w_excess_sum[:, None] + counts[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator > 0, (y_hat + sums[None, :]) / denominator, 0.0)


def _gossiped_reputations(
    outcome: GossipOutcome,
    terms: tuple,
    denominator_convention: DenominatorConvention,
) -> np.ndarray:
    """Eq. 6 from its correction terms and the gossiped sums and counts."""
    y_hat, w_excess_sum = terms
    sum_estimates = outcome.estimates  # (N, d): each approximates sum_i t_ij
    if denominator_convention == "observers":
        count_term = outcome.extra_estimates("count")  # (N, d): approximates N_dj
    else:
        n = y_hat.shape[0]
        count_term = np.full(y_hat.shape, float(n))
    denominator = w_excess_sum[:, None] + count_term
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator > 0, (y_hat + sum_estimates) / denominator, 0.0)


def true_vector_gclr(
    graph: Graph,
    trust: TrustMatrix,
    targets: Sequence[int],
    params: WeightParams,
    denominator_convention: DenominatorConvention = "observers",
) -> np.ndarray:
    """Exact eq.-6 reputation matrix (ground truth, no gossip)."""
    target_array = np.asarray(list(targets), dtype=np.int64)
    terms = _neighbor_corrections_matrix(graph, trust, target_array, params)
    return _exact_reputations(trust, target_array, terms, denominator_convention)


def pick_designated_node(graph: Graph) -> int:
    """Lowest-id non-isolated node — the single carrier of gossip weight 1.

    The pseudocode hardcodes "node 1"; any node reachable by gossip
    works, but it must be able to participate or the weight mass would
    be stranded and every ratio would stay undefined.
    """
    degrees = graph.degrees
    candidates = np.flatnonzero(degrees > 0)
    if candidates.size == 0:
        raise ValueError("graph has no edges; sum-estimating gossip cannot run")
    return int(candidates[0])


def initial_state_vector_gclr(
    trust: TrustMatrix, targets: Sequence[int], designated: int
) -> tuple:
    """Initial ``(values, weights, counts)`` matrices for variant 4.

    Column ``c`` carries target ``targets[c]``'s value sum and observer
    count; the single ``designated`` node holds gossip weight 1 in every
    column. Exposed separately so the :func:`repro.aggregate` facade and
    tests share the exact initialisation.
    """
    # Observer opinions and observer indicators are exactly Algorithm 1's
    # initial values and weights.
    values, counts = initial_state_vector_global(trust, targets)
    weights = np.zeros_like(values)
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
    terms = _neighbor_corrections_matrix(graph, trust, np.asarray(targets), params)
    return _gossiped_reputations(outcome, terms, denominator_convention)


def aggregate_vector_gclr(
    graph: Graph,
    trust: TrustMatrix,
    *,
    targets: Optional[Sequence[int]] = None,
    config: Optional[GossipConfig] = None,
    denominator_convention: DenominatorConvention = "observers",
    backend: str = "auto",
    designated_node: Optional[int] = None,
) -> VectorGclrResult:
    """Run variant 4: per-node calibrated reputations for all tracked targets.

    Parameters
    ----------
    graph, trust:
        Topology and local trust matrix (sizes must agree).
    targets:
        Target columns to aggregate (default: all ``N`` nodes).
        ``targets=[j]`` is Algorithm 2 for node ``j``.
    config:
        Knobs of the gossip round (:class:`repro.core.backend.GossipConfig`;
        defaults apply when omitted); ``config.params`` holds the
        weighting constants ``a``, ``b`` of eq. 2.
    denominator_convention:
        ``"observers"`` divides by the gossiped observer count ``N_d``
        (Algorithm 2 pseudocode); ``"all"`` divides by ``N`` (eq. 6).
    backend:
        Gossip backend name (or ``"auto"``); see
        :func:`repro.core.backend.available_backends`.
    designated_node:
        The single node starting with gossip weight 1 (default: lowest-id
        non-isolated node, :func:`pick_designated_node`).

    Examples
    --------
    >>> from repro.core.backend import GossipConfig
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> from repro.trust.matrix import random_trust_matrix
    >>> g = preferential_attachment_graph(40, m=2, rng=5)
    >>> t = random_trust_matrix(g, rng=6)
    >>> r = aggregate_vector_gclr(
    ...     g, t, targets=[0, 3, 9], config=GossipConfig(xi=1e-6, rng=7)
    ... )
    >>> r.max_absolute_error < 0.02
    True
    """
    if denominator_convention not in ("observers", "all"):
        raise ValueError(
            f"denominator_convention must be 'observers' or 'all', got {denominator_convention!r}"
        )
    config = config if config is not None else GossipConfig()
    target_array = np.asarray(
        range(graph.num_nodes) if targets is None else list(targets), dtype=np.int64
    )
    outcome = aggregate(
        graph,
        trust,
        config,
        backend=backend,
        variant="vector-gclr",
        targets=target_array,
        designated_node=designated_node,
    )
    # One set of eq.-6 terms serves the gossiped and the exact reputations.
    terms = _neighbor_corrections_matrix(graph, trust, target_array, config.params)
    return VectorGclrResult(
        targets=target_array,
        reputations=_gossiped_reputations(outcome, terms, denominator_convention),
        true_reputations=_exact_reputations(trust, target_array, terms, denominator_convention),
        outcome=outcome,
    )
