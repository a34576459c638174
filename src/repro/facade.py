"""``repro.aggregate`` — one entry point over every gossip backend.

Historically each aggregation variant and each engine had its own entry
point (seven in total); every experiment, benchmark, attack and
simulation caller hard-coded one. The facade collapses them:

>>> import numpy as np
>>> from repro import aggregate, GossipConfig
>>> from repro.network.topology_example import example_network
>>> g = example_network()
>>> out = aggregate(g, np.arange(10.0), GossipConfig(xi=1e-6, rng=7))
>>> bool(np.allclose(out.estimates, 4.5, atol=1e-3))
True

``trust`` may be:

- a plain per-node array (shape ``(N,)`` or ``(N, d)``) — gossip
  averages it (weights 1 everywhere), the uniform-gossip setting of the
  paper's Section 5.1 analysis;
- a :class:`repro.trust.matrix.TrustMatrix` — the ``variant`` parameter
  selects the paper's aggregation variant ("single-global",
  "vector-global", "single-gclr", "vector-gclr"), and the facade builds
  the exact initial state the dedicated entry points use;
- a list/tuple of either of the above — one *reputation channel* per
  entry, gossiped in a single multi-channel pass: the facade stacks the
  per-channel initial states channel-major and runs them under
  ``num_channels = len(trust)``, so V channels pay for one round of
  sampling draws instead of V (Golem's computing + delegating dual-rank
  is the motivating workload). ``GossipOutcome.channel_estimates(c)``
  slices channel ``c`` back out.

``backend`` names any registered gossip backend
(:func:`repro.core.backend.available_backends`); ``"auto"`` picks
async for latency-bearing networks, message for tiny worlds and sparse
otherwise (:func:`repro.core.backend.choose_backend_name`). The return value is
always the engines' common :class:`repro.core.results.GossipOutcome`;
for the rich per-variant result objects (true values, eq.-6
reputations) keep using :func:`repro.core.vector_gclr.aggregate_vector_gclr`
and friends — they run through this same backend layer.

``aggregate`` runs one round on a *frozen* topology. For a network
with real session churn — peers joining by preferential attachment and
leaving epoch over epoch — use its dynamic sibling
:func:`repro.run_dynamic` (:mod:`repro.runtime`), which replays a
seeded churn trace over a mutable overlay and warm-starts each epoch's
round from the last through this same backend layer.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import GossipConfig, run_backend
from repro.core.results import GossipOutcome
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix

#: Aggregation variants accepted when ``trust`` is a TrustMatrix.
VARIANTS = ("mean", "single-global", "vector-global", "single-gclr", "vector-gclr")


def _validated_targets(num_nodes: int, targets: Optional[Sequence[int]]) -> list:
    """Target columns for the vector variants (same rules as the entry points)."""
    if targets is None:
        return list(range(num_nodes))
    resolved = [int(t) for t in targets]
    if not resolved:
        raise ValueError("targets must be non-empty")
    if any(t < 0 or t >= num_nodes for t in resolved):
        raise ValueError(f"targets outside 0..{num_nodes - 1}")
    if len(set(resolved)) != len(resolved):
        raise ValueError("targets must be distinct")
    return resolved


def _initial_state(
    graph: Graph,
    trust: Union[TrustMatrix, np.ndarray],
    variant: Optional[str],
    *,
    target: Optional[int],
    targets: Optional[Sequence[int]],
    convention: str,
    designated_node: Optional[int],
) -> tuple:
    """Build ``(values, weights, extras)`` for the requested variant."""
    if not isinstance(trust, TrustMatrix):
        values = np.asarray(trust, dtype=np.float64)
        if variant not in (None, "mean"):
            raise ValueError(
                f"variant {variant!r} needs a TrustMatrix; got a plain array "
                "(arrays are averaged with the 'mean' variant)"
            )
        if values.shape[0] != graph.num_nodes:
            raise ValueError(
                f"values must have one row per node ({graph.num_nodes}), got shape {values.shape}"
            )
        return values, np.ones_like(values, dtype=np.float64), None

    if graph.num_nodes != trust.num_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but trust matrix has {trust.num_nodes}"
        )
    variant = variant if variant is not None else "vector-global"
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "mean":
        raise ValueError("variant 'mean' averages a plain array, not a TrustMatrix")

    if variant == "single-global":
        from repro.core.single_global import initial_state_single_global

        if target is None:
            raise ValueError("variant 'single-global' requires target=<node id>")
        values, weights = initial_state_single_global(trust, int(target), convention)
        return values, weights, None

    if variant == "vector-global":
        from repro.core.vector_global import initial_state_vector_global

        resolved = _validated_targets(graph.num_nodes, targets)
        values, weights = initial_state_vector_global(trust, resolved, convention)
        return values, weights, None

    from repro.core.single_gclr import pick_designated_node

    designated = (
        pick_designated_node(graph) if designated_node is None else int(designated_node)
    )
    if not 0 <= designated < graph.num_nodes or graph.degree(designated) == 0:
        raise ValueError(
            f"designated_node {designated} must be a non-isolated node id "
            "(stranded gossip weight would leave every ratio undefined)"
        )
    if variant == "single-gclr":
        from repro.core.single_gclr import initial_state_single_gclr

        if target is None:
            raise ValueError("variant 'single-gclr' requires target=<node id>")
        values, weights, counts = initial_state_single_gclr(trust, int(target), designated)
        return values, weights, {"count": counts}

    from repro.core.vector_gclr import initial_state_vector_gclr

    resolved = _validated_targets(graph.num_nodes, targets)
    values, weights, counts = initial_state_vector_gclr(trust, resolved, designated)
    return values, weights, {"count": counts}


def _stacked_channel_state(
    graph: Graph,
    channels: Sequence[Union[TrustMatrix, np.ndarray]],
    variant: Optional[str],
    *,
    target: Optional[int],
    targets: Optional[Sequence[int]],
    convention: str,
    designated_node: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, Optional[Dict[str, np.ndarray]]]:
    """Channel-major stacked ``(values, weights, extras)`` for V channels.

    Each entry of ``channels`` goes through the exact per-variant
    initial-state construction a single-channel call would use; the
    results are horizontally stacked so channel ``c`` owns columns
    ``[c * width, (c + 1) * width)`` — the layout the engines' per-channel
    convergence assumes.
    """
    if not channels:
        raise ValueError("trust sequence must contain at least one channel")
    values_list: List[np.ndarray] = []
    weights_list: List[np.ndarray] = []
    extras_list: List[Optional[Dict[str, np.ndarray]]] = []
    width: Optional[int] = None
    for index, channel_trust in enumerate(channels):
        values, weights, extras = _initial_state(
            graph,
            channel_trust,
            variant,
            target=target,
            targets=targets,
            convention=convention,
            designated_node=designated_node,
        )
        if values.ndim == 1:
            values = values.reshape(-1, 1)
            weights = weights.reshape(-1, 1)
        if extras is not None:
            extras = {
                name: (array.reshape(-1, 1) if array.ndim == 1 else array)
                for name, array in extras.items()
            }
        if width is None:
            width = values.shape[1]
        elif values.shape[1] != width:
            raise ValueError(
                f"trust channel {index} produces {values.shape[1]} columns but "
                f"channel 0 produced {width}; every channel must aggregate the "
                "same number of components"
            )
        values_list.append(values)
        weights_list.append(weights)
        extras_list.append(extras)
    extra_keys = {frozenset(extras or ()) for extras in extras_list}
    if len(extra_keys) != 1:
        raise ValueError("trust channels produced inconsistent extra components")
    stacked_extras: Optional[Dict[str, np.ndarray]] = None
    if extras_list[0]:
        stacked_extras = {
            name: np.hstack([extras[name] for extras in extras_list])
            for name in extras_list[0]
        }
    return np.hstack(values_list), np.hstack(weights_list), stacked_extras


def aggregate(
    graph: Graph,
    trust: Union[TrustMatrix, np.ndarray, Sequence[Union[TrustMatrix, np.ndarray]]],
    config: Optional[GossipConfig] = None,
    *,
    backend: str = "auto",
    variant: Optional[str] = None,
    target: Optional[int] = None,
    targets: Optional[Sequence[int]] = None,
    convention: str = "observers",
    designated_node: Optional[int] = None,
    extras: Optional[Dict[str, np.ndarray]] = None,
) -> GossipOutcome:
    """Run one reputation-aggregation gossip round on any backend.

    Parameters
    ----------
    graph:
        Overlay topology the gossip runs over.
    trust:
        A :class:`~repro.trust.matrix.TrustMatrix` (aggregated per
        ``variant``), a per-node array to average, or a list/tuple of
        either — one reputation channel per entry, stacked
        channel-major and gossiped in a single
        ``num_channels = len(trust)`` pass (every channel must produce
        the same column count; ``config.num_channels``, when set, must
        match).
    config:
        Shared knobs of the round
        (:class:`repro.core.backend.GossipConfig`); defaults apply when
        omitted. It has no performance knobs: every backend gossips
        float64 state, and the sparse backend runs one push kernel (see
        :doc:`docs/performance.md <../docs/performance>`).
    backend:
        Registered backend name, or ``"auto"`` (async for latency-bearing
        networks, message for tiny worlds, sparse otherwise).
    variant:
        Aggregation variant for TrustMatrix input; default
        ``"vector-global"``. One of ``"single-global"``,
        ``"vector-global"``, ``"single-gclr"``, ``"vector-gclr"``
        (``"mean"`` is implied for array input).
    target:
        Target node for the single-target variants.
    targets:
        Tracked target columns for the vector variants (default: all).
    convention:
        ``"observers"`` or ``"all"`` (see
        :mod:`repro.core.single_global`).
    designated_node:
        Gclr variants: the single node carrying gossip weight 1
        (default: lowest-id non-isolated node).
    extras:
        Additional components to gossip alongside (array input only —
        the gclr variants reserve the extras channel for their observer
        count).

    Returns
    -------
    GossipOutcome
        The engines' common result record: final values/weights/extras,
        steps, message counts, per-node convergence flags.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import GossipConfig, aggregate
    >>> from repro.network.topology_example import example_network
    >>> graph = example_network()
    >>> out = aggregate(graph, np.linspace(0.0, 1.0, 10), GossipConfig(rng=1))
    >>> bool(np.allclose(out.estimates, 0.5, atol=1e-3))  # the global mean
    True
    """
    if isinstance(trust, (list, tuple)):
        values, weights, variant_extras = _stacked_channel_state(
            graph,
            trust,
            variant,
            target=target,
            targets=targets,
            convention=convention,
            designated_node=designated_node,
        )
        num_channels = len(trust)
        if num_channels > 1:
            config = config if config is not None else GossipConfig()
            if config.num_channels == 1:
                config = dataclasses.replace(config, num_channels=num_channels)
            elif config.num_channels != num_channels:
                raise ValueError(
                    f"config.num_channels ({config.num_channels}) does not match "
                    f"the {num_channels} trust channels passed"
                )
    else:
        values, weights, variant_extras = _initial_state(
            graph,
            trust,
            variant,
            target=target,
            targets=targets,
            convention=convention,
            designated_node=designated_node,
        )
    if variant_extras is not None:
        if extras:
            raise ValueError(
                "gclr variants reserve the extras channel for their observer count"
            )
        extras = variant_extras
    return run_backend(
        graph, values, weights, extras=extras, config=config, backend=backend
    )
