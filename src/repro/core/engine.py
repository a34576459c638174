"""Message-level differential-gossip engine.

Where :mod:`repro.core.sparse_engine` vectorises the update rule for
scale, this engine models the *protocol*: every node is an object with a
mailbox, pushes are discrete messages, and every node draws its own
targets. The local convergence test and the neighbour-announcement stop
rule are :class:`repro.core.convergence.ConvergenceProtocol`'s, the one
copy every synchronous engine drives. It exists for three reasons:

1. its send and receive phases are a line-by-line rendering of the
   paper's Algorithm 1/2 pseudocode, so reviewers can audit fidelity;
2. it cross-checks the vectorised engine (integration tests run both on
   the same topology and compare converged estimates);
3. it produces the per-iteration, per-node traces behind the paper's
   Table 1.

It is O(N) Python objects per step — use it for small networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.convergence import ConvergenceProtocol
from repro.core.differential import resolve_push_counts
from repro.core.errors import ConvergenceError
from repro.core.results import GossipOutcome
from repro.core.state import MassCheck, state_components
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator


@dataclass
class PushMessage:
    """One gossip push: a ``1/(k+1)`` share of the sender's components."""

    sender: int
    value: np.ndarray  # shape (d,)
    weight: np.ndarray  # shape (d,)
    extras: Dict[str, np.ndarray] = field(default_factory=dict)


class GossipNode:
    """One node's mailbox over its row of the round's gossip state.

    ``value``, ``weight`` and ``extras`` are the node's ``(d,)`` slices
    of the engine's ``(N, C)`` state matrix (views, not copies): a node
    splits its shares out of them and absorbs its mailbox into them in
    place, so the engine hands the whole network's state to
    :class:`repro.core.convergence.ConvergenceProtocol` without
    gathering node rows. The convergence test and the stop rule live
    there, not here.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: np.ndarray,
        k: int,
        value: np.ndarray,
        weight: np.ndarray,
        extras: Dict[str, np.ndarray],
    ):
        self.node_id = node_id
        self.neighbors = neighbors
        self.k = int(k)
        self.value = value
        self.weight = weight
        self.extras = extras
        self.inbox: List[PushMessage] = []

    def absorb_inbox(self) -> bool:
        """Sum all received pairs into local state (Algorithm 1's update).

        Returns whether any pair arrived from a node other than self —
        the ``|S| > 1`` guard on the convergence check.
        """
        heard_external = False
        for message in self.inbox:
            self.value += message.value
            self.weight += message.weight
            for name, arr in message.extras.items():
                self.extras[name] += arr
            if message.sender != self.node_id:
                heard_external = True
        self.inbox.clear()
        return heard_external

    def make_shares(self) -> Tuple[PushMessage, PushMessage]:
        """Split state into ``k + 1`` shares; return (self-share, outgoing-share).

        The outgoing share is identical for every chosen target, so one
        prototype message is built and copied per target by the engine.
        """
        divisor = self.k + 1
        share_value = self.value / divisor
        share_weight = self.weight / divisor
        share_extras = {name: arr / divisor for name, arr in self.extras.items()}
        self_share = PushMessage(self.node_id, share_value, share_weight, share_extras)
        out_share = PushMessage(
            self.node_id,
            share_value.copy(),
            share_weight.copy(),
            {name: arr.copy() for name, arr in share_extras.items()},
        )
        # After splitting, local state is emptied; the self-share comes back
        # through the mailbox exactly as the pseudocode's "send ... to itself".
        self.value[...] = 0.0
        self.weight[...] = 0.0
        for arr in self.extras.values():
            arr[...] = 0.0
        return self_share, out_share


class MessageLevelGossip:
    """Protocol-faithful gossip executor over :class:`GossipNode` mailboxes.

    Parameters
    ----------
    graph:
        Topology.
    push_counts:
        Per-node ``k_i``; defaults to the differential rule. Validated
        exactly as the sparse engine validates them
        (:func:`repro.core.differential.resolve_push_counts`).
    loss_model:
        Optional packet-loss model; a lost push is re-enqueued to the
        sender (the backend layer builds it from ``GossipConfig.network``).
    rng:
        Seed / generator for target selection.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.topology_example import example_network
    >>> engine = MessageLevelGossip(example_network(), rng=3)
    >>> out = engine.run(np.arange(10.0), np.ones(10))
    >>> bool(np.allclose(out.estimates, 4.5, atol=1e-3))  # mean of 0..9
    True
    """

    def __init__(
        self,
        graph: Graph,
        *,
        push_counts: Optional[np.ndarray] = None,
        loss_model: Optional[PacketLossModel] = None,
        rng: RngLike = None,
    ):
        self._graph = graph
        # Only the differential rule needs each node to learn its
        # neighbours' degrees: one announcement per edge end.
        self._degree_announcements = push_counts is None
        self._push_counts = resolve_push_counts(graph, push_counts)
        self._loss_model = loss_model
        self._rng = as_generator(rng)

    def run(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        xi: float = 1e-4,
        extras: Optional[Dict[str, np.ndarray]] = None,
        max_steps: int = 10_000,
        track_history: bool = False,
        patience: int = 3,
        warmup_steps: Optional[int] = None,
    ) -> GossipOutcome:
        """Execute one gossip round; same contract as the vectorised engine.

        See :meth:`repro.core.sparse_engine.SparseGossipEngine.run`.
        """
        graph = self._graph
        n = graph.num_nodes
        names, columns = state_components(values, weights, extras, n, 1)
        d = columns[0].shape[1]
        state = np.concatenate(columns, axis=1)
        slices = {name: slice(i * d, (i + 1) * d) for i, name in enumerate(names)}
        value_sl, weight_sl = slices["value"], slices["weight"]
        nodes = [
            GossipNode(
                i,
                graph.neighbors(i),
                self._push_counts[i],
                state[i, value_sl],
                state[i, weight_sl],
                {name: state[i, slices[name]] for name in names[2:]},
            )
            for i in range(n)
        ]

        mass = MassCheck(state, slices)
        protocol = ConvergenceProtocol(
            graph, xi, num_components=d, patience=patience, warmup_steps=warmup_steps
        )
        protocol.start(state[:, value_sl], state[:, weight_sl])
        history: Optional[List[np.ndarray]] = [] if track_history else None
        degrees = graph.degrees
        heard_external = np.empty(n, dtype=bool)
        push_messages = 0
        protocol_messages = int(degrees.sum()) if self._degree_announcements else 0
        active_node_steps = 0
        steps = 0

        while not protocol.all_stopped:
            if steps >= max_steps:
                raise ConvergenceError(steps, protocol.num_unconverged)

            # Send phase: every active node splits and pushes (isolated
            # nodes are stopped from the outset).
            stopped = protocol.stopped
            for node in nodes:
                if stopped[node.node_id]:
                    continue
                active_node_steps += 1
                self_share, out_share = node.make_shares()
                node.inbox.append(self_share)
                if node.k >= node.neighbors.size:
                    chosen = node.neighbors
                else:
                    chosen = self._rng.choice(node.neighbors, size=node.k, replace=False)
                for target in np.atleast_1d(chosen):
                    push_messages += 1
                    receiver = int(target)
                    if self._loss_model is not None:
                        redirected = self._loss_model.apply(
                            np.array([node.node_id]), np.array([receiver])
                        )
                        receiver = int(redirected[0])
                    message = PushMessage(
                        node.node_id,
                        out_share.value.copy(),
                        out_share.weight.copy(),
                        {name: arr.copy() for name, arr in out_share.extras.items()},
                    )
                    nodes[receiver].inbox.append(message)

            # Receive phase: absorb every mailbox, then run the local
            # test and the announcements on the whole state at once.
            for node in nodes:
                heard_external[node.node_id] = node.absorb_inbox()
            newly_converged = protocol.observe_state(
                state[:, value_sl], state[:, weight_sl], heard_external
            )
            protocol_messages += int(degrees[newly_converged].sum())
            if history is not None:
                history.append(protocol.ratios.copy())
            steps += 1
            mass.verify(state, steps)

        return GossipOutcome(
            values=state[:, value_sl],
            weights=state[:, weight_sl],
            extras={name: state[:, slices[name]] for name in names[2:]},
            steps=steps,
            push_messages=push_messages,
            protocol_messages=protocol_messages,
            active_node_steps=active_node_steps,
            converged=protocol.converged.copy(),
            ratio_history=history,
        )
