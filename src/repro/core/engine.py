"""Message-level differential-gossip engine.

Where :mod:`repro.core.sparse_engine` vectorises the update rule for
scale, this engine models the *protocol*: every node is an object with a
mailbox, pushes are discrete messages, and every node draws its own
targets. Everything around the push — the step budget, the message
accounting, the mass check, and the local convergence test and
neighbour-announcement stop rule of
:class:`repro.core.convergence.ConvergenceProtocol` — is the round loop
of :class:`repro.core.sparse_engine.SynchronousEngine`, the one loop
every synchronous engine runs. The engine exists for three reasons:

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
from typing import Dict, List, Tuple

import numpy as np

from repro.core.sparse_engine import SynchronousEngine


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


class MessageLevelGossip(SynchronousEngine):
    """Protocol-faithful gossip executor over :class:`GossipNode` mailboxes.

    Parameters are :class:`~repro.core.sparse_engine.SynchronousEngine`'s,
    whose round loop it runs: push counts default to the differential
    rule and are validated exactly as the sparse engine's are, and a
    lost push is re-enqueued to its sender. Only the push step is this
    engine's own — the mailbox send and receive phases below — so it
    runs every ``run`` option the sparse engine runs, ``run_to_max`` and
    ``num_channels`` included.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.topology_example import example_network
    >>> engine = MessageLevelGossip(example_network(), rng=3)
    >>> out = engine.run(np.arange(10.0), np.ones(10))
    >>> bool(np.allclose(out.estimates, 4.5, atol=1e-3))  # mean of 0..9
    True
    """

    def _round_step(self, state, slices, num_channels):
        graph = self._graph
        value_sl, weight_sl = slices["value"], slices["weight"]
        extra_names = list(slices)[2:]
        nodes = [
            GossipNode(
                i,
                graph.neighbors(i),
                self._push_counts[i],
                state[i, value_sl],
                state[i, weight_sl],
                {name: state[i, slices[name]] for name in extra_names},
            )
            for i in range(graph.num_nodes)
        ]

        def step(state, active, *, all_active, rng, loss_model, heard_out):
            # Send phase: every active node splits and pushes (isolated
            # nodes are never active).
            pushes = 0
            for node in nodes:
                if not active[node.node_id]:
                    continue
                self_share, out_share = node.make_shares()
                node.inbox.append(self_share)
                if node.k >= node.neighbors.size:
                    chosen = node.neighbors
                else:
                    chosen = rng.choice(node.neighbors, size=node.k, replace=False)
                for target in np.atleast_1d(chosen):
                    pushes += 1
                    receiver = int(target)
                    if loss_model is not None:
                        redirected = loss_model.apply(
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

            # Receive phase: absorb every mailbox; the round loop then
            # runs the local test and the announcements on the whole
            # state at once.
            for node in nodes:
                heard_out[node.node_id] = node.absorb_inbox()
            return state, pushes

        return step
