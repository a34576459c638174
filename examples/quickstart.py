#!/usr/bin/env python
"""Quickstart: aggregate reputations over a power-law P2P network.

Builds the paper's world in four lines — a preferential-attachment
overlay, local direct-interaction trust, and one Differential Gossip
Trust round (variant 4: every node ends up with its own calibrated
reputation estimate for every tracked peer) — then shows that the
decentralised gossip agrees with the exact closed form.

Run:
    python examples/quickstart.py
"""

import numpy as np

from repro import (
    GossipConfig,
    WeightParams,
    aggregate_vector_gclr,
    preferential_attachment_graph,
    random_trust_matrix,
)
from repro.core.vector_gclr import true_vector_gclr


def main() -> None:
    # 1. An unstructured P2P overlay: 500 peers, PA model with m=2
    #    (Gnutella-like power-law degrees).
    graph = preferential_attachment_graph(500, m=2, rng=1)
    print(f"overlay: {graph.num_nodes} peers, {graph.num_edges} links, "
          f"max degree {int(graph.degrees.max())}")

    # 2. Local trust: each linked pair has transacted and holds mutual
    #    direct-interaction estimates t_ij in [0, 1].
    trust = random_trust_matrix(graph, rng=2)
    print(f"trust: {trust.num_observations} direct observations")

    # 3. One Differential Gossip Trust round for five target peers.
    targets = [3, 42, 99, 250, 400]
    params = WeightParams(a=4.0, b=1.0)
    result = aggregate_vector_gclr(
        graph,
        trust,
        targets=targets,
        config=GossipConfig(xi=1e-6, params=params, rng=3),
    )
    outcome = result.outcome
    print(f"gossip: converged in {outcome.steps} steps, "
          f"{outcome.total_messages} messages "
          f"({outcome.messages_per_node_per_step:.3f} per active node-step)")

    # 4. Every node now holds its own calibrated estimate; check them
    #    against the exact eq.-6 fixpoint.
    exact = true_vector_gclr(graph, trust, targets, params)
    worst = float(np.abs(result.reputations - exact).max())
    print(f"accuracy: max |gossip - exact| = {worst:.2e}")

    print("\nreputation of each target as seen by peers 0 and 1:")
    for column, target in enumerate(targets):
        r0 = result.reputations[0, column]
        r1 = result.reputations[1, column]
        print(f"  peer {target:3d}: node0 estimates {r0:.4f}, node1 estimates {r1:.4f}")
    print("\n(estimates differ per estimating node — that is the point of")
    print(" globally *calibrated local* reputation: your trusted partners'")
    print(" direct experience shifts your view.)")


if __name__ == "__main__":
    main()
