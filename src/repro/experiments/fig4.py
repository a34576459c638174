"""Experiment E4 — paper Figure 4.

*"Gossip step counts for N=10000 with different error bounds xi for
different packet loss probability."* Peer-to-peer overlays run above
TCP, so a push is only lost when its receiver has churned away; the
sender then re-pushes the pair to itself, conserving mass (Section 5.3).
The paper observes a *small* increase in steps as loss probability
rises — lost pushes slow mixing but never destroy mass, so convergence
degrades gracefully.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.backend import GossipConfig
from repro.experiments.runner import ExperimentResult, Stopwatch, full_scale_enabled
from repro.facade import aggregate
from repro.network.conditions import LinkModel
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.utils.rng import as_generator

LOSS_PROBABILITIES: Sequence[float] = (0.0, 0.1, 0.2, 0.3)
XIS: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5)
QUICK_N = 2000
FULL_N = 10_000


def run(
    *,
    num_nodes: Optional[int] = None,
    loss_probabilities: Sequence[float] = LOSS_PROBABILITIES,
    xis: Sequence[float] = XIS,
    seed: int = 13,
    m: int = 2,
    backend: str = "auto",
) -> ExperimentResult:
    """Regenerate Figure 4 (one row per loss probability, one column per xi)."""
    if num_nodes is None:
        num_nodes = FULL_N if full_scale_enabled() else QUICK_N
    root = as_generator(seed)
    graph_rng = as_generator(int(root.integers(2**62)))
    graph = preferential_attachment_graph(num_nodes, m=m, rng=graph_rng)
    values = graph_rng.random(num_nodes)

    rows: List[list] = []
    with Stopwatch() as watch:
        for loss in loss_probabilities:
            row: list = [f"p={loss:g}"]
            for xi in xis:
                # A seed-like rng keeps the target draws of a lossy cell
                # identical to a loss-free run at the same seed: the loss
                # draws come from the config's separate link stream.
                outcome = aggregate(
                    graph,
                    values,
                    GossipConfig(
                        xi=xi,
                        network=LinkModel(loss),
                        rng=int(root.integers(2**62)),
                    ),
                    backend=backend,
                )
                row.append(outcome.steps)
            rows.append(row)

    return ExperimentResult(
        experiment_id="fig4",
        title=f"Figure 4 — gossip steps under packet loss (N={num_nodes})",
        headers=["loss"] + [f"xi={xi:g}" for xi in xis],
        rows=rows,
        notes=[
            "lost pushes are re-pushed to the sender (mass conserved), so step counts rise only mildly with loss probability",
            f"paper uses N=10000; quick scale runs N={QUICK_N} (REPRO_FULL_SCALE=1 for full)",
        ],
        elapsed_seconds=watch.elapsed,
    )
