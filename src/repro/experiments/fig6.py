"""Experiment E6 — paper Figure 6.

*"Average RMS error with individual peers for different percentage of
colluding peers."* The individual-collusion case is group size
``G = 1``: lone malicious peers cannot praise anyone (a group of one has
no group-mates to inflate) so their entire lever is badmouthing — they
report 0 about every other node. The paper finds the impact even
smaller than group collusion.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.collusion_common import sweep_collusion
from repro.experiments.runner import ExperimentResult, Stopwatch, full_scale_enabled

FRACTIONS: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
QUICK_N = 250
FULL_N = 1000


def run(
    *,
    num_nodes: Optional[int] = None,
    fractions: Sequence[float] = FRACTIONS,
    use_gossip: bool = True,
    seed: int = 19,
    backend: str = "auto",
) -> ExperimentResult:
    """Regenerate Figure 6 (rows: colluding fraction; G fixed at 1).

    ``backend`` names any registered gossip engine (message / sparse /
    sharded / async); ``"auto"`` follows the size policy — the
    measurement itself runs through the family-agnostic
    :func:`repro.attacks.evaluate.attack_impact`.
    """
    if num_nodes is None:
        num_nodes = FULL_N if full_scale_enabled() else QUICK_N
    with Stopwatch() as watch:
        measurements = sweep_collusion(
            num_nodes,
            fractions,
            group_sizes=(1,),
            use_gossip=use_gossip,
            seed=seed,
            backend=backend,
        )

    rows: List[list] = [
        [f"{m.fraction:.0%}", m.num_colluders, m.rms_gclr, m.rms_unweighted]
        for m in measurements
    ]

    return ExperimentResult(
        experiment_id="fig6",
        title=f"Figure 6 — average RMS error under individual collusion (N={num_nodes})",
        headers=["% colluders", "C", "DGT", "unweighted"],
        rows=rows,
        notes=[
            "G=1: badmouthing only — no praise channel, so errors sit below the group-collusion curves of Figure 5",
            "DGT stays near-flat across colluding fractions (paper's headline robustness claim)",
        ],
        elapsed_seconds=watch.elapsed,
    )
