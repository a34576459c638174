"""Supplementary experiment — the ξ → achieved-accuracy mapping.

The paper's ξ bounds the *one-step* movement of a node's estimate, not
its distance to the fixpoint; how final accuracy tracks ξ depends on the
mixing rate (the same structure as Theorem 5.2's
``(log2 N)^2 + log2(1/ξ)`` bound). This experiment measures that mapping
directly — final max/mean relative estimation error vs ξ, with error
bars over seeds — and doubles as the evidence base for this
reproduction's stopping-rule notes (patience + warmup; see
docs/fidelity.md): with them, achieved error tracks ξ rather than
plateauing at percent level.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.analysis.sweeps import replicate
from repro.core.backend import GossipConfig
from repro.experiments.runner import ExperimentResult, Stopwatch
from repro.facade import aggregate
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.utils.rng import as_generator

XIS: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def run(
    *,
    num_nodes: int = 500,
    xis: Sequence[float] = XIS,
    repetitions: int = 5,
    seed: int = 37,
    m: int = 2,
    backend: str = "auto",
) -> ExperimentResult:
    """Measure achieved estimation error vs the stopping tolerance ξ."""
    root = as_generator(seed)
    graph = preferential_attachment_graph(num_nodes, m=m, rng=as_generator(int(root.integers(2**62))))
    values = as_generator(int(root.integers(2**62))).random(num_nodes)
    truth = float(values.mean())

    def make_measure(xi: float):
        def measure(run_seed: int):
            outcome = aggregate(
                graph, values, GossipConfig(xi=xi, rng=run_seed), backend=backend
            )
            errors = np.abs(outcome.estimates.reshape(-1) - truth) / abs(truth)
            return {
                "max_error": float(errors.max()),
                "mean_error": float(errors.mean()),
                "steps": float(outcome.steps),
            }

        return measure

    rows: List[list] = []
    with Stopwatch() as watch:
        for xi in xis:
            metrics = replicate(
                make_measure(xi), repetitions=repetitions, seed=int(root.integers(2**62))
            )
            rows.append(
                [
                    f"{xi:g}",
                    metrics["max_error"].format(6),
                    metrics["mean_error"].format(6),
                    metrics["steps"].format(1),
                ]
            )

    return ExperimentResult(
        experiment_id="xi_accuracy",
        title=f"ξ → achieved accuracy (N={num_nodes}, {repetitions} seeds per cell)",
        headers=["xi", "max rel error (±95%)", "mean rel error (±95%)", "steps (±95%)"],
        rows=rows,
        notes=[
            "achieved error must shrink monotonically with xi (it tracks, not equals, xi)",
            "steps grow ~log(1/xi) while error falls ~linearly in xi — the Theorem-5.2 trade",
            "with the paper-literal stopping rule (patience=1, no warmup) max error plateaus at percent level regardless of xi; see docs/fidelity.md",
        ],
        elapsed_seconds=watch.elapsed,
    )
