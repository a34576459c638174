"""Registry mapping experiment ids to their ``run`` callables."""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments import (
    attack_sweeps,
    eq17,
    fig3,
    fig4,
    fig5,
    fig6,
    table1,
    table2,
    theorem52,
    tournament,
    xi_accuracy,
)
from repro.experiments.runner import ExperimentResult

ExperimentRunner = Callable[..., ExperimentResult]

#: Experiment id -> runner. Ids name the paper's tables and figures,
#: plus supplementary checks and the attack-robustness sweeps
#: (attack_*) beyond the paper.
EXPERIMENTS: Dict[str, ExperimentRunner] = {
    "table1": table1.run,
    "table2": table2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "theorem52": theorem52.run,
    "eq17": eq17.run,
    "xi_accuracy": xi_accuracy.run,
    "attack_slander": attack_sweeps.run_slander,
    "attack_sybil": attack_sweeps.run_sybil,
    "tournament": tournament.run,
}


def get_experiment(experiment_id: str) -> ExperimentRunner:
    """Look up an experiment runner; raise ``KeyError`` with the catalogue."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        available = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {available}"
        ) from None
