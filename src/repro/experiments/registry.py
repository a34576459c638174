"""Registry mapping experiment ids to their ``run`` callables."""

from __future__ import annotations

from typing import Callable

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
from repro.utils.registry import Registry

ExperimentRunner = Callable[..., ExperimentResult]

#: Experiment id -> runner. Ids name the paper's tables and figures,
#: plus supplementary checks and the attack-robustness sweeps
#: (attack_*) beyond the paper.
_EXPERIMENTS: Registry[ExperimentRunner] = Registry("experiment", KeyError)
for _id, _run in (
    ("table1", table1.run),
    ("table2", table2.run),
    ("fig3", fig3.run),
    ("fig4", fig4.run),
    ("fig5", fig5.run),
    ("fig6", fig6.run),
    ("theorem52", theorem52.run),
    ("eq17", eq17.run),
    ("xi_accuracy", xi_accuracy.run),
    ("attack_slander", attack_sweeps.run_slander),
    ("attack_sybil", attack_sweeps.run_sybil),
    ("tournament", tournament.run),
):
    _EXPERIMENTS.register(_id, _run)

get_experiment = _EXPERIMENTS.get
available_experiments = _EXPERIMENTS.names
