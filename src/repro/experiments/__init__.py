"""Experiment harness: regenerate every table and figure of the paper.

Each experiment id names one artefact, run by a ``run(...) ->
ExperimentResult`` callable (both attack sweeps live in
``attack_sweeps``):

==============  ===================================================
experiment id   artefact
==============  ===================================================
table1          Table 1 — per-iteration values on the Fig. 2 network
table2          Table 2 — messages/node/step vs N and xi
fig3            Figure 3 — gossip steps vs N per xi (vs normal push)
fig4            Figure 4 — gossip steps vs xi under packet loss
fig5            Figure 5 — RMS error vs %colluders, group collusion
fig6            Figure 6 — RMS error vs %colluders, individual
theorem52       Theorem 5.2 — potential decay vs analytic bound
eq17            Eq. 17 — measured vs predicted collusion damping
xi_accuracy     supplementary — achieved accuracy vs xi
attack_slander  beyond the paper — RMS error under targeted slandering
attack_sybil    beyond the paper — RMS error under sybil join floods
tournament      beyond the paper — algorithm × scenario × attack leaderboard
==============  ===================================================

Run from the command line::

    python -m repro.experiments list
    python -m repro.experiments table2
    python -m repro.experiments fig3 --full --seed 7

``--full`` (or ``REPRO_FULL_SCALE=1``) enables the paper's full 50 000
node sweeps; the default "quick" scale preserves every qualitative shape
at laptop-friendly sizes.
"""

from repro.experiments.registry import available_experiments, get_experiment
from repro.experiments.runner import ExperimentResult, full_scale_enabled

__all__ = ["available_experiments", "get_experiment", "ExperimentResult", "full_scale_enabled"]
