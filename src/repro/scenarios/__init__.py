"""Composable scenario layer: topology × workload × network × attack × ….

Scenarios are data (:class:`~repro.scenarios.spec.Scenario`), executed
through the :func:`repro.aggregate` facade so every registered gossip
backend can carry every workload; dynamic scenarios drive the epoch
runtime of :mod:`repro.runtime` and ``service-soak`` drives the serving
layer of :mod:`repro.service`. The seeded catalogue lives in
:mod:`repro.scenarios.library` (see
:func:`~repro.scenarios.spec.available_scenarios` or
``python -m repro.scenarios list``); register more with
:func:`~repro.scenarios.spec.register_scenario`.

Run from the command line::

    python -m repro.scenarios list
    python -m repro.scenarios run static-powerlaw --small
    python -m repro.scenarios run all --small --seed 7
"""

from repro.scenarios.spec import (
    AlgorithmSpec,
    AttackSpec,
    DynamicSpec,
    NetworkSpec,
    Scenario,
    ScenarioResult,
    ServiceSpec,
    TopologySpec,
    WorkloadSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.scenarios import library  # noqa: F401  (registers the seeded catalogue)

__all__ = [
    "AlgorithmSpec",
    "AttackSpec",
    "DynamicSpec",
    "NetworkSpec",
    "Scenario",
    "ScenarioResult",
    "ServiceSpec",
    "TopologySpec",
    "WorkloadSpec",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "run_scenario",
]
