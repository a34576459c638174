"""The comparison-algorithm registry, mirroring :mod:`repro.core.backend`.

Seven algorithms ship built-in (registered by
:mod:`repro.algorithms.adapters`): ``diff-gossip``, ``push-sum``,
``push-pull``, ``gossip-trust``, ``eigentrust``, ``flooding`` and
``absolute-trust``; each has exactly that one name. Third-party
comparators plug in with :func:`register_algorithm`; after registration
the algorithm is selectable everywhere an algorithm name is accepted —
the attack engine (:func:`repro.attacks.evaluate.attack_impact` with
``algorithm=``), the scenario axis
(:class:`repro.scenarios.spec.AlgorithmSpec`) and the tournament
leaderboard (:mod:`repro.experiments.tournament`).
"""

from __future__ import annotations

from repro.algorithms.base import AggregationAlgorithm
from repro.utils.registry import Registry


class UnknownAlgorithmError(KeyError, ValueError):
    """An unregistered algorithm name was requested.

    Inherits both ``KeyError`` (registry-lookup convention, as in
    :class:`repro.core.backend.UnknownBackendError`) and ``ValueError``
    (bad-argument convention), so either handling style works.
    """


_ALGORITHMS: Registry[AggregationAlgorithm] = Registry(
    "aggregation algorithm", UnknownAlgorithmError
)

register_algorithm = _ALGORITHMS.register
resolve_algorithm_name = _ALGORITHMS.resolve
get_algorithm = _ALGORITHMS.get
available_algorithms = _ALGORITHMS.names
