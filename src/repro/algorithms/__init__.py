"""First-class comparison-algorithm registry.

Mirrors :mod:`repro.core.backend`: each algorithm registers under one
name, and every consumer — attack engine, scenario layer, tournament
leaderboard — looks it up through one table.

>>> from repro.algorithms import available_algorithms
>>> "diff-gossip" in available_algorithms()
True
"""

from repro.algorithms.base import (
    AggregationAlgorithm,
    AlgorithmOutcome,
    PreparedAlgorithm,
)
from repro.algorithms.registry import (
    UnknownAlgorithmError,
    available_algorithms,
    get_algorithm,
    register_algorithm,
    resolve_algorithm_name,
)

# Importing the adapters registers the seven built-in algorithms.
from repro.algorithms import adapters as _adapters  # noqa: E402,F401

__all__ = [
    "AggregationAlgorithm",
    "AlgorithmOutcome",
    "PreparedAlgorithm",
    "UnknownAlgorithmError",
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
    "resolve_algorithm_name",
]
