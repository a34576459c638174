"""The comparison-algorithm registry, mirroring :mod:`repro.core.backend`.

Seven algorithms ship built-in (registered by
:mod:`repro.algorithms.adapters`): ``diff-gossip``, ``push-sum``,
``push-pull``, ``gossip-trust``, ``eigentrust``, ``flooding`` and
``absolute-trust``. Third-party comparators plug in with
:func:`register_algorithm`; after registration the algorithm is
selectable everywhere an algorithm name is accepted — the attack engine
(:func:`repro.attacks.evaluate.attack_impact` with ``algorithm=``), the
scenario axis (:class:`repro.scenarios.spec.AlgorithmSpec`) and the
tournament leaderboard (:mod:`repro.experiments.tournament`).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.algorithms.base import AggregationAlgorithm


class UnknownAlgorithmError(KeyError, ValueError):
    """An unregistered algorithm name was requested.

    Inherits both ``KeyError`` (registry-lookup convention, as in
    :class:`repro.core.backend.UnknownBackendError`) and ``ValueError``
    (the convention of the pre-registry baseline entry points), so
    either handling style works.
    """


_REGISTRY: Dict[str, AggregationAlgorithm] = {}
_ALIASES: Dict[str, str] = {}


def register_algorithm(
    name: str,
    algorithm: AggregationAlgorithm,
    *,
    aliases: Tuple[str, ...] = (),
    overwrite: bool = False,
) -> None:
    """Register ``algorithm`` under ``name`` (plus optional aliases).

    Examples
    --------
    >>> register_algorithm("demo", get_algorithm("eigentrust"), overwrite=True)
    >>> get_algorithm("demo") is get_algorithm("eigentrust")
    True
    >>> del _REGISTRY["demo"]  # leave the process-wide registry as it was
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"algorithm name must be a non-empty string, got {name!r}")
    if not overwrite:
        # Validate every name before mutating anything, so a conflict
        # never leaves a half-registered algorithm behind.
        if name in _REGISTRY or name in _ALIASES:
            raise ValueError(f"algorithm {name!r} is already registered (pass overwrite=True)")
        for alias in aliases:
            if alias in _REGISTRY or alias in _ALIASES:
                raise ValueError(f"algorithm alias {alias!r} is already registered")
    _REGISTRY[name] = algorithm
    for alias in aliases:
        _ALIASES[alias] = name


def resolve_algorithm_name(name: str) -> str:
    """Canonical registry name for ``name`` (resolving aliases)."""
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    catalogue = ", ".join(sorted(_REGISTRY) + sorted(_ALIASES))
    raise UnknownAlgorithmError(
        f"unknown aggregation algorithm {name!r}; available: {catalogue}"
    )


def get_algorithm(name: str) -> AggregationAlgorithm:
    """Look up a registered algorithm by name or alias.

    Examples
    --------
    >>> get_algorithm("dgt") is get_algorithm("diff-gossip")  # aliases resolve
    True
    """
    return _REGISTRY[resolve_algorithm_name(name)]


def available_algorithms() -> Tuple[str, ...]:
    """Canonical names of all registered algorithms, sorted.

    Examples
    --------
    >>> {"diff-gossip", "push-sum", "flooding"} <= set(available_algorithms())
    True
    """
    return tuple(sorted(_REGISTRY))
