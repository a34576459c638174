"""Adapters wrapping every comparator as a registered algorithm.

Each adapter binds one aggregation scheme to the shared
:class:`~repro.algorithms.base.AggregationAlgorithm` protocol. Two
conventions hold across all of them:

- **Truth** is the algorithm's *own* exact aggregate (see
  :mod:`repro.algorithms.base`): observer means for differential
  gossip and flooding, all-nodes means for push-sum/push-pull, and the
  respective fixpoint for GossipTrust / EigenTrust / Absolute Trust
  (solved from the deterministic default start, so the seeded run's
  ``rms_error`` measures pure seed perturbation).
- **Message counting** is documented per adapter ("counting rule"
  paragraph in each docstring) — the unification of
  ``GossipOutcome.total_messages`` and ``FloodResult`` accounting the
  leaderboard relies on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmOutcome, PreparedAlgorithm, resolve_targets
from repro.algorithms.registry import register_algorithm
from repro.baselines.absolute_trust import absolute_trust_fixpoint
from repro.baselines.eigentrust import eigentrust_fixpoint
from repro.baselines.flooding import flood_spread
from repro.baselines.gossip_trust import gossip_trust_fixpoint
from repro.baselines.push_pull import push_pull_average
from repro.core.backend import BackendCapabilityError, GossipConfig, run_backend
from repro.core.results import GossipOutcome
from repro.core.vector_global import initial_state_vector_global
from repro.facade import aggregate
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike


def _base_config(config: Optional[GossipConfig]) -> GossipConfig:
    return config if config is not None else GossipConfig(xi=1e-4)


def _with_rng(config: GossipConfig, rng: RngLike) -> GossipConfig:
    """The exact config a run executes: ``rng`` override or as-prepared."""
    return replace(config, rng=rng) if rng is not None else config


def _resolve_rng(config: Optional[GossipConfig], rng: RngLike) -> RngLike:
    """The seed a non-backend algorithm runs with (override > config)."""
    if rng is not None:
        return rng
    return config.rng if config is not None else None


def _observer_truth(trust: TrustMatrix, targets: Sequence[int]) -> np.ndarray:
    return np.array([trust.column_mean_over_observers(t) for t in targets])


def _all_nodes_truth(trust: TrustMatrix, targets: Sequence[int]) -> np.ndarray:
    return np.array([trust.column_mean_over_all(t) for t in targets])


def _gossip_outcome_to_algorithm(
    name: str,
    outcome: GossipOutcome,
    truth: np.ndarray,
) -> AlgorithmOutcome:
    node_estimates = outcome.estimates
    return AlgorithmOutcome(
        algorithm=name,
        estimates=node_estimates.mean(axis=0),
        truth=truth,
        num_nodes=outcome.num_nodes,
        rounds=outcome.steps,
        messages=outcome.total_messages,
        converged=bool(np.all(outcome.converged)),
        node_estimates=node_estimates,
        raw=outcome,
    )


class DiffGossipAlgorithm:
    """Differential gossip (the paper's contribution) through the facade.

    ``prepare(...).run(rng)`` calls exactly
    ``repro.aggregate(graph, trust, config, backend=..., variant="vector-global",
    targets=...)`` — nothing is re-derived, so the run inherits every
    backend / kernel / dtype / channel / network option of
    :class:`~repro.core.backend.GossipConfig` and is **byte-identical**
    to a direct facade call at the same seed (pinned by
    ``tests/test_algorithms.py``).

    Truth: per-target mean opinion over the target's *observers* (the
    vector-global variant's exact aggregate). Counting rule: ``messages
    = GossipOutcome.total_messages`` — gossip pushes plus protocol
    traffic (round-start degree announcements and per-node convergence
    announcements).
    """

    name = "diff-gossip"
    uses_backend = True

    def prepare(
        self,
        graph: Graph,
        trust: TrustMatrix,
        config: Optional[GossipConfig] = None,
        *,
        targets: Optional[Sequence[int]] = None,
        backend: str = "auto",
    ) -> PreparedAlgorithm:
        target_list = resolve_targets(trust, targets)
        base = _base_config(config)
        truth = _observer_truth(trust, target_list)

        def runner(rng: RngLike) -> AlgorithmOutcome:
            outcome = aggregate(
                graph,
                trust,
                _with_rng(base, rng),
                backend=backend,
                variant="vector-global",
                targets=target_list,
            )
            return _gossip_outcome_to_algorithm(self.name, outcome, truth)

        return PreparedAlgorithm(self.name, runner)


class PushSumAlgorithm:
    """Normal push gossip (push-sum, Kempe et al.) on the opinion columns.

    Every node starts with its own opinion column ``(T,)`` (0.0 for
    targets it never observed) and unit weight, then runs ``k = 1``
    push gossip through the unified backend layer — so the baseline
    sweeps backends exactly like differential gossip.

    Truth: per-target mean opinion over *all* ``N`` peers (eq. 1's
    ``R_global``; non-observers contribute 0 — that is what unit
    weights at every node average). Counting rule: ``messages =
    GossipOutcome.total_messages`` (pushes + protocol traffic), same
    rule as ``diff-gossip``.
    """

    name = "push-sum"
    uses_backend = True

    def prepare(
        self,
        graph: Graph,
        trust: TrustMatrix,
        config: Optional[GossipConfig] = None,
        *,
        targets: Optional[Sequence[int]] = None,
        backend: str = "auto",
    ) -> PreparedAlgorithm:
        target_list = resolve_targets(trust, targets)
        base = replace(_base_config(config), k=1)
        columns, weights = initial_state_vector_global(trust, target_list, "all")
        truth = _all_nodes_truth(trust, target_list)

        def runner(rng: RngLike) -> AlgorithmOutcome:
            outcome = run_backend(
                graph,
                columns,
                weights,
                config=_with_rng(base, rng),
                backend=backend,
            )
            return _gossip_outcome_to_algorithm(self.name, outcome, truth)

        return PreparedAlgorithm(self.name, runner)


class PushPullAlgorithm:
    """Randomised pairwise averaging (push-pull) on the opinion columns.

    Runs :func:`repro.baselines.push_pull.push_pull_average` over the
    ``(N, T)`` opinion columns — one contact exchanges the whole state
    vector, the paper's stated reason pull is expensive.

    Truth: per-target mean opinion over all ``N`` peers (pairwise
    averaging conserves total mass over unit weights). Counting rule:
    2 messages per contact (request + response) regardless of ``T``,
    plus convergence-protocol announcements —
    ``GossipOutcome.total_messages`` of the baseline run.

    The baseline reads ``xi``, ``rng``, ``max_steps`` and ``patience``
    from the config. It models no lossy network, so ``prepare`` raises
    :class:`~repro.core.backend.BackendCapabilityError` for a config
    with ``network`` set rather than run lossless under a loss setting.
    """

    name = "push-pull"
    uses_backend = False

    def prepare(
        self,
        graph: Graph,
        trust: TrustMatrix,
        config: Optional[GossipConfig] = None,
        *,
        targets: Optional[Sequence[int]] = None,
        backend: str = "auto",
    ) -> PreparedAlgorithm:
        target_list = resolve_targets(trust, targets)
        base = _base_config(config)
        if base.network is not None:
            raise BackendCapabilityError(
                "push-pull has no network model: its contacts are lossless exchanges; "
                "use 'push-sum' or 'diff-gossip' for packet loss"
            )
        columns, _ = initial_state_vector_global(trust, target_list)
        truth = _all_nodes_truth(trust, target_list)

        def runner(rng: RngLike) -> AlgorithmOutcome:
            outcome = push_pull_average(
                graph,
                columns,
                xi=base.xi,
                rng=_resolve_rng(base, rng),
                max_steps=base.max_steps,
                patience=base.patience,
            )
            return _gossip_outcome_to_algorithm(self.name, outcome, truth)

        return PreparedAlgorithm(self.name, runner)


class FloodingAlgorithm:
    """Deterministic flooding: full dissemination of every target's reports.

    For each tracked target, its observers flood their reports through
    the overlay (:func:`repro.baselines.flooding.flood_spread`); every
    informed peer then computes the exact observer mean. The strawman
    is deterministic — ``rng`` is accepted for protocol uniformity and
    ignored.

    Truth: per-target observer mean — identical to the estimate, so
    ``rms_error`` is 0 by construction; flooding's columns of interest
    are messages and rounds. Counting rule: every informed node
    forwards each item once to all neighbours, so ``messages =
    Σ_targets FloodResult.total_messages`` (``O(E)`` per item — the
    overhead gossip avoids); targets nobody observed cost nothing and
    estimate the newcomer default 0.0.
    """

    name = "flooding"
    uses_backend = False

    def prepare(
        self,
        graph: Graph,
        trust: TrustMatrix,
        config: Optional[GossipConfig] = None,
        *,
        targets: Optional[Sequence[int]] = None,
        backend: str = "auto",
    ) -> PreparedAlgorithm:
        target_list = resolve_targets(trust, targets)

        def runner(rng: RngLike) -> AlgorithmOutcome:
            estimates = np.zeros(len(target_list), dtype=np.float64)
            messages = 0
            rounds = 0
            all_reached = True
            for index, target in enumerate(target_list):
                observers = trust.observers_of(target)
                if not observers:
                    continue  # newcomer default 0.0, nothing to flood
                flood = flood_spread(graph, sorted(observers))
                messages += flood.total_messages
                rounds = max(rounds, flood.steps)
                all_reached = all_reached and flood.reached == graph.num_nodes
                estimates[index] = trust.column_mean_over_observers(target)
            return AlgorithmOutcome(
                algorithm=self.name,
                estimates=estimates,
                truth=estimates.copy(),
                num_nodes=graph.num_nodes,
                rounds=rounds,
                messages=messages,
                converged=all_reached,
            )

        return PreparedAlgorithm(self.name, runner)


class FixpointAlgorithm:
    """An exact global-trust solver as a registered algorithm.

    Registered three times, once per solver:

    - ``gossip-trust``: GossipTrust's reputation-weighted global
      fixpoint (ref. [17],
      :func:`repro.baselines.gossip_trust.gossip_trust_fixpoint`);
    - ``eigentrust``: EigenTrust's damped principal eigenvector
      (Kamvar et al., :func:`repro.baselines.eigentrust.eigentrust_fixpoint`);
    - ``absolute-trust``: Absolute Trust's self-weighted fixpoint
      (arXiv:1601.01419,
      :func:`repro.baselines.absolute_trust.absolute_trust_fixpoint`),
      with the arXiv:1603.00589 convergence guard.

    Each solver runs at its own defaults from a seeded start; every
    peer ends with the *same* global vector.

    Truth: the same fixpoint solved from the solver's deterministic
    default start, so ``rms_error`` measures seed perturbation only
    (each fixpoint is unique). Counting rule: each iteration exchanges
    every explicit trust report once (GossipTrust's per-cycle gossip
    sums, EigenTrust's power step, Absolute Trust's evaluator-weighted
    re-exchange), so ``messages = iterations × num_observations``.
    """

    uses_backend = False

    def __init__(self, name: str, solve: Callable):
        self.name = name
        self.solve = solve

    def prepare(
        self,
        graph: Graph,
        trust: TrustMatrix,
        config: Optional[GossipConfig] = None,
        *,
        targets: Optional[Sequence[int]] = None,
        backend: str = "auto",
    ) -> PreparedAlgorithm:
        target_list = resolve_targets(trust, targets)
        reference = self.solve(trust)
        messages_per_iteration = trust.num_observations

        def runner(rng: RngLike) -> AlgorithmOutcome:
            result = self.solve(trust, rng=_resolve_rng(config, rng))
            return AlgorithmOutcome(
                algorithm=self.name,
                estimates=result.values[target_list],
                truth=reference.values[target_list],
                num_nodes=trust.num_nodes,
                rounds=result.iterations,
                messages=result.iterations * messages_per_iteration,
                converged=result.converged,
                raw=result,
            )

        return PreparedAlgorithm(self.name, runner)


register_algorithm("diff-gossip", DiffGossipAlgorithm())
register_algorithm("push-sum", PushSumAlgorithm())
register_algorithm("push-pull", PushPullAlgorithm())
register_algorithm("gossip-trust", FixpointAlgorithm("gossip-trust", gossip_trust_fixpoint))
register_algorithm("eigentrust", FixpointAlgorithm("eigentrust", eigentrust_fixpoint))
register_algorithm("flooding", FloodingAlgorithm())
register_algorithm(
    "absolute-trust", FixpointAlgorithm("absolute-trust", absolute_trust_fixpoint)
)
