"""Epoch-driven dynamic-network reputation runtime.

The paper's power-law overlay exists *because* peers continually join by
preferential attachment and leave again; the static experiments freeze
that graph and model churn only as packet loss. This module runs
reputation aggregation on a network that actually evolves: a
:class:`ChurnTrace` drives epochs of session arrivals and departures on
a :class:`repro.network.mutable.MutableOverlay`, and each epoch one
gossip round is executed on any registered backend via
:func:`repro.core.backend.run_backend`.

Warm-start epochs
-----------------
A cold epoch gossips the published opinions from scratch:
``(value, weight) = (x_i, 1)`` at every peer. A *warm* epoch instead
resumes from the previous epoch's converged gossip pairs and applies
only the deltas, so the state starts within ``O(churn)`` of the new
fixpoint and converges in a handful of steps:

- a **survivor** keeps its converged ``(v_i, w_i)``; if its opinion
  moved by more than the Δ re-push threshold (``config.delta``,
  Algorithm 2's rule) the difference is added to its gossip value —
  the re-announcement that seeds the next round;
- a **leaver** hands its pair to a random neighbour (the paper's
  mass-conservation rule, Section 5.3) with its own published opinion
  retired from the pair, so departed opinions stop counting;
- a **joiner** enters with ``(x_j, 1)`` where ``x_j`` comes from the
  :class:`repro.trust.newcomer_policy.DynamicNewcomerPolicy` when one
  is installed (the policy also observes every join, so heavy identity
  churn automatically shrinks the benefit of the doubt).

With Δ = 0 the warm fixpoint is exactly the mean opinion of the current
peer set — the invariant ``sum(values)/sum(weights) = mean(x)`` is
maintained by construction through arbitrary churn.

Stop rules
----------
Epochs can stop two ways (``stop_rule``):

- ``"accuracy"`` (default): run the engine in fixed blocks of
  ``run_to_max`` steps and stop once the mean per-node distance to the
  state's own fixpoint ``sum(values)/sum(weights)`` is below
  ``epoch_tol``. This accuracy-matched rule makes cold and warm epochs
  directly comparable: both stop at the *same* network-wide accuracy,
  so the round counts isolate what warm-starting buys. Runs on every
  step-synchronous backend (sparse, message); the event-driven async
  backend has no fixed step budget and is refused.
- ``"protocol"``: the paper's distributed per-node stop protocol
  (``xi`` movement bound, warmup, patience) as run by every backend.
  Note that under this rule a round's length is governed by
  ``log(deviation / xi)`` at the *slowest* node, so warm starts save
  little: a single full-amplitude joiner opinion re-pays most of the
  mixing a cold start pays. Use it when protocol fidelity matters more
  than epoch latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.backend import (
    BackendCapabilityError,
    GossipConfig,
    choose_backend_name,
    resolve_backend_name,
    run_backend,
)
from repro.network.conditions import EpochPartition
from repro.network.graph import Graph
from repro.network.mutable import MutableOverlay
from repro.runtime.trace import ChurnTrace
from repro.trust.newcomer_policy import DynamicNewcomerPolicy
from repro.utils.rng import stateless_child_sequence

#: Key offset for per-epoch replay streams (keeps them clear of sweep keys).
EPOCH_STREAM_KEY = 0xD1AA0000

#: Per-epoch child key of the adversary stream (clear of the gossip
#: block keys 1, 2, 3, ... used by the accuracy stop rule).
ATTACK_EPOCH_KEY = 0xA77AC

#: Per-epoch child key of the partition-repair stream (clear of the
#: gossip block keys and the attack key). Runs without a partition
#: never derive it, so installing one cannot perturb existing replays.
PARTITION_EPOCH_KEY = 0x9A1717

#: Epoch stop rules (see module docstring).
STOP_RULES = ("accuracy", "protocol")

#: Accuracy-rule granularity: gossip steps per ``run_to_max`` block
#: between convergence checks.
BLOCK_STEPS = 4

#: Protocol-rule warmup of a warm epoch. A warm epoch starts next to its
#: fixpoint, so the engines' default ``ceil(log2 N) + 1`` warmup would
#: dominate the round.
WARM_WARMUP_STEPS = 2

#: Amplitude of a drifting opinion's move: the new opinion is the old
#: one plus ``U(-DRIFT_SCALE, DRIFT_SCALE)``, clipped to ``[0, 1]``
#: (local trust moves incrementally as transactions accumulate).
DRIFT_SCALE = 0.1


def _estimate_errors(values: np.ndarray, weights: np.ndarray, truth: float) -> tuple:
    """``(mean, max)`` absolute estimate error against ``truth``.

    The mean is mass-weighted (``sum(|v - truth*w|) / sum(w)``) so a
    node whose gossip weight drained to ~0 — whose raw ratio is
    numerically meaningless — contributes in proportion to the weight
    it actually holds. The max is the raw ratio error over nodes
    carrying at least a millionth of the average weight (below that a
    ratio is noise, not an estimate).
    """
    total = float(weights.sum())
    mean_error = float(np.abs(values - truth * weights).sum() / total)
    carrying = weights > 1e-6 * total / max(1, weights.shape[0])
    if not np.any(carrying):
        return mean_error, float("nan")
    max_error = float(np.abs(values[carrying] / weights[carrying] - truth).max())
    return mean_error, max_error


@dataclass
class EpochRecord:
    """Everything one epoch produced."""

    epoch: int
    num_peers: int
    num_edges: int
    arrivals: int
    departures: int
    warm: bool
    steps: int
    push_messages: int
    converged_fraction: float
    true_mean: float
    max_abs_error: float
    mean_abs_error: float
    elapsed_seconds: float
    attack_events: int = 0

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly record."""
        return {
            "epoch": self.epoch,
            "num_peers": self.num_peers,
            "num_edges": self.num_edges,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "warm": self.warm,
            "steps": self.steps,
            "push_messages": self.push_messages,
            "converged_fraction": self.converged_fraction,
            "true_mean": self.true_mean,
            "max_abs_error": self.max_abs_error,
            "mean_abs_error": self.mean_abs_error,
            "elapsed_seconds": self.elapsed_seconds,
            "attack_events": self.attack_events,
        }


@dataclass
class DynamicRunResult:
    """Summary of a dynamic run: one :class:`EpochRecord` per epoch.

    Examples
    --------
    >>> from repro import ChurnTrace, GossipConfig, MutableOverlay, run_dynamic
    >>> overlay = MutableOverlay.grow_preferential(60, m=2, rng=0)
    >>> trace = ChurnTrace.steady(2, population=60, join_rate=0.02,
    ...                           leave_rate=0.02, seed=1)
    >>> result = run_dynamic(overlay, trace, GossipConfig(rng=2), backend="sparse")
    >>> len(result.records)
    2
    >>> result.total_steps >= result.records[0].steps
    True
    """

    backend: str
    warm_start: bool
    records: List[EpochRecord] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        """Gossip steps summed over all epochs."""
        return sum(r.steps for r in self.records)

    @property
    def total_push_messages(self) -> int:
        """Push messages summed over all epochs."""
        return sum(r.push_messages for r in self.records)

    @property
    def steady_state_steps(self) -> float:
        """Mean steps per epoch *after* the first (the cold bootstrap).

        This is the number warm-start is judged on: epoch 0 is always a
        cold round (there is no previous outcome to resume from).
        """
        tail = self.records[1:] or self.records
        return float(np.mean([r.steps for r in tail]))

    @property
    def final_record(self) -> EpochRecord:
        """The last epoch's record."""
        return self.records[-1]

    def to_dict(self) -> Dict:
        """JSON-friendly result."""
        return {
            "backend": self.backend,
            "warm_start": self.warm_start,
            "total_steps": self.total_steps,
            "total_push_messages": self.total_push_messages,
            "steady_state_steps": self.steady_state_steps,
            "epochs": [r.to_dict() for r in self.records],
        }

    def to_text(self) -> str:
        """Human-readable per-epoch table."""
        lines = [
            f"dynamic run: backend={self.backend}  warm_start={self.warm_start}",
            "  epoch  peers   edges  +join  -leave  steps  max|err|    mean|err|",
        ]
        for r in self.records:
            lines.append(
                f"  {r.epoch:5d}  {r.num_peers:5d}  {r.num_edges:6d}  "
                f"{r.arrivals:5d}  {r.departures:6d}  {r.steps:5d}  "
                f"{r.max_abs_error:.2e}  {r.mean_abs_error:.2e}"
            )
        lines.append(
            f"  steady-state steps/epoch: {self.steady_state_steps:.1f}  "
            f"(total {self.total_steps} over {len(self.records)} epochs)"
        )
        return "\n".join(lines)


class DynamicReputationRuntime:
    """Reputation aggregation over an overlay with real join/leave churn.

    Parameters
    ----------
    overlay:
        The evolving topology (mutated in place as the trace replays).
    config:
        Shared gossip knobs; ``config.delta`` is the Δ re-push
        threshold applied between epochs, ``config.rng`` is ignored
        (epoch streams derive from the trace seed so runs replay).
    backend:
        Registered backend name or ``"auto"`` (resolved once against
        the initial snapshot).
    warm_start:
        Resume each epoch from the previous converged state (see module
        docstring); ``False`` re-gossips from scratch every epoch.
    stop_rule:
        ``"accuracy"`` (default) or ``"protocol"`` — see module
        docstring.
    epoch_tol:
        Accuracy-rule stop threshold: mean per-node distance to the
        state's fixpoint, checked every :data:`BLOCK_STEPS` steps. Warm
        epochs under the protocol rule warm up for
        :data:`WARM_WARMUP_STEPS` steps.
    newcomer_policy:
        Optional :class:`DynamicNewcomerPolicy` granting joiners their
        initial opinion (and observing the join rate).
    opinion_drift:
        Fraction of surviving peers that re-draw their opinion each
        epoch (models fresh transactions changing local trust); each
        moves by at most :data:`DRIFT_SCALE`.
    attachment_m:
        Edges each joiner wires (preferential attachment).
    attack:
        Optional :class:`repro.attacks.models.AttackModel` acting on the
        live runtime: its :meth:`~repro.attacks.models.AttackModel.on_epoch`
        hook runs once per epoch (after churn and drift, before gossip)
        with a replayable per-epoch stream — whitewashers cycle
        identities through :meth:`whitewash_peer`, sybil floods join
        through :meth:`join_attacker`, oscillators flip opinions through
        :meth:`republish_opinion`. The event count lands in
        :attr:`EpochRecord.attack_events`.
    partition:
        Optional :class:`repro.network.conditions.EpochPartition`
        replayed against the overlay: every epoch in
        ``[start_epoch, heal_epoch)`` the cross-group edges
        (``group = pid % num_groups``) are cut — including any fresh
        ones churn or attacks wired — and each group is re-bridged
        internally so it keeps aggregating as its own island; at
        ``heal_epoch`` the surviving cut edges (both endpoints alive,
        edge not re-wired meanwhile) are restored. Churn repair during
        the window is group-scoped (see
        :meth:`MutableOverlay.bridge_components`), so overlay
        maintenance never heals the partition early. Cut/restore/bridge
        totals land on :attr:`partition_cut_edges`,
        :attr:`partition_restored_edges` and :attr:`partition_bridges`
        (runtime-level counters; epoch records are unchanged so replay
        goldens stay stable).
    """

    def __init__(
        self,
        overlay: MutableOverlay,
        *,
        config: Optional[GossipConfig] = None,
        backend: str = "auto",
        warm_start: bool = True,
        stop_rule: str = "accuracy",
        epoch_tol: float = 1e-3,
        newcomer_policy: Optional[DynamicNewcomerPolicy] = None,
        opinion_drift: float = 0.0,
        attachment_m: int = 2,
        attack=None,
        partition: Optional[EpochPartition] = None,
    ):
        if stop_rule not in STOP_RULES:
            raise ValueError(f"stop_rule must be one of {STOP_RULES}, got {stop_rule!r}")
        if epoch_tol <= 0:
            raise ValueError(f"epoch_tol must be positive, got {epoch_tol}")
        if not 0.0 <= opinion_drift <= 1.0:
            raise ValueError(f"opinion_drift must be in [0, 1], got {opinion_drift}")
        if attachment_m < 1:
            raise ValueError(f"attachment_m must be >= 1, got {attachment_m}")
        self._overlay = overlay
        self._config = config if config is not None else GossipConfig()
        graph, _ = overlay.snapshot()
        # The accuracy rule chains fixed-budget blocks; "auto" routes
        # those to the sparse engine at every size, as it does any
        # run_to_max config.
        auto_config = (
            replace(self._config, run_to_max=True)
            if stop_rule == "accuracy"
            else self._config
        )
        self._backend = (
            choose_backend_name(graph, auto_config)
            if backend == "auto"
            else resolve_backend_name(backend)
        )
        # Only the event-driven backend has no gossip steps: no
        # fixed-budget blocks and no per-step warmup.
        self._stepwise = self._backend != "async"
        if stop_rule == "accuracy" and not self._stepwise:
            raise BackendCapabilityError(
                "stop_rule 'accuracy' runs fixed-budget blocks (run_to_max), which "
                "the event-driven 'async' backend lacks; use a step-synchronous "
                "backend or stop_rule='protocol'"
            )
        self._stop_rule = stop_rule
        self._epoch_tol = float(epoch_tol)
        self._warm_start = bool(warm_start)
        self._policy = newcomer_policy
        self._drift = float(opinion_drift)
        self._m = int(attachment_m)
        self._attack = attack
        if partition is not None and not isinstance(partition, EpochPartition):
            raise ValueError(
                f"partition must be an EpochPartition, got {type(partition).__name__}"
            )
        self._partition = partition
        # Cross-group edges removed by the active partition, pending
        # restoration at heal_epoch.
        self._cut_edges: "set" = set()
        #: Cross-group edges cut over the run (re-cuts of churn-wired
        #: edges included).
        self.partition_cut_edges = 0
        #: Cut edges restored at heal time (both endpoints still alive,
        #: edge not re-wired meanwhile).
        self.partition_restored_edges = 0
        #: Intra-group bridge edges added to keep each island connected.
        self.partition_bridges = 0
        # Departures caused by the attack hook this epoch (bridge gate).
        self._attack_removed_peers = 0
        # Replay root + epoch counter, bound by initialize(); every
        # epoch's streams derive statelessly from (root, epoch index).
        self._root: Optional[np.random.SeedSequence] = None
        self._next_epoch = 0
        # Per-peer state indexed by peer id (grown on demand): published
        # opinion, gossip value, gossip weight.
        self._x = np.zeros(0, dtype=np.float64)
        self._v = np.zeros(0, dtype=np.float64)
        self._w = np.zeros(0, dtype=np.float64)

    @property
    def backend(self) -> str:
        """Resolved backend name every epoch runs on."""
        return self._backend

    @property
    def overlay(self) -> MutableOverlay:
        """The (mutated-in-place) overlay."""
        return self._overlay

    def estimates(self) -> np.ndarray:
        """Current per-peer reputation estimates, in ``peer_ids()`` order."""
        pids = self._overlay.peer_ids()
        return self._v[pids] / self._w[pids]

    def opinions(self) -> np.ndarray:
        """Current published opinions, in ``peer_ids()`` order."""
        return self._x[self._overlay.peer_ids()]

    # -- state plumbing ------------------------------------------------------

    def _grow_state(self) -> None:
        needed = self._overlay.max_peer_id + 1
        if needed > self._x.shape[0]:
            capacity = max(16, 2 * self._x.shape[0], needed)
            for name in ("_x", "_v", "_w"):
                old = getattr(self, name)
                grown = np.zeros(capacity, dtype=np.float64)
                grown[: old.shape[0]] = old
                setattr(self, name, grown)

    def _seed_initial_opinions(self, rng: np.random.Generator) -> None:
        pids = self._overlay.peer_ids()
        self._grow_state()
        self._x[pids] = rng.random(pids.shape[0])
        self._v[pids] = self._x[pids]
        self._w[pids] = 1.0

    # -- epoch execution -----------------------------------------------------

    def initialize(
        self,
        seed: "int | np.random.SeedSequence",
        *,
        opinions: "float | np.ndarray | None" = None,
    ) -> None:
        """Bind the replay root and seed per-peer state; epochs restart at 0.

        This is the external-driver entry point (the reputation service
        of :mod:`repro.service` calls it instead of :meth:`run`):
        ``seed`` fixes every replay stream, and ``opinions`` optionally
        overrides the random initial opinions — a scalar broadcasts
        (``0.0`` is the paper's zero-initial-trust world before any
        report arrived), an array must match ``overlay.peer_ids()``
        order. Gossip pairs start at ``(x, 1)`` either way.
        """
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._root = root
        self._next_epoch = 0
        if opinions is None:
            self._seed_initial_opinions(
                np.random.default_rng(stateless_child_sequence(root, EPOCH_STREAM_KEY - 1))
            )
            return
        pids = self._overlay.peer_ids()
        self._grow_state()
        values = np.broadcast_to(
            np.asarray(opinions, dtype=np.float64), pids.shape
        ).copy()
        self._x[pids] = values
        self._v[pids] = values
        self._w[pids] = 1.0

    def step(self, *, arrivals: int = 0, departures: int = 0) -> EpochRecord:
        """Advance one epoch (churn → attack hook → gossip round).

        The externally-driven sibling of :meth:`run`'s loop body: callers
        that feed their own deltas — :meth:`republish_opinion` between
        steps, e.g. the report fold of
        :class:`repro.service.ReputationService` — advance the runtime
        one warm-start epoch at a time. Requires :meth:`initialize`
        first; epoch streams stay replayable because each derives
        statelessly from ``(seed, epoch index)``.
        """
        if self._root is None:
            raise RuntimeError("call initialize(seed) before step()")
        epoch = self._next_epoch
        child = stateless_child_sequence(self._root, EPOCH_STREAM_KEY + epoch)
        record = self._run_epoch(epoch, arrivals, departures, child)
        self._next_epoch += 1
        return record

    def run(self, trace: ChurnTrace) -> DynamicRunResult:
        """Replay ``trace`` epoch by epoch; return the per-epoch records."""
        self.initialize(trace.seed)
        result = DynamicRunResult(backend=self._backend, warm_start=self._warm_start)
        for churn in trace:
            result.records.append(
                self.step(arrivals=churn.arrivals, departures=churn.departures)
            )
        return result

    def _run_epoch(
        self,
        epoch: int,
        arrivals: int,
        departures: int,
        seed: np.random.SeedSequence,
    ) -> EpochRecord:
        started = time.perf_counter()
        rng = np.random.default_rng(seed)
        overlay = self._overlay

        departures = self._apply_departures(departures, rng)
        if departures:
            # Overlay maintenance: departures may have split the
            # overlay, and a partitioned overlay cannot aggregate
            # globally (each island would converge to its own mean).
            # Joins and rewires only add edges, so the O(N + E)
            # connected-components sweep is skipped without them.
            # During a scheduled partition window the repair is
            # group-scoped so maintenance never re-joins the islands.
            self._overlay.bridge_components(rng=rng, groups=self._partition_groups(epoch))
        arrivals = self._apply_arrivals(epoch, arrivals, rng)
        self._apply_drift(rng)

        attack_events = 0
        if self._attack is not None:
            attack_rng = np.random.default_rng(
                stateless_child_sequence(seed, ATTACK_EPOCH_KEY)
            )
            self._attack_removed_peers = 0
            attack_events = int(self._attack.on_epoch(self, epoch, attack_rng))
            if self._attack_removed_peers:
                # Only identity churn (whitewash leave/rejoin) can split
                # the overlay; republish/join-only attacks skip the
                # O(N + E) sweep, same as the join-only branch above.
                self._overlay.bridge_components(
                    rng=attack_rng, groups=self._partition_groups(epoch)
                )

        self._apply_partition(epoch, seed)

        graph, pids = overlay.snapshot()
        warm = self._warm_start and epoch > 0
        if warm:
            values = self._v[pids].reshape(-1, 1).copy()
            weights = self._w[pids].reshape(-1, 1).copy()
        else:
            values = self._x[pids].reshape(-1, 1).copy()
            weights = np.ones_like(values)

        if self._stop_rule == "protocol":
            # The shortened warm warmup only applies to step-synchronous
            # engines; the event-driven backend has no per-step warmup
            # to shorten and rejects the override outright.
            warmup = WARM_WARMUP_STEPS if warm and self._stepwise else self._config.warmup_steps
            epoch_config = replace(
                self._config, rng=stateless_child_sequence(seed, 1), warmup_steps=warmup
            )
            outcome = run_backend(
                graph, values, weights, config=epoch_config, backend=self._backend
            )
            values, weights = outcome.values, outcome.weights
            steps = outcome.steps
            push_messages = outcome.push_messages
            converged_fraction = float(np.mean(outcome.converged))
        else:
            steps, push_messages, converged_fraction, values, weights = self._run_to_accuracy(
                graph, values, weights, seed
            )
        self._v[pids] = values[:, 0]
        self._w[pids] = weights[:, 0]

        truth = float(self._x[pids].mean())
        mean_error, max_error = _estimate_errors(values[:, 0], weights[:, 0], truth)
        return EpochRecord(
            epoch=epoch,
            num_peers=graph.num_nodes,
            num_edges=graph.num_edges,
            arrivals=arrivals,
            departures=departures,
            warm=warm,
            steps=steps,
            push_messages=push_messages,
            converged_fraction=converged_fraction,
            true_mean=truth,
            max_abs_error=max_error,
            mean_abs_error=mean_error,
            elapsed_seconds=time.perf_counter() - started,
            attack_events=attack_events,
        )

    def _partition_groups(self, epoch: int) -> "Optional[Dict[int, int]]":
        """Group-scoping map for overlay repair while the partition is
        active (``None`` otherwise — the unscoped legacy behaviour)."""
        if self._partition is None or not self._partition.active(epoch):
            return None
        return {
            int(pid): self._partition.group(int(pid))
            for pid in self._overlay.peer_ids()
        }

    def _apply_partition(self, epoch: int, seed: np.random.SeedSequence) -> None:
        """Replay the scheduled partition: cut cross-group edges while
        the window is active, restore the survivors at heal time.

        Runs after churn and the attack hook (so edges those wired
        across the divide are cut the same epoch) and before the
        snapshot the gossip round runs on. The cut itself is
        deterministic — which edges go is a pure function of the edge
        set and ``pid % num_groups`` — and only the intra-group
        re-bridging draws randomness, from a dedicated
        ``PARTITION_EPOCH_KEY`` child stream so partition-free replays
        are untouched.
        """
        partition = self._partition
        if partition is None:
            return
        overlay = self._overlay
        if partition.active(epoch):
            cut = 0
            for u, v in overlay.edges():
                if partition.group(u) != partition.group(v):
                    overlay.remove_edge(u, v)
                    self._cut_edges.add((u, v))
                    cut += 1
            self.partition_cut_edges += cut
            if cut:
                # Cutting can fragment a group whose internal
                # connectivity ran through the far side; re-bridge each
                # group into one island.
                part_rng = np.random.default_rng(
                    stateless_child_sequence(seed, PARTITION_EPOCH_KEY)
                )
                self.partition_bridges += overlay.bridge_components(
                    rng=part_rng, groups=self._partition_groups(epoch)
                )
        elif self._cut_edges and epoch >= partition.heal_epoch:
            restored = 0
            for u, v in sorted(self._cut_edges):
                if (
                    overlay.has_peer(u)
                    and overlay.has_peer(v)
                    and not overlay.has_edge(u, v)
                ):
                    overlay.add_edge(u, v)
                    restored += 1
            self._cut_edges.clear()
            self.partition_restored_edges += restored

    def _run_to_accuracy(
        self,
        graph: Graph,
        values: np.ndarray,
        weights: np.ndarray,
        seed: np.random.SeedSequence,
    ) -> tuple:
        """Gossip in ``run_to_max`` blocks until the state sits within
        ``epoch_tol`` of its own fixpoint (mean per-node distance).

        The fixpoint ``sum(values)/sum(weights)`` is a conserved
        quantity of the round, so the check needs no external ground
        truth. The distance is *mass-weighted* —
        ``sum(|v_i - fixpoint * w_i|) / sum(w)`` — which equals the
        weight-averaged estimate error while staying immune to the
        push-sum weight-drain artefact (a node holding negligible
        gossip weight has a meaningless raw ratio but also negligible
        influence on what it reports onward). ``config.max_steps``
        bounds the total budget (the epoch then records
        ``converged_fraction = 0.0`` instead of raising).
        """
        total_weight = float(weights.sum())
        fixpoint = float(values.sum()) / total_weight
        budget = self._config.max_steps
        steps = 0
        push_messages = 0
        block = 0
        # A quiet warm epoch (all churn Δ-gated away) can enter already
        # within tolerance; converging in zero rounds is then correct.
        residual = np.abs(values[:, 0] - fixpoint * weights[:, 0]).sum() / total_weight
        if float(residual) <= self._epoch_tol:
            return steps, push_messages, 1.0, values, weights
        while True:
            block_config = replace(
                self._config,
                rng=stateless_child_sequence(seed, 1 + block),
                max_steps=min(BLOCK_STEPS, budget - steps),
                run_to_max=True,
                warmup_steps=None,
            )
            outcome = run_backend(
                graph, values, weights, config=block_config, backend=self._backend
            )
            values, weights = outcome.values, outcome.weights
            steps += outcome.steps
            push_messages += outcome.push_messages
            block += 1
            residual = np.abs(values[:, 0] - fixpoint * weights[:, 0]).sum() / total_weight
            if float(residual) <= self._epoch_tol:
                return steps, push_messages, 1.0, values, weights
            if steps >= budget:
                return steps, push_messages, 0.0, values, weights

    def _apply_departures(self, departures: int, rng: np.random.Generator) -> int:
        """Depart up to ``departures`` peers, handing their mass onward."""
        overlay = self._overlay
        applied = 0
        for _ in range(departures):
            if overlay.num_peers <= max(3, self._m + 1):
                break
            pids = overlay.peer_ids()
            victim = int(pids[rng.integers(pids.shape[0])])
            # Mass conservation with opinion retirement: the heir
            # receives the leaver's converged pair minus the leaver's
            # own published contribution (x, 1), so the departed opinion
            # stops counting toward the global ratio.
            self._depart_peer(victim, rng)
            applied += 1
        return applied

    def _apply_arrivals(self, epoch: int, arrivals: int, rng: np.random.Generator) -> int:
        """Join ``arrivals`` fresh peers via preferential attachment."""
        overlay = self._overlay
        for _ in range(arrivals):
            pid = overlay.add_peer(m=self._m, rng=rng)
            self._grow_state()
            opinion = self._newcomer_opinion(epoch, rng)
            self._x[pid] = opinion
            self._v[pid] = opinion
            self._w[pid] = 1.0
        return arrivals

    # -- adversary surface ---------------------------------------------------
    # The operations an AttackModel.on_epoch hook composes: they reuse the
    # leaver/joiner mass bookkeeping, so any attack sequence preserves the
    # Δ=0 invariant sum(values)/sum(weights) == mean(x) over live peers.

    def _depart_peer(self, pid: int, rng: np.random.Generator) -> None:
        """The leaver rule, in one place for churn and attacks alike:
        remove ``pid``, hand its pair — minus its own published opinion
        ``(x, 1)`` — to a former neighbour, zero its state. This is the
        only code maintaining the Δ=0 mass invariant on departure."""
        former = self._overlay.remove_peer(pid, rewire_isolated=True, rng=rng)
        if former:
            heir = int(former[rng.integers(len(former))])
        else:
            live = self._overlay.peer_ids()
            heir = int(live[rng.integers(live.shape[0])])
        self._v[heir] += self._v[pid] - self._x[pid]
        self._w[heir] += self._w[pid] - 1.0
        self._v[pid] = self._w[pid] = self._x[pid] = 0.0

    def _newcomer_opinion(
        self,
        epoch: int,
        rng: np.random.Generator,
        *,
        fallback: Optional[float] = None,
    ) -> float:
        """The joiner grant, in one place: the installed newcomer policy
        (which also observes the join), else ``fallback``, else a fresh
        uniform opinion. Call *after* the peer joined, so the policy
        sees the post-join population."""
        if self._policy is not None:
            self._policy.observe_join(now=float(epoch), population=self._overlay.num_peers)
            return float(self._policy.initial_trust(now=float(epoch)))
        if fallback is not None:
            return float(fallback)
        return float(rng.random())

    def republish_opinion(self, pid: int, value: float) -> None:
        """Publish a changed opinion now (Algorithm 2's re-announcement).

        The opinion delta is injected into the peer's gossip value
        unconditionally — an adversary re-announces whatever it wants,
        the Δ gate only filters *honest* drift.
        """
        self._v[pid] += value - self._x[pid]
        self._x[pid] = value

    def join_attacker(
        self, opinion: float, rng: np.random.Generator, *, m: Optional[int] = None
    ) -> int:
        """Join one adversarial identity publishing ``opinion``; return its id.

        Unlike honest arrivals the opinion is the attacker's choice, not
        the newcomer policy's grant — that asymmetry is what sybil
        floods exploit.
        """
        pid = self._overlay.add_peer(m=self._m if m is None else int(m), rng=rng)
        self._grow_state()
        self._x[pid] = self._v[pid] = float(opinion)
        self._w[pid] = 1.0
        return pid

    def whitewash_peer(
        self,
        pid: int,
        rng: np.random.Generator,
        *,
        epoch: int = 0,
        newcomer_opinion: float = 0.0,
    ) -> int:
        """Cycle ``pid``'s identity: leave, then rejoin fresh; return the new id.

        The departure follows the leaver rule (mass handed to a former
        neighbour with the published opinion retired); the rejoin enters
        with the newcomer policy's grant when one is installed, else
        ``newcomer_opinion`` (the paper's zero-trust default — which is
        exactly why whitewashing buys nothing here).
        """
        self._depart_peer(pid, rng)
        self._attack_removed_peers += 1
        new_pid = self._overlay.add_peer(m=self._m, rng=rng)
        self._grow_state()
        opinion = self._newcomer_opinion(epoch, rng, fallback=newcomer_opinion)
        self._x[new_pid] = self._v[new_pid] = opinion
        self._w[new_pid] = 1.0
        return new_pid

    def _apply_drift(self, rng: np.random.Generator) -> None:
        """Re-draw a fraction of opinions; Δ-gate the re-push corrections."""
        if self._drift <= 0.0:
            return
        pids = self._overlay.peer_ids()
        moved = pids[rng.random(pids.shape[0]) < self._drift]
        if moved.shape[0] == 0:
            return
        jitter = rng.uniform(-DRIFT_SCALE, DRIFT_SCALE, moved.shape[0])
        fresh = np.clip(self._x[moved] + jitter, 0.0, 1.0)
        delta = self._config.delta
        changed = np.abs(fresh - self._x[moved]) > delta
        # Algorithm 2's Δ rule: only opinions that moved materially are
        # re-announced (their delta is injected into the gossip value);
        # sub-threshold drift is neither published nor pushed.
        repush = moved[changed]
        self._v[repush] += fresh[changed] - self._x[repush]
        self._x[repush] = fresh[changed]


def run_dynamic(
    overlay: "MutableOverlay | Graph",
    trace: ChurnTrace,
    config: Optional[GossipConfig] = None,
    *,
    backend: str = "auto",
    warm_start: bool = True,
    stop_rule: str = "accuracy",
    epoch_tol: float = 1e-3,
    newcomer_policy: Optional[DynamicNewcomerPolicy] = None,
    opinion_drift: float = 0.0,
    attachment_m: int = 2,
    attack=None,
    partition: Optional[EpochPartition] = None,
) -> DynamicRunResult:
    """Run reputation aggregation over a churning overlay, one epoch per trace entry.

    The dynamic-network sibling of :func:`repro.aggregate`: where
    ``aggregate`` runs one gossip round on a frozen graph, this replays
    a :class:`ChurnTrace` against an evolving
    :class:`~repro.network.mutable.MutableOverlay` and runs one round
    per epoch on any registered backend, warm-starting each round from
    the last (see :class:`DynamicReputationRuntime`).

    Parameters
    ----------
    overlay:
        A :class:`MutableOverlay`, or a :class:`Graph` to wrap (the
        overlay is mutated in place as the trace replays).
    trace:
        The seeded churn schedule; it also seeds every replay stream.
    config:
        Shared gossip knobs (:class:`repro.core.backend.GossipConfig`).
    backend, warm_start, stop_rule, epoch_tol, newcomer_policy, opinion_drift, \
attachment_m, attack, partition:
        See :class:`DynamicReputationRuntime`.

    Examples
    --------
    >>> from repro.network.mutable import MutableOverlay
    >>> from repro.runtime.trace import ChurnTrace
    >>> overlay = MutableOverlay.grow_preferential(60, m=2, rng=3)
    >>> trace = ChurnTrace.steady(3, population=60, join_rate=0.05, leave_rate=0.05, seed=4)
    >>> result = run_dynamic(overlay, trace, GossipConfig(delta=0.0), backend="sparse", epoch_tol=1e-5)
    >>> len(result.records)
    3
    >>> result.final_record.mean_abs_error < 1e-3
    True
    """
    if isinstance(overlay, Graph):
        overlay = MutableOverlay.from_graph(overlay)
    runtime = DynamicReputationRuntime(
        overlay,
        config=config,
        backend=backend,
        warm_start=warm_start,
        stop_rule=stop_rule,
        epoch_tol=epoch_tol,
        newcomer_policy=newcomer_policy,
        opinion_drift=opinion_drift,
        attachment_m=attachment_m,
        attack=attack,
        partition=partition,
    )
    return runtime.run(trace)
