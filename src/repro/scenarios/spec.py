"""Composable scenario specifications.

A scenario is the cross product the ROADMAP asks for: **topology ×
workload × network × attack × …** (dynamics, service, algorithm,
backend), captured as data. Each axis is a
small frozen spec; :func:`run_scenario` interprets the combination
through the :func:`repro.aggregate` facade, so any scenario runs on any
registered gossip backend without new plumbing — adding a workload or a
topology kind here opens it to every backend at once.

Every scenario has a full-scale shape and a ``--small`` shape (the CI
smoke size); both are fully seeded, so a scenario run is reproducible
from ``(name, seed, small)`` alone.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AggregationAlgorithm
    from repro.attacks.models import AttackModel
    from repro.network.conditions import EpochPartition, LatencySpec, LinkModel
    from repro.trust.matrix import TrustMatrix

from repro.core.backend import GossipConfig, choose_backend_name, resolve_backend_name
from repro.facade import aggregate
from repro.network.graph import Graph
from repro.utils.registry import Registry
from repro.utils.rng import as_generator

TOPOLOGY_KINDS = (
    "powerlaw",
    "powerlaw-fast",
    "erdos-renyi",
    "random-regular",
    "regional",
    "example",
)
WORKLOAD_KINDS = ("mean", "trust-global", "trust-gclr", "free-riding", "dual-rank")


@dataclass(frozen=True)
class TopologySpec:
    """Which overlay graph the scenario runs on.

    ``small_num_nodes`` is the ``--small`` (CI smoke) size; everything
    else about the topology is scale-invariant.
    """

    kind: str = "powerlaw"
    num_nodes: int = 1000
    small_num_nodes: int = 200
    m: int = 2  # preferential attachment
    p: float = 0.02  # erdos-renyi edge probability
    degree: int = 4  # random-regular
    num_regions: int = 4  # regional (planted partition)
    intra_p: float = 0.2  # regional: same-region edge probability
    inter_p: float = 0.01  # regional: cross-region edge probability

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(f"topology kind must be one of {TOPOLOGY_KINDS}, got {self.kind!r}")
        if self.num_regions < 1:
            raise ValueError(f"num_regions must be >= 1, got {self.num_regions}")

    def size(self, small: bool) -> int:
        """Node count at the requested scale."""
        return self.small_num_nodes if small else self.num_nodes

    def build(self, rng, *, small: bool = False) -> Graph:
        """Construct the graph at the requested scale."""
        n = self.size(small)
        if self.kind == "powerlaw":
            from repro.network.preferential_attachment import preferential_attachment_graph

            return preferential_attachment_graph(n, m=self.m, rng=rng)
        if self.kind == "powerlaw-fast":
            from repro.network.preferential_attachment import preferential_attachment_graph_fast

            return preferential_attachment_graph_fast(n, m=self.m, rng=rng)
        if self.kind == "erdos-renyi":
            from repro.network.random_graphs import erdos_renyi_graph

            return erdos_renyi_graph(n, self.p, rng=rng)
        if self.kind == "random-regular":
            from repro.network.random_graphs import random_regular_graph

            return random_regular_graph(n, self.degree, rng=rng)
        if self.kind == "regional":
            from repro.network.random_graphs import regional_graph

            return regional_graph(
                n,
                self.num_regions,
                intra_probability=self.intra_p,
                inter_probability=self.inter_p,
                rng=rng,
            )
        from repro.network.topology_example import example_network

        return example_network()


@dataclass(frozen=True)
class WorkloadSpec:
    """What gets aggregated.

    - ``"mean"``: every node holds one uniform random observation; the
      round estimates the global mean (Section 5.1's uniform-gossip
      setting).
    - ``"trust-global"``: a trust matrix is aggregated with the
      vector-global variant over sampled target columns.
    - ``"trust-gclr"``: full Differential Gossip Trust (vector-gclr)
      measured as eq.-18 RMS error of a poisoned run against a clean
      run (requires an :class:`AttackSpec`).
    - ``"free-riding"``: nodes carry contribution scores with a
      free-riding minority; the round estimates the network-wide mean
      contribution each node compares itself against.
    - ``"dual-rank"``: Golem-style computing + delegating reputations —
      two independent trust matrices gossiped as two channels of one
      ``num_channels = 2`` vector-global pass (every sampling draw
      shared). Supports an optional attack; a cross-channel family
      poisons one rank while the other must stay clean (containment).
    """

    kind: str = "mean"
    num_targets: int = 20
    observations: str = "edge-local"  # edge-local | complete
    free_rider_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"workload kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}")
        if self.observations not in ("edge-local", "complete"):
            raise ValueError(
                f"observations must be 'edge-local' or 'complete', got {self.observations!r}"
            )
        if not 0.0 < self.free_rider_fraction < 1.0:
            raise ValueError(
                f"free_rider_fraction must be in (0, 1), got {self.free_rider_fraction}"
            )

    def build_trust(self, graph: Graph, rng) -> "TrustMatrix":
        """The trust matrix ``observations`` names, drawn from ``rng``:
        every pair (``"complete"``) or the overlay's edges only."""
        from repro.trust.matrix import complete_trust_matrix, random_trust_matrix

        if self.observations == "complete":
            return complete_trust_matrix(graph.num_nodes, rng=rng)
        return random_trust_matrix(graph, rng=rng)


@dataclass(frozen=True)
class NetworkSpec:
    """Network-conditions axis: the link model for the scenario's pushes.

    The one way a scenario asks for packet loss, from the paper's
    uniform instant loss (Section 5.3) to the full
    :mod:`repro.network.conditions` surface. Every edge shares ``loss``
    and one latency distribution (``latency_kind``/``latency_mean``/
    ``latency_spread``); with zero latency this is the paper's churn
    model. With ``num_regions >= 2`` peers split into contiguous
    blocks: ``loss`` and ``latency_mean`` then hold inside a region,
    WAN conditions hold across (``inter_loss``, ``inter_latency_mean``,
    optional ``inter_bandwidth`` cap), one region may be flaky, and an
    optional scheduled partition window (``partition_start`` ..
    ``+ partition_duration``) cuts the regions apart until it heals.

    For static scenarios the spec builds the
    :class:`~repro.network.conditions.LinkModel` handed to
    ``GossipConfig(network=...)`` — latency-bearing models steer
    ``"auto"`` to the event-driven async backend. For dynamic scenarios
    only the partition fields apply (:meth:`epoch_partition` replays
    cut-and-heal through the mutable overlay, with ``num_regions``
    groups; ``partition_start`` and ``partition_duration`` are then
    epoch counts).
    """

    loss: float = 0.0  # intra-region loss when num_regions > 1
    latency_kind: str = "exponential"
    latency_mean: float = 0.0  # intra-region latency when num_regions > 1
    latency_spread: float = 0.0
    num_regions: int = 1
    inter_loss: float = 0.0
    inter_latency_mean: float = 0.0
    inter_bandwidth: Optional[float] = None
    flaky_region: Optional[int] = None
    flaky_loss: float = 0.5
    partition_start: Optional[float] = None  # simulated time (static) / epoch (dynamic)
    partition_duration: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss", "inter_loss", "flaky_loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("latency_mean", "latency_spread", "inter_latency_mean"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.partition_start is not None and self.partition_duration <= 0:
            raise ValueError(
                f"partition_duration must be positive with partition_start set, "
                f"got {self.partition_duration}"
            )
        self.build_link()  # the link model checks the region settings

    def _latency(self, mean: float) -> "LatencySpec":
        from repro.network.conditions import INSTANT, LatencySpec

        if mean == 0.0:
            return INSTANT
        spread = self.latency_spread
        if self.latency_kind == "uniform":
            spread = min(spread, mean)
        return LatencySpec(kind=self.latency_kind, mean=mean, spread=spread)

    @property
    def has_latency(self) -> bool:
        """Whether the built link model forces the event-driven backend."""
        return self.build_link().has_latency

    def build_link(self) -> "LinkModel":
        """The :class:`~repro.network.conditions.LinkModel` this spec names."""
        from repro.network.conditions import LinkModel, PartitionWindow

        return LinkModel(
            self.loss,
            latency=self._latency(self.latency_mean),
            regions=self.num_regions,
            inter_loss=self.inter_loss,
            inter_latency=self._latency(self.inter_latency_mean),
            inter_bandwidth=self.inter_bandwidth,
            flaky_region=self.flaky_region,
            flaky_loss=self.flaky_loss if self.flaky_region is not None else 0.0,
            partitions=(
                (PartitionWindow(self.partition_start, self.partition_duration),)
                if self.partition_start is not None
                else ()
            ),
        )

    def epoch_partition(self) -> "Optional[EpochPartition]":
        """The dynamic-runtime partition schedule, or ``None``.

        ``partition_start``/``partition_duration`` are read as epoch
        counts: active from ``start`` until healing at
        ``start + duration``.
        """
        if self.partition_start is None:
            return None
        from repro.network.conditions import EpochPartition

        start = int(self.partition_start)
        return EpochPartition(
            start_epoch=start,
            heal_epoch=start + int(self.partition_duration),
            num_groups=self.num_regions,
        )


@dataclass(frozen=True)
class AttackSpec:
    """Adversary axis: one registered attack family plus its parameters.

    ``kind`` names any family in the attack registry
    (:mod:`repro.attacks.models`) by its one registered name. Unused parameters
    are ignored by :meth:`build`, so one spec shape covers every
    family:

    - ``"collusion"`` — ``fraction``, ``group_size`` (Section 5.2);
    - ``"slandering"`` — ``fraction``, ``victim_fraction``, ``value``,
      ``max_victims``;
    - ``"whitewashing"`` — ``fraction``, ``newcomer_trust``;
    - ``"on-off"`` — ``fraction``, ``period``, ``on_epochs``, wrapping
      a slandering inner attack (``victim_fraction``/``value``/
      ``max_victims``) so the duty cycle stays sparse at any scale;
    - ``"sybil"`` — ``sybil_fraction``, ``attach_m``;
    - ``"cross-channel-slander"`` — the slandering parameters plus
      ``target_channel`` (which reputation channel of a multi-channel
      workload the coalition poisons; the others stay honest).
    """

    kind: str = "collusion"
    fraction: float = 0.3
    group_size: int = 5
    victim_fraction: float = 0.1
    value: float = 0.0
    max_victims: Optional[int] = None
    period: int = 2
    on_epochs: int = 1
    sybil_fraction: float = 0.1
    attach_m: int = 2
    newcomer_trust: float = 0.0
    target_channel: int = 0

    def __post_init__(self) -> None:
        from repro.attacks.models import resolve_attack_name

        resolve_attack_name(self.kind)  # raises UnknownAttackError early
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        # Per-family parameters fail at spec construction, not mid-run:
        # a registered scenario with a bad duty cycle or victim cap
        # should never survive to topology building.
        if not 0.0 <= self.victim_fraction < 1.0:
            raise ValueError(f"victim_fraction must be in [0, 1), got {self.victim_fraction}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value must be in [0, 1], got {self.value}")
        if self.max_victims is not None and self.max_victims < 1:
            raise ValueError(f"max_victims must be >= 1, got {self.max_victims}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0 < self.on_epochs <= self.period:
            raise ValueError(
                f"on_epochs must be in 1..period ({self.period}), got {self.on_epochs}"
            )
        if not 0.0 < self.sybil_fraction < 1.0:
            raise ValueError(f"sybil_fraction must be in (0, 1), got {self.sybil_fraction}")
        if self.attach_m < 1:
            raise ValueError(f"attach_m must be >= 1, got {self.attach_m}")
        if not 0.0 <= self.newcomer_trust <= 1.0:
            raise ValueError(f"newcomer_trust must be in [0, 1], got {self.newcomer_trust}")
        if self.target_channel < 0:
            raise ValueError(f"target_channel must be >= 0, got {self.target_channel}")

    def _slander_params(self) -> Dict:
        """Slandering kwargs; ``max_victims=None`` defers to the family's
        default cap rather than lifting it."""
        params: Dict = dict(
            fraction=self.fraction,
            victim_fraction=self.victim_fraction,
            value=self.value,
        )
        if self.max_victims is not None:
            params["max_victims"] = self.max_victims
        return params

    def build(self, *, seed: int) -> "AttackModel":
        """Instantiate the family with this spec's parameters and ``seed``."""
        from repro.attacks.models import make_attack

        kind = self.kind
        if kind == "collusion":
            return make_attack(
                kind, fraction=self.fraction, group_size=self.group_size, seed=seed
            )
        if kind == "slandering":
            return make_attack(kind, seed=seed, **self._slander_params())
        if kind == "cross-channel-slander":
            return make_attack(
                kind, seed=seed, target_channel=self.target_channel,
                **self._slander_params(),
            )
        if kind == "whitewashing":
            return make_attack(
                kind, fraction=self.fraction, newcomer_trust=self.newcomer_trust, seed=seed
            )
        if kind == "on-off":
            inner = make_attack("slandering", seed=seed, **self._slander_params())
            return make_attack(
                kind,
                fraction=self.fraction,
                period=self.period,
                on_epochs=self.on_epochs,
                inner=inner,
                seed=seed,
            )
        if kind == "sybil":
            return make_attack(
                kind, sybil_fraction=self.sybil_fraction, attach_m=self.attach_m, seed=seed
            )
        # Third-party families run with their registered defaults.
        return make_attack(kind, seed=seed)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Aggregation-algorithm axis: which registered algorithm executes.

    ``kind`` names any algorithm in the registry
    (:mod:`repro.algorithms`) by its one registered name. Setting this on a
    scenario replaces the default vector-global gossip of the
    ``"trust-global"`` workload with the named algorithm's adapter —
    the same world (topology, trust matrix, sampled targets, seed)
    measured through :class:`repro.algorithms.base.AlgorithmOutcome`,
    so a scenario can pin a comparator (or a sweep can vary this axis)
    without new plumbing.
    """

    kind: str = "diff-gossip"

    def __post_init__(self) -> None:
        from repro.algorithms import resolve_algorithm_name

        resolve_algorithm_name(self.kind)  # raises UnknownAlgorithmError early

    def build(self) -> "AggregationAlgorithm":
        """The registered adapter this spec names."""
        from repro.algorithms import get_algorithm

        return get_algorithm(self.kind)


@dataclass(frozen=True)
class DynamicSpec:
    """Session churn driving the epoch runtime (:mod:`repro.runtime`).

    Setting this on a scenario switches execution from one static
    gossip round to :func:`repro.runtime.run_dynamic`: the topology
    becomes a :class:`repro.network.mutable.MutableOverlay`, peers join
    (preferential attachment) and leave per a seeded
    :class:`repro.runtime.trace.ChurnTrace`, and each epoch's round
    warm-starts from the last. Only the ``"mean"`` workload runs
    dynamically (per-peer reputation scores averaged network-wide).
    """

    epochs: int = 8
    join_rate: float = 0.002
    leave_rate: float = 0.002
    flash: bool = False  # flash-crowd trace instead of steady rates
    spike_epoch: int = 1
    spike_fraction: float = 0.3
    warm_start: bool = True
    stop_rule: str = "accuracy"
    epoch_tol: float = 1e-3
    opinion_drift: float = 0.01
    newcomer_trust: Optional[float] = None  # DynamicNewcomerPolicy grant; None = uniform opinions

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("join_rate", "leave_rate", "opinion_drift"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.epoch_tol <= 0:
            raise ValueError(f"epoch_tol must be positive, got {self.epoch_tol}")
        if self.newcomer_trust is not None and not 0.0 <= self.newcomer_trust <= 1.0:
            raise ValueError(f"newcomer_trust must be in [0, 1], got {self.newcomer_trust}")

    def build_trace(self, population: int, seed: int) -> "ChurnTrace":
        """The seeded churn schedule for a ``population``-peer overlay."""
        from repro.runtime.trace import ChurnTrace

        if self.flash:
            return ChurnTrace.flash_crowd(
                self.epochs,
                population=population,
                base_rate=max(self.join_rate, self.leave_rate),
                spike_epoch=self.spike_epoch,
                spike_fraction=self.spike_fraction,
                seed=seed,
            )
        return ChurnTrace.steady(
            self.epochs,
            population=population,
            join_rate=self.join_rate,
            leave_rate=self.leave_rate,
            seed=seed,
        )


@dataclass(frozen=True)
class ServiceSpec:
    """Streaming soak of the serving layer (:mod:`repro.service`).

    Setting this on a scenario switches execution to a
    :class:`repro.service.service.ReputationService` soak: a seeded
    synthetic report stream is submitted in chunks against a bounded
    ingest queue (watermark shedding included), the service folds
    batches and advances warm-start epochs tick by tick, and the run
    reports ingest throughput, staleness, and lock-free query rate.
    """

    num_reports: int = 20_000
    small_num_reports: int = 1_500
    batch_size: int = 512
    high_watermark: int = 2_048
    submit_chunk: int = 256
    noise: float = 0.1
    query_samples: int = 2_000

    def __post_init__(self) -> None:
        for name in ("num_reports", "small_num_reports", "query_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("batch_size", "high_watermark", "submit_chunk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")

    def size(self, small: bool) -> int:
        """Report count at the requested scale."""
        return self.small_num_reports if small else self.num_reports


@dataclass(frozen=True)
class Scenario:
    """One named point in topology × workload × network × attack × …."""

    name: str
    description: str
    topology: TopologySpec
    workload: WorkloadSpec
    network: Optional[NetworkSpec] = None
    attack: Optional[AttackSpec] = None
    dynamic: Optional[DynamicSpec] = None
    service: Optional["ServiceSpec"] = None
    algorithm: Optional[AlgorithmSpec] = None
    backend: str = "auto"
    xi: float = 1e-5
    max_steps: int = 20_000
    seed: int = 2016

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.workload.kind == "trust-gclr" and self.attack is None:
            raise ValueError("trust-gclr scenarios measure an attack; provide AttackSpec")
        if self.algorithm is not None and self.workload.kind != "trust-global":
            raise ValueError(
                "the algorithm axis replaces the 'trust-global' workload's "
                f"aggregation; got workload {self.workload.kind!r}"
            )
        if self.dynamic is not None and self.workload.kind != "mean":
            raise ValueError(
                "dynamic scenarios run the 'mean' workload (per-peer reputation scores); "
                f"got {self.workload.kind!r}"
            )
        if self.service is not None:
            if self.dynamic is not None:
                raise ValueError(
                    "service scenarios drive their own epoch loop; 'dynamic' and "
                    "'service' are mutually exclusive"
                )
            if self.workload.kind != "mean":
                raise ValueError(
                    "service scenarios fold trust reports into per-peer reputations "
                    f"(the 'mean' workload); got {self.workload.kind!r}"
                )
        if self.network is not None:
            if self.dynamic is not None or self.service is not None:
                if self.network.epoch_partition() is None:
                    raise ValueError(
                        "dynamic/service scenarios use the network axis only for "
                        "scheduled partitions; set partition_start/partition_duration"
                    )
                if (
                    self.network.latency_mean > 0.0
                    or self.network.inter_latency_mean > 0.0
                    or self.network.inter_bandwidth is not None
                    or self.network.loss > 0.0
                    or self.network.inter_loss > 0.0
                ):
                    raise ValueError(
                        "epoch-driven runs have no simulated-time axis; dynamic "
                        "network specs must carry only the partition schedule "
                        "(zero latency/loss, no bandwidth cap)"
                    )
            elif self.network.has_latency and self.workload.kind != "mean":
                raise ValueError(
                    "latency-bearing network models run on the event-driven "
                    "'async' backend, which gossips the scalar 'mean' workload "
                    f"only; got {self.workload.kind!r}"
                )
        if self.attack is not None:
            self._check_attack()

    @property
    def _path(self) -> str:
        """The runner this scenario executes on: the dynamic, service
        and algorithm axes replace the workload's own execution, in that
        order of precedence."""
        return next(
            (axis for axis in ("dynamic", "service", "algorithm") if getattr(self, axis) is not None),
            self.workload.kind,
        )

    def _check_attack(self) -> None:
        """Reject an attack the scenario's runner would never apply."""
        from repro.attacks.models import AttackModel

        if self._path not in ("dynamic", "trust-gclr", "dual-rank"):
            raise ValueError(
                f"the {self._path!r} runner never applies an attack; attacks run on "
                "the 'trust-gclr' and 'dual-rank' workloads and on the dynamic axis"
            )
        model = self.attack.build(seed=self.seed)
        if self._path == "dynamic" and type(model).on_epoch is AttackModel.on_epoch:
            raise ValueError(
                f"attack family {model.name!r} has no per-epoch hook, so a dynamic "
                "run would never apply it"
            )
        if self._path == "dual-rank" and model.affects_topology:
            raise ValueError(
                f"attack family {model.name!r} grows the topology, which the "
                "dual-rank workload's fixed overlay cannot take"
            )


@dataclass
class ScenarioResult:
    """What one scenario run produced.

    ``metrics`` are seeded, so two runs print them identically;
    wall-clock rates go in ``timings`` and print beside ``elapsed:``
    under a ``timing:`` prefix, so a determinism diff can drop them.
    """

    name: str
    backend: str
    small: bool
    num_nodes: int
    num_edges: int
    steps: int
    push_messages: int
    converged_fraction: float
    metrics: Dict[str, float]
    elapsed_seconds: float
    notes: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        """Human-readable report block."""
        lines = [
            f"scenario: {self.name}{'  [small]' if self.small else ''}",
            f"  backend={self.backend}  N={self.num_nodes}  E={self.num_edges}",
            f"  steps={self.steps}  push_messages={self.push_messages}  "
            f"converged={self.converged_fraction:.1%}",
        ]
        for key in sorted(self.metrics):
            lines.append(f"  {key} = {self.metrics[key]:.6g}")
        lines.extend(f"  note: {note}" for note in self.notes)
        lines.extend(f"  timing: {key} = {self.timings[key]:.6g}" for key in sorted(self.timings))
        lines.append(f"  elapsed: {self.elapsed_seconds:.2f}s")
        return "\n".join(lines)


# -- registry ---------------------------------------------------------------

_SCENARIOS: Registry[Scenario] = Registry("scenario", KeyError)

get_scenario = _SCENARIOS.get
available_scenarios = _SCENARIOS.names


def register_scenario(scenario: Scenario, *, overwrite: bool = False) -> Scenario:
    """Add ``scenario`` to the catalogue under its name (returned for chaining)."""
    _SCENARIOS.register(scenario.name, scenario, overwrite=overwrite)
    return scenario


# -- execution --------------------------------------------------------------


def run_scenario(
    scenario: Union[Scenario, str],
    *,
    small: bool = False,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> ScenarioResult:
    """Execute one scenario and summarise it.

    Parameters
    ----------
    scenario:
        A :class:`Scenario` or a registered name.
    small:
        Run the scenario's CI-smoke shape instead of full scale.
    seed:
        Override the scenario's seed (one seed determines the whole
        run: topology, workload, gossip, network, attack).
    backend:
        Override the scenario's backend (any registered name or
        ``"auto"``).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    root = as_generator(scenario.seed if seed is None else seed)
    graph = scenario.topology.build(_child(root), small=small)
    backend_name = backend if backend is not None else scenario.backend
    # Dynamic/service runs replay the network axis through the overlay
    # (epoch partitions), not through a per-push link model.
    network = (
        scenario.network.build_link()
        if scenario.network is not None
        and scenario.dynamic is None
        and scenario.service is None
        else None
    )
    config = GossipConfig(
        xi=scenario.xi,
        max_steps=scenario.max_steps,
        network=network,
        rng=int(root.integers(2**62)),
    )
    start = time.perf_counter()
    fields = _RUNNERS[scenario._path](scenario, graph, config, backend_name, root, small=small)
    elapsed = time.perf_counter() - start
    return ScenarioResult(name=scenario.name, small=small, elapsed_seconds=elapsed, **fields)


def _child(root: np.random.Generator) -> np.random.Generator:
    """The next child stream of a run's root generator."""
    return as_generator(int(root.integers(2**62)))


def _resolve_backend(name: str, graph: Graph, config: GossipConfig, *, num_channels: int = 1) -> str:
    """``name``, with ``"auto"`` resolved for ``num_channels`` channels of
    state under ``config`` (a latency-bearing network steers to the
    event-driven async backend, multi-channel state away from the
    message engine)."""
    if name != "auto":
        return resolve_backend_name(name)
    return choose_backend_name(graph, dataclasses.replace(config, num_channels=num_channels))


def draw_targets(rng: np.random.Generator, num_nodes: int, num_targets: int) -> List[int]:
    """``min(num_targets, num_nodes)`` distinct target columns drawn
    from ``rng``, sorted."""
    count = min(num_targets, num_nodes)
    return sorted(int(t) for t in rng.choice(num_nodes, size=count, replace=False))


def _steer_targets(
    targets: List[int], model: "Optional[AttackModel]", rng: np.random.Generator, num_nodes: int
) -> List[int]:
    """``targets`` with half the tracked columns steered onto the
    attack's seeded victims.

    Slander-type attacks poison a bounded victim set; uniformly sampled
    target columns would almost never intersect it at scale, and the
    metrics would measure second-order weight noise instead of the
    attack. An on-off model is unwrapped to its inner attack. Attacks
    without victims (or no attack) leave ``targets`` as drawn.
    """
    from repro.attacks.models import OnOffModel

    if isinstance(model, OnOffModel) and model.inner is not None:
        model = model.inner
    if not hasattr(model, "cast"):
        return targets
    _, victims = model.cast(num_nodes)
    if not victims.size:
        return targets
    half = max(1, len(targets) // 2)
    if victims.size > half:
        victims = rng.choice(victims, size=half, replace=False)
    picked = set(int(v) for v in victims)
    # Victims are kept unconditionally; the uniform draw only fills the
    # remaining slots (truncating the sorted union could drop every
    # steered victim again).
    fill = [t for t in targets if t not in picked]
    return sorted(picked | set(fill[: max(0, len(targets) - len(picked))]))


def _run_dynamic(scenario, graph, config, backend, root, *, small):
    """Epoch-driven dynamic run: churn trace over a mutable overlay.

    The runtime resolves the backend name itself: its ``"auto"`` policy
    sends the accuracy stop rule's fixed-budget blocks to the sparse
    engine.
    """
    from repro.network.mutable import MutableOverlay
    from repro.runtime.dynamics import run_dynamic
    from repro.trust.newcomer_policy import DynamicNewcomerPolicy

    spec = scenario.dynamic
    trace = spec.build_trace(graph.num_nodes, int(root.integers(2**62)))
    policy = (
        DynamicNewcomerPolicy(max_initial_trust=spec.newcomer_trust)
        if spec.newcomer_trust is not None
        else None
    )
    attack = (
        scenario.attack.build(seed=int(root.integers(2**62)))
        if scenario.attack is not None
        else None
    )
    partition = (
        scenario.network.epoch_partition() if scenario.network is not None else None
    )
    result = run_dynamic(
        MutableOverlay.from_graph(graph),
        trace,
        config,
        backend=backend,
        warm_start=spec.warm_start,
        stop_rule=spec.stop_rule,
        epoch_tol=spec.epoch_tol,
        newcomer_policy=policy,
        opinion_drift=spec.opinion_drift,
        attachment_m=scenario.topology.m,
        attack=attack,
        partition=partition,
    )
    final = result.final_record
    metrics = {
        "epochs": float(len(result.records)),
        "total_arrivals": float(trace.total_arrivals),
        "total_departures": float(trace.total_departures),
        "steady_state_steps": result.steady_state_steps,
        "cold_bootstrap_steps": float(result.records[0].steps),
        "final_mean_abs_error": final.mean_abs_error,
        "final_num_peers": float(final.num_peers),
    }
    if attack is not None:
        metrics["total_attack_events"] = float(
            sum(r.attack_events for r in result.records)
        )
    if partition is not None:
        metrics["partition_epochs"] = float(
            sum(1 for r in result.records if partition.active(r.epoch))
        )
    notes = [
        f"{'warm' if spec.warm_start else 'cold'}-start epochs under the "
        f"'{spec.stop_rule}' stop rule (tol={spec.epoch_tol:g})",
        f"churn trace: {'flash-crowd' if spec.flash else 'steady'} "
        f"(+{trace.total_arrivals}/-{trace.total_departures} sessions over {len(trace)} epochs)",
    ]
    if partition is not None:
        notes.append(
            f"scheduled partition: {partition.num_groups} groups cut over epochs "
            f"[{partition.start_epoch}, {partition.heal_epoch}), then healed"
        )
    return dict(
        backend=result.backend,
        num_nodes=final.num_peers,
        num_edges=final.num_edges,
        steps=result.total_steps,
        push_messages=result.total_push_messages,
        converged_fraction=final.converged_fraction,
        metrics=metrics,
        notes=notes,
    )


def _run_service(scenario, graph, config, backend, root, *, small):
    """Streaming service soak: ingest → fold → epoch → snapshot, measured.

    The service resolves the backend name the way the dynamic runtime
    does (it embeds the runtime for its per-tick epochs).
    """
    from repro.network.mutable import MutableOverlay
    from repro.service.reports import generate_reports
    from repro.service.service import ReputationService

    spec = scenario.service
    num_reports = spec.size(small)
    reports = generate_reports(
        num_reports,
        graph.num_nodes,
        rng=_child(root),
        noise=spec.noise,
    )
    service = ReputationService(
        MutableOverlay.from_graph(graph),
        config=config,
        backend=backend,
        seed=int(root.integers(2**62)),
        high_watermark=spec.high_watermark,
        batch_size=spec.batch_size,
    )

    start = time.perf_counter()
    ticks = []
    shed_events = 0
    cursor = 0
    while cursor < len(reports):
        chunk = reports[cursor : cursor + spec.submit_chunk]
        accepted = service.submit_batch(chunk)
        cursor += accepted
        if accepted < len(chunk):
            # Watermark shed: fold a batch, then resubmit the remainder —
            # the deterministic single-driver version of "retry after the
            # service loop drains".
            shed_events += 1
            ticks.append(service.tick())
    ticks.extend(service.drain_pending())
    ingest_elapsed = time.perf_counter() - start

    # Lock-free query path, measured against the final snapshot.
    pids = service.overlay.peer_ids()
    query_start = time.perf_counter()
    for i in range(spec.query_samples):
        service.get_reputation(int(pids[i % len(pids)]))
    query_elapsed = time.perf_counter() - query_start

    snapshot = service.snapshot()
    staleness = [t.staleness for t in ticks]
    metrics = {
        "reports_folded": float(snapshot.reports_folded),
        "ticks": float(len(ticks)),
        "final_version": float(snapshot.version),
        "max_staleness": float(max(staleness, default=0)),
        "mean_staleness": float(np.mean(staleness)) if staleness else 0.0,
        "shed_events": float(shed_events),
        "queue_rejected_total": float(service.queue.rejected_total),
        "network_estimate": snapshot.network_estimate,
    }
    notes = [
        f"soak: {num_reports} reports in chunks of {spec.submit_chunk}, "
        f"batch={spec.batch_size}, watermark={spec.high_watermark}",
        "every shed chunk was retried after a tick; final fold is batch-order independent",
    ]
    return dict(
        backend=service.backend,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        steps=sum(t.epoch_steps for t in ticks),
        push_messages=sum(t.push_messages for t in ticks),
        converged_fraction=ticks[-1].converged_fraction,
        metrics=metrics,
        notes=notes,
        timings={
            "ingest_reports_per_second": num_reports / ingest_elapsed if ingest_elapsed else 0.0,
            "query_per_second": spec.query_samples / query_elapsed if query_elapsed else 0.0,
        },
    )


def _run_algorithm(scenario, graph, config, backend, root, *, small):
    """Trust-global workload executed by a registered algorithm adapter.

    Builds the *same* world as :func:`_run_trust_global` (identical RNG
    draw order: trust matrix, then target sampling), then hands it to
    the scenario's pinned algorithm. ``steps``/``push_messages`` on the
    result carry the adapter's unified ``rounds``/``messages`` columns
    (each adapter's docstring states its counting rule). Only
    backend-routed algorithms resolve a backend; the others own their
    execution entirely and report ``"n/a"``.
    """
    algo = scenario.algorithm.build()
    trust = scenario.workload.build_trust(graph, _child(root))
    targets = draw_targets(_child(root), graph.num_nodes, scenario.workload.num_targets)
    resolved = _resolve_backend(backend, graph, config) if algo.uses_backend else "auto"
    outcome = algo.prepare(graph, trust, config, targets=targets, backend=resolved).run()
    metrics = {
        "num_targets": float(len(targets)),
        "accuracy_rms": outcome.rms_error,
        "max_abs_error": outcome.max_abs_error,
        "messages_per_node": outcome.messages_per_node,
    }
    notes = [
        f"algorithm '{outcome.algorithm}' via the registry adapter; "
        f"{scenario.workload.observations} trust observations",
        "steps/push_messages are the adapter's rounds/messages columns "
        "(counting rule in the adapter docstring)",
    ]
    return dict(
        backend=resolved if algo.uses_backend else "n/a",
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        steps=outcome.rounds,
        push_messages=outcome.messages,
        converged_fraction=float(outcome.converged),
        metrics=metrics,
        notes=notes,
    )


def _static_round(workload, *, num_channels: int = 1):
    """The runner for a workload gossiped in one static round.

    ``workload(scenario, graph, config, backend, root)`` runs the round
    on the resolved backend and returns its outcome, metrics and notes;
    ``"auto"`` resolves for ``num_channels`` channels of state.
    """

    def run(scenario, graph, config, backend, root, *, small):
        resolved = _resolve_backend(backend, graph, config, num_channels=num_channels)
        outcome, metrics, notes = workload(scenario, graph, config, resolved, root)
        return dict(
            backend=resolved,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            steps=outcome.steps,
            push_messages=outcome.push_messages,
            converged_fraction=float(np.mean(outcome.converged)),
            metrics=metrics,
            notes=notes,
        )

    return run


def _loss_probability(config: GossipConfig) -> float:
    """The uniform per-push loss of the run's network; 0.0 without a
    network, and for models whose loss depends on the edge."""
    uniform = config.network.uniform_loss_probability if config.network is not None else None
    return 0.0 if uniform is None else uniform


def _run_mean(scenario, graph, config, backend, root):
    """Uniform-gossip mean estimation (optionally under packet loss)."""
    values = _child(root).random(graph.num_nodes)
    truth = float(values.mean())
    outcome = aggregate(graph, values, config, backend=backend)
    errors = np.abs(outcome.estimates.reshape(-1) - truth)
    metrics = {
        "true_mean": truth,
        "max_abs_error": float(errors.max()),
        "mean_abs_error": float(errors.mean()),
        "loss_probability": _loss_probability(config),
    }
    notes = ["mass-conserving self-push repair keeps the estimate exact under packet loss"]
    if scenario.network is not None:
        notes.append(f"network conditions: {config.network!r}")
    return outcome, metrics, notes


def _run_trust_global(scenario, graph, config, backend, root):
    """Vector-global reputation aggregation over sampled targets."""
    trust = scenario.workload.build_trust(graph, _child(root))
    targets = draw_targets(_child(root), graph.num_nodes, scenario.workload.num_targets)
    outcome = aggregate(
        graph, trust, config, backend=backend, variant="vector-global", targets=targets
    )
    true_values = np.array([trust.column_mean_over_observers(t) for t in targets])
    scale = np.where(np.abs(true_values) > 0, np.abs(true_values), 1.0)
    rel = np.abs(outcome.estimates - true_values[None, :]) / scale[None, :]
    metrics = {
        "num_targets": float(len(targets)),
        "max_rel_error": float(rel.max()),
        "mean_rel_error": float(rel.mean()),
    }
    return outcome, metrics, [f"{scenario.workload.observations} trust observations"]


def _run_trust_gclr(scenario, graph, config, backend, root):
    """Full DGT under a registered attack (eq.-18 RMS error), clean vs dirty."""
    from repro.attacks.evaluate import _CleanRunCache, attack_impact
    from repro.attacks.models import CollusionModel, OnOffModel

    n = graph.num_nodes
    trust = scenario.workload.build_trust(graph, _child(root))
    model = scenario.attack.build(seed=int(root.integers(2**62)))
    target_rng = _child(root)
    targets = draw_targets(target_rng, n, scenario.workload.num_targets)
    targets = _steer_targets(targets, model, target_rng, n)
    impact_at = functools.partial(
        attack_impact, graph, trust, model, targets=targets, config=config, backend=backend,
        _clean_cache=_CleanRunCache(),
    )
    impact = impact_at()
    metrics = {
        "rms_gclr": impact.rms_gclr,
        "rms_unweighted": impact.rms_unweighted,
        "num_nodes_dirty": float(impact.num_nodes_dirty),
        "loss_probability": _loss_probability(config),
    }
    if isinstance(model, CollusionModel):
        metrics["num_colluders"] = float(model.attack_for(n).num_colluders)
    if isinstance(model, OnOffModel) and model.on_epochs < model.period:
        # The duty cycle's honest phase: with identical seeds the poison
        # vanishes entirely, so rms must collapse to ~0 — recorded so an
        # oscillating adversary's two faces sit side by side. The shared
        # cache reuses the on-phase clean run; only the (trivially
        # clean-identical) dirty side runs again, as the actual check.
        metrics["rms_gclr_off"] = impact_at(epoch=model.on_epochs).rms_gclr
    notes = [
        f"attack family '{model.name}' ({scenario.attack.kind}); "
        "identical seeds for clean/poisoned runs (gossip noise cancels)",
        f"{scenario.workload.observations} trust observations",
    ]
    return impact.clean_outcome, metrics, notes


def _run_dual_rank(scenario, graph, config, backend, root):
    """Golem-style dual rank: two trust channels gossiped in one V=2 pass."""
    n = graph.num_nodes
    # Two independent opinion worlds: how well peers compute for others,
    # and how well they delegate/pay — Golem's two reputation ranks.
    labels = ("computing", "delegating")
    channels = tuple(scenario.workload.build_trust(graph, _child(root)) for _ in labels)
    target_rng = _child(root)
    targets = draw_targets(target_rng, n, scenario.workload.num_targets)
    model = (
        scenario.attack.build(seed=int(root.integers(2**62)))
        if scenario.attack is not None
        else None
    )
    targets = _steer_targets(targets, model, target_rng, n)

    # Clean per-channel ground truth *before* the attack poisons reports.
    clean_truth = {
        label: np.array([ch.column_mean_over_observers(t) for t in targets])
        for label, ch in zip(labels, channels)
    }
    notes = [
        "computing + delegating ranks gossiped as 2 channels of one pass "
        "(every sampling draw shared)"
    ]
    if model is not None:
        if hasattr(model, "apply_channels"):
            channels, _ = model.apply_channels(channels, None, epoch=0)
        else:
            poisoned, _ = model.apply(channels[0], None, epoch=0)
            channels = (poisoned,) + channels[1:]
        notes.append(
            f"attack family '{model.name}' poisons one rank; the other channel's "
            "reports stay honest"
        )

    outcome = aggregate(
        graph, list(channels), config, backend=backend,
        variant="vector-global", targets=targets,
    )
    metrics = {
        "num_targets": float(len(targets)),
        "num_channels": float(outcome.num_channels),
    }
    for index, label in enumerate(labels):
        estimates = outcome.channel_estimates(index)
        # Gossip accuracy: against the channel's own (post-attack) truth.
        truth = np.array([channels[index].column_mean_over_observers(t) for t in targets])
        scale = np.where(np.abs(truth) > 0, np.abs(truth), 1.0)
        rel = np.abs(estimates - truth[None, :]) / scale[None, :]
        metrics[f"{label}_max_rel_error"] = float(rel.max())
        metrics[f"{label}_mean_rel_error"] = float(rel.mean())
        # Rank shift: how far the learned rank moved off the *clean*
        # truth — the slander-containment measure.
        clean = clean_truth[label]
        clean_scale = np.where(np.abs(clean) > 0, np.abs(clean), 1.0)
        shift = np.abs(estimates.mean(axis=0) - clean) / clean_scale
        metrics[f"{label}_rank_shift"] = float(shift.max())
    if model is not None:
        poisoned_index = int(getattr(model, "target_channel", 0))
        honest = [label for i, label in enumerate(labels) if i != poisoned_index]
        metrics["slander_shift_poisoned"] = metrics[f"{labels[poisoned_index]}_rank_shift"]
        metrics["slander_shift_contained"] = max(
            metrics[f"{label}_rank_shift"] for label in honest
        )
        notes.append(
            "containment: slander_shift_contained stays at gossip-noise level "
            "while slander_shift_poisoned carries the attack"
        )
    return outcome, metrics, notes


def _run_free_riding(scenario, graph, config, backend, root):
    """Free-riding detection: each node compares itself to the gossiped mean."""
    n = graph.num_nodes
    rng = _child(root)
    free_riders = rng.random(n) < scenario.workload.free_rider_fraction
    # Contribution scores: cooperative peers share generously, free
    # riders barely at all (the Section-3 rational-peer spectrum).
    scores = 0.55 + 0.45 * rng.random(n)
    scores[free_riders] = 0.15 * rng.random(int(free_riders.sum()))
    truth = float(scores.mean())
    outcome = aggregate(graph, scores, config, backend=backend)
    estimates = outcome.estimates.reshape(-1)
    # A node "starves" a requester whose contribution sits far below the
    # network mean it learned via gossip.
    flagged = scores < 0.5 * estimates
    detection = float(flagged[free_riders].mean()) if free_riders.any() else 0.0
    false_pos = float(flagged[~free_riders].mean()) if (~free_riders).any() else 0.0
    metrics = {
        "true_mean_contribution": truth,
        "max_abs_error": float(np.abs(estimates - truth).max()),
        "free_rider_fraction": float(free_riders.mean()),
        "detection_rate": detection,
        "false_positive_rate": false_pos,
    }
    notes = ["free riders flagged by their own locally gossiped mean-contribution estimate"]
    return outcome, metrics, notes


#: One runner per execution path (:func:`run_scenario` picks the key).
#: Each returns the :class:`ScenarioResult` fields that differ between
#: paths and keeps its own RNG draw order, on which the catalogue's
#: byte-identical output depends.
_RUNNERS = {
    "dynamic": _run_dynamic,
    "service": _run_service,
    "algorithm": _run_algorithm,
    "mean": _static_round(_run_mean),
    "trust-global": _static_round(_run_trust_global),
    "trust-gclr": _static_round(_run_trust_gclr),
    # Dual-rank gossips num_channels=2 state; "auto" must see that.
    "dual-rank": _static_round(_run_dual_rank, num_channels=2),
    "free-riding": _static_round(_run_free_riding),
}
