"""The file-sharing world: requests, reputation-gated service, learning.

This ties every substrate together into the system the paper describes
in Section 3:

1. peers issue download requests (Zipf-popular files, Poisson arrivals);
2. a request floods to bounded depth looking for a holder of the file;
3. the chosen provider looks up the requester's reputation — direct
   trust if they have history, the aggregated GCLR estimate otherwise —
   and allocates service quality accordingly (free riders starve);
4. the requester scores the transaction and updates its trust estimate
   of the provider;
5. periodically, the network runs a Differential-Gossip-Trust
   aggregation round, refreshing everyone's calibrated reputations;
6. whitewashers periodically shed their identity, testing the
   zero-initial-trust defence.

Everything is driven by the discrete-event scheduler, so request
interleavings, aggregation timing and whitewashing are all explicit in
simulated time and reproducible from one seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.attacks.whitewashing import WhitewashingModel
from repro.core.backend import GossipConfig
from repro.core.vector_gclr import aggregate_vector_gclr, true_vector_gclr
from repro.core.weights import WeightParams
from repro.network.graph import Graph
from repro.simulation.events import EventScheduler
from repro.simulation.peer import PeerProfile
from repro.simulation.workload import FileCatalog
from repro.trust.estimation import SuccessRatioEstimator, TransactionOutcome
from repro.trust.matrix import TrustMatrix
from repro.trust.reputation_table import ReputationTable
from repro.utils.rng import RngLike, as_generator, spawn_child
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the file-sharing world.

    Attributes
    ----------
    num_files:
        Catalogue size.
    zipf_exponent:
        Request-popularity skew.
    files_per_peer:
        Nominal library size of a fully sharing peer.
    query_ttl:
        Max overlay hops a lookup travels (Gnutella-style bounded flood).
    request_rate:
        Mean requests per peer per time unit (Poisson arrivals).
    aggregation_interval:
        Simulated time between reputation-aggregation rounds.
    horizon:
        Simulation end time.
    reputation_threshold:
        Reputation at which a requester earns full service; below it,
        service degrades linearly (Section 3: service "as per its
        contribution").
    newcomer_service_probability:
        Floor on the service-allocation factor so strangers can
        bootstrap (a pure zero floor plus zero initial trust would
        deadlock the whole network, paper Section 4.1.2's note on
        dynamically adjusting the initial value).
    gclr_params:
        Weighting constants for the aggregation rounds.
    aggregation_backend:
        ``None`` (default) computes each round's reputations as the
        exact eq.-6 fixpoint; a registered gossip backend name (or
        ``"auto"``) runs the actual differential gossip round through
        :func:`repro.aggregate` instead, so gossip noise reaches the
        service-allocation decisions.
    aggregation_xi:
        Gossip tolerance when ``aggregation_backend`` is set.
    """

    num_files: int = 200
    zipf_exponent: float = 0.9
    files_per_peer: float = 12.0
    query_ttl: int = 3
    request_rate: float = 1.0
    aggregation_interval: float = 25.0
    horizon: float = 100.0
    reputation_threshold: float = 0.4
    newcomer_service_probability: float = 0.15
    gclr_params: WeightParams = field(default_factory=WeightParams)
    aggregation_backend: Optional[str] = None
    aggregation_xi: float = 1e-4

    def __post_init__(self) -> None:
        check_positive(self.num_files, "num_files")
        check_positive(self.files_per_peer, "files_per_peer")
        check_positive(self.request_rate, "request_rate")
        check_positive(self.aggregation_interval, "aggregation_interval")
        check_positive(self.horizon, "horizon")
        check_probability(self.reputation_threshold, "reputation_threshold")
        check_probability(self.newcomer_service_probability, "newcomer_service_probability")
        check_positive(self.aggregation_xi, "aggregation_xi")
        if self.query_ttl < 1:
            raise ValueError(f"query_ttl must be >= 1, got {self.query_ttl}")
        if self.zipf_exponent < 0:
            raise ValueError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")


@dataclass
class PeerState:
    """Mutable per-peer simulation state."""

    peer_id: int
    profile: PeerProfile
    library: Set[int]
    table: ReputationTable
    requests_made: int = 0
    downloads_succeeded: int = 0
    lookup_failures: int = 0
    satisfaction_sum: float = 0.0
    uploads_served: int = 0
    uploads_declined: int = 0


@dataclass
class ProfileSummary:
    """Aggregated outcomes for one behaviour profile."""

    profile_name: str
    peers: int
    requests: int
    downloads: int
    lookup_failures: int
    mean_satisfaction: float
    uploads_served: int
    uploads_declined: int

    @property
    def download_success_rate(self) -> float:
        """Fraction of requests that ended in a served transfer."""
        return self.downloads / self.requests if self.requests else 0.0


@dataclass
class SimulationReport:
    """Final report of a simulation run.

    Attributes
    ----------
    by_profile:
        Summary per behaviour profile name.
    aggregation_rounds:
        Reputation-aggregation rounds executed.
    whitewash_events:
        Identity resets that occurred.
    transactions:
        Total service transactions attempted (served + declined).
    """

    by_profile: Dict[str, ProfileSummary]
    aggregation_rounds: int
    whitewash_events: int
    transactions: int

    def success_ratio(self, profile_a: str, profile_b: str) -> float:
        """Download-success ratio of profile A over profile B.

        The headline free-riding metric: with reputation enforcement,
        ``success_ratio('cooperative', 'free_rider')`` should be well
        above 1.
        """
        a = self.by_profile[profile_a].download_success_rate
        b = self.by_profile[profile_b].download_success_rate
        if b == 0.0:
            return float("inf") if a > 0 else 1.0
        return a / b


class FileSharingSimulation:
    """Reputation-managed P2P file-sharing simulation.

    Parameters
    ----------
    graph:
        Overlay topology (typically a PA graph).
    profiles:
        One :class:`PeerProfile` per node.
    config:
        World parameters.
    rng:
        Seed / generator; one seed reproduces the entire run.
    use_reputation:
        When False, providers ignore reputation entirely (the anarchy
        baseline that shows free riding paying off).

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> from repro.simulation.peer import cooperative_profile, free_rider_profile
    >>> g = preferential_attachment_graph(30, m=2, rng=0)
    >>> profiles = [free_rider_profile() if i % 5 == 0 else cooperative_profile()
    ...             for i in range(30)]
    >>> sim = FileSharingSimulation(g, profiles, SimulationConfig(horizon=20.0), rng=1)
    >>> report = sim.run()
    >>> report.transactions > 0
    True
    """

    def __init__(
        self,
        graph: Graph,
        profiles: Sequence[PeerProfile],
        config: SimulationConfig = SimulationConfig(),
        *,
        rng: RngLike = None,
        use_reputation: bool = True,
    ):
        if len(profiles) != graph.num_nodes:
            raise ValueError(
                f"need one profile per node: {graph.num_nodes} nodes, {len(profiles)} profiles"
            )
        self._graph = graph
        self._config = config
        self._use_reputation = use_reputation
        root = as_generator(rng)
        self._rng_workload = spawn_child(root, key=1)
        self._rng_service = spawn_child(root, key=2)
        self._rng_arrivals = spawn_child(root, key=3)
        self._rng_gossip = spawn_child(root, key=4)

        self._catalog = FileCatalog(config.num_files, zipf_exponent=config.zipf_exponent)
        sharing = np.array([p.sharing_fraction for p in profiles])
        libraries = self._catalog.place_files(
            graph.num_nodes,
            files_per_peer=config.files_per_peer,
            sharing_fraction=sharing,
            rng=self._rng_workload,
        )
        self._peers: List[PeerState] = [
            PeerState(
                peer_id=i,
                profile=profiles[i],
                library=set(libraries[i]),
                table=ReputationTable(i, estimator_factory=SuccessRatioEstimator),
            )
            for i in range(graph.num_nodes)
        ]
        self._scheduler = EventScheduler()
        self._whitewash = WhitewashingModel()
        self._reputation_matrix: Optional[np.ndarray] = None
        self._aggregation_rounds = 0
        self._transactions = 0

    # -- public API --------------------------------------------------------------

    @property
    def peers(self) -> Sequence[PeerState]:
        """Per-peer state (read-mostly; mutating it voids the warranty)."""
        return self._peers

    @property
    def reputation_matrix(self) -> Optional[np.ndarray]:
        """Latest aggregated ``Rep_I,j`` matrix (None before first round)."""
        return self._reputation_matrix

    def trust_matrix(self) -> TrustMatrix:
        """Snapshot of all direct-trust tables as one :class:`TrustMatrix`."""
        matrix = TrustMatrix(self._graph.num_nodes)
        for peer in self._peers:
            for target, value in peer.table.items():
                matrix.set(peer.peer_id, target, value)
        return matrix

    def run(self) -> SimulationReport:
        """Execute the simulation to the horizon and summarise."""
        config = self._config
        for peer in self._peers:
            self._schedule_next_request(peer.peer_id)
            if peer.profile.whitewash_interval is not None:
                self._scheduler.schedule(
                    peer.profile.whitewash_interval,
                    self._make_whitewash_event(peer.peer_id),
                )
        aggregation_time = config.aggregation_interval
        while aggregation_time <= config.horizon:
            self._scheduler.schedule(aggregation_time, self._aggregation_event)
            aggregation_time += config.aggregation_interval

        self._scheduler.run(until=config.horizon)
        return self._build_report()

    # -- event construction ---------------------------------------------------------

    def _schedule_next_request(self, peer_id: int) -> None:
        delay = float(self._rng_arrivals.exponential(1.0 / self._config.request_rate))
        next_time = self._scheduler.now + delay
        if next_time <= self._config.horizon:
            self._scheduler.schedule(next_time, self._make_request_event(peer_id))

    def _make_request_event(self, peer_id: int):
        def fire(_scheduler: EventScheduler) -> None:
            self._handle_request(peer_id)
            self._schedule_next_request(peer_id)

        return fire

    def _make_whitewash_event(self, peer_id: int):
        def fire(scheduler: EventScheduler) -> None:
            self._handle_whitewash(peer_id)
            interval = self._peers[peer_id].profile.whitewash_interval
            next_time = scheduler.now + interval
            if next_time <= self._config.horizon:
                scheduler.schedule(next_time, self._make_whitewash_event(peer_id))

        return fire

    # -- request handling -------------------------------------------------------------

    def _handle_request(self, requester_id: int) -> None:
        requester = self._peers[requester_id]
        requester.requests_made += 1
        file_id = self._catalog.sample_request(self._rng_workload)
        if file_id in requester.library:
            # Already held; counts as a trivially satisfied request.
            requester.downloads_succeeded += 1
            requester.satisfaction_sum += 1.0
            return
        provider_id = self._locate_provider(requester_id, file_id)
        if provider_id is None:
            requester.lookup_failures += 1
            return
        self._transact(requester_id, provider_id, file_id)

    def _locate_provider(self, requester_id: int, file_id: int) -> Optional[int]:
        """Bounded BFS for the nearest holder of ``file_id`` (random tie-break)."""
        graph = self._graph
        ttl = self._config.query_ttl
        visited = {requester_id}
        frontier = deque([(requester_id, 0)])
        candidates: List[int] = []
        candidate_depth: Optional[int] = None
        while frontier:
            node, depth = frontier.popleft()
            if candidate_depth is not None and depth >= candidate_depth:
                break
            if depth >= ttl:
                continue
            for neighbor in graph.neighbors(node):
                neighbor = int(neighbor)
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                if file_id in self._peers[neighbor].library:
                    candidates.append(neighbor)
                    candidate_depth = depth + 1
                frontier.append((neighbor, depth + 1))
        if not candidates:
            return None
        return int(candidates[int(self._rng_workload.integers(len(candidates)))])

    def _reputation_of(self, provider_id: int, requester_id: int) -> float:
        """What the provider believes about the requester (Section 3 lookup)."""
        provider = self._peers[provider_id]
        if provider.table.knows(requester_id):
            return provider.table.trust_of(requester_id)
        if self._reputation_matrix is not None:
            return float(self._reputation_matrix[provider_id, requester_id])
        return 0.0  # stranger before any aggregation: paper's initial value

    def _allocation_factor(self, reputation: float) -> float:
        """Service scaling: full at/above threshold, linear below, floored."""
        config = self._config
        factor = min(1.0, reputation / config.reputation_threshold) if config.reputation_threshold > 0 else 1.0
        return max(config.newcomer_service_probability, factor)

    def _transact(self, requester_id: int, provider_id: int, file_id: int) -> None:
        self._transactions += 1
        requester = self._peers[requester_id]
        provider = self._peers[provider_id]
        profile = provider.profile

        if self._use_reputation:
            factor = self._allocation_factor(self._reputation_of(provider_id, requester_id))
        else:
            factor = 1.0
        p_serve = profile.serve_probability * factor

        if self._rng_service.random() < p_serve:
            # Served: satisfaction concentrates around the provider's quality.
            quality = profile.service_quality
            concentration = 10.0
            satisfaction = float(
                self._rng_service.beta(
                    1e-9 + quality * concentration,
                    1e-9 + (1.0 - quality) * concentration,
                )
            )
            requester.library.add(file_id)
            requester.downloads_succeeded += 1
            requester.satisfaction_sum += satisfaction
            provider.uploads_served += 1
            outcome = TransactionOutcome(satisfaction=min(1.0, max(0.0, satisfaction)))
        else:
            provider.uploads_declined += 1
            outcome = TransactionOutcome(satisfaction=0.0)
        requester.table.record_transaction(provider_id, outcome, now=self._scheduler.now)

    # -- aggregation & whitewashing -----------------------------------------------------

    def _aggregation_event(self, _scheduler: EventScheduler) -> None:
        """One Differential-Gossip-Trust round over current direct trust.

        By default the exact eq.-6 fixpoint is used rather than a full
        gossip simulation: the gossip engines are validated to converge
        to it (see tests), and the workload simulation only needs the
        result. With ``config.aggregation_backend`` set, the round runs
        real differential gossip on that backend instead.
        """
        trust = self.trust_matrix()
        if self._config.aggregation_backend is None:
            self._reputation_matrix = true_vector_gclr(
                self._graph,
                trust,
                targets=range(self._graph.num_nodes),
                params=self._config.gclr_params,
            )
        else:
            self._reputation_matrix = aggregate_vector_gclr(
                self._graph,
                trust,
                targets=range(self._graph.num_nodes),
                config=GossipConfig(
                    xi=self._config.aggregation_xi,
                    params=self._config.gclr_params,
                    rng=int(self._rng_gossip.integers(2**62)),
                ),
                backend=self._config.aggregation_backend,
            ).reputations
        self._aggregation_rounds += 1

    def _handle_whitewash(self, peer_id: int) -> None:
        for peer in self._peers:
            if peer.peer_id != peer_id:
                peer.table.forget(peer_id)
        if self._reputation_matrix is not None:
            self._reputation_matrix[:, peer_id] = 0.0
        self._whitewash.reset_counts[peer_id] = (
            self._whitewash.reset_counts.get(peer_id, 0) + 1
        )

    # -- reporting ------------------------------------------------------------------------

    def _build_report(self) -> SimulationReport:
        groups: Dict[str, List[PeerState]] = {}
        for peer in self._peers:
            groups.setdefault(peer.profile.name, []).append(peer)
        by_profile: Dict[str, ProfileSummary] = {}
        for name, members in groups.items():
            downloads = sum(p.downloads_succeeded for p in members)
            by_profile[name] = ProfileSummary(
                profile_name=name,
                peers=len(members),
                requests=sum(p.requests_made for p in members),
                downloads=downloads,
                lookup_failures=sum(p.lookup_failures for p in members),
                mean_satisfaction=(
                    sum(p.satisfaction_sum for p in members) / downloads if downloads else 0.0
                ),
                uploads_served=sum(p.uploads_served for p in members),
                uploads_declined=sum(p.uploads_declined for p in members),
            )
        return SimulationReport(
            by_profile=by_profile,
            aggregation_rounds=self._aggregation_rounds,
            whitewash_events=self._whitewash.total_resets(),
            transactions=self._transactions,
        )
