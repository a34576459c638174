"""Network conditions: link models — loss, latency, regions, partitions.

The paper models the network as perfect pipes and churn as a Bernoulli
per-push loss (Section 5.3, Figure 4). Real overlays run over WAN links
with heterogeneous latency, lossy last miles, regional clustering and
occasional partitions that heal. This module is the single home for all
of that *network realism*, factored out of the engines:

- :class:`PacketLossModel` — the paper's mass-conserving per-push loss,
  the form a synchronous engine applies;
- :class:`LatencySpec` — a seeded one-dimensional delay distribution
  (constant / uniform / exponential / lognormal);
- :class:`LinkModel` — what ``GossipConfig(network=...)`` takes: the
  one way to ask a gossip round for packet loss, and the one network
  model. ``LinkModel(p)`` is the paper's churn model (zero latency,
  uniform loss); ``latency=`` adds a per-push delay; ``regions=k``
  splits the peers into contiguous blocks with their own cross-region
  loss, latency and bandwidth cap, an optional flaky region, and
  scheduled :class:`PartitionWindow`\\ s that drop cross-region
  traffic until they heal. It has two faces:
  :attr:`LinkModel.uniform_loss_probability` lets the *synchronous*
  engines run a loss-only model on their vectorised
  :class:`PacketLossModel` path, and :meth:`LinkModel.bind` produces a
  per-run :class:`BoundLink` whose :meth:`BoundLink.transfer` the
  *event-driven* engine consults per push (drop? how much delay?);
- :class:`EpochPartition` — the epoch-indexed partition schedule the
  dynamic runtime (:mod:`repro.runtime.dynamics`) replays through
  :class:`repro.network.mutable.MutableOverlay`.

Determinism contract
--------------------
A link model instance is pure configuration; all randomness enters at
:meth:`LinkModel.bind` through an explicit generator. The backend layer
derives that generator *statelessly* from the run's seed via the
``LOSS_STREAM_KEY`` child (the stream a synchronous engine's
:class:`PacketLossModel` draws from), so link randomness never perturbs
an engine's target-selection stream — a lossless zero-latency run draws
the exact byte sequence of a run with no link model at all. Per
transfer, a partition drop draws nothing; otherwise the bound link
draws the loss Bernoulli and samples latency only for delivered pushes.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_probability

__all__ = [
    "PacketLossModel",
    "LatencySpec",
    "INSTANT",
    "BoundLink",
    "LinkModel",
    "PartitionWindow",
    "EpochPartition",
    "block_regions",
]


class PacketLossModel:
    """Bernoulli per-push loss with mass-conserving self-redirect.

    P2P overlays run above TCP, so in the paper's model a push is only
    lost when the receiving peer has *left* the network (churn). The
    sender then gets no acknowledgement and — to keep the gossip mass
    conserved — pushes the pair to itself instead (Section 5.3,
    Figure 4).

    Parameters
    ----------
    loss_probability:
        Probability that any single push is lost (its receiver has
        churned away). ``0.0`` disables the model.
    rng:
        Seed / generator for the loss draws.

    Examples
    --------
    >>> model = PacketLossModel(1.0, rng=0)  # every push lost
    >>> senders = np.array([0, 1, 2])
    >>> targets = np.array([1, 2, 0])
    >>> model.apply(senders, targets).tolist()  # all redirected to self
    [0, 1, 2]
    """

    __slots__ = ("_loss_probability", "_rng", "_lost_count", "_delivered_count")

    def __init__(self, loss_probability: float, *, rng: RngLike = None):
        check_probability(loss_probability, "loss_probability")
        self._loss_probability = float(loss_probability)
        self._rng = as_generator(rng)
        self._lost_count = 0
        self._delivered_count = 0

    @property
    def loss_probability(self) -> float:
        """Configured per-push loss probability."""
        return self._loss_probability

    @property
    def lost_count(self) -> int:
        """Total pushes redirected to self so far."""
        return self._lost_count

    @property
    def delivered_count(self) -> int:
        """Total pushes delivered to their intended target so far."""
        return self._delivered_count

    def apply(self, senders: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Rewrite lost pushes to their senders.

        Parameters
        ----------
        senders:
            Node id of the sender of each push.
        targets:
            Intended receiver of each push; same shape as ``senders``.

        Returns
        -------
        numpy.ndarray
            Effective receivers: ``targets`` where delivered, ``senders``
            where lost. The input arrays are not modified.
        """
        senders = np.asarray(senders)
        targets = np.asarray(targets)
        if senders.shape != targets.shape:
            raise ValueError(
                f"senders shape {senders.shape} != targets shape {targets.shape}"
            )
        if self._loss_probability == 0.0 or targets.size == 0:
            self._delivered_count += int(targets.size)
            return targets.copy()
        lost = self._rng.random(targets.shape) < self._loss_probability
        self._lost_count += int(lost.sum())
        self._delivered_count += int(targets.size - lost.sum())
        return np.where(lost, senders, targets)

    def reset_counters(self) -> None:
        """Zero the delivered/lost counters (configuration is kept)."""
        self._lost_count = 0
        self._delivered_count = 0


#: LatencySpec sampling families.
LATENCY_KINDS = ("constant", "uniform", "exponential", "lognormal")


@dataclass(frozen=True)
class LatencySpec:
    """A seeded one-way delay distribution, in simulated-time units.

    One simulated-time unit is the mean tick interval of a rate-1 node
    in the async engine, so ``mean=1.0`` means "a push is in flight for
    about as long as a node waits between pushes".

    Parameters
    ----------
    kind:
        ``"constant"`` (exactly ``mean``, draws no randomness),
        ``"uniform"`` (``U(mean - spread, mean + spread)``),
        ``"exponential"`` (mean ``mean``; ``spread`` ignored), or
        ``"lognormal"`` (mean ``mean``, log-space sigma ``spread``).
    mean:
        Mean delay; ``0.0`` with kind ``"constant"`` is the instant
        link.
    spread:
        Half-width (uniform) or log-sigma (lognormal); must keep
        uniform delays non-negative (``spread <= mean``).

    Examples
    --------
    >>> spec = LatencySpec("uniform", mean=2.0, spread=1.0)
    >>> rng = np.random.default_rng(0)
    >>> 1.0 <= spec.sample(rng) <= 3.0
    True
    >>> LatencySpec().is_instant
    True
    """

    kind: str = "constant"
    mean: float = 0.0
    spread: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in LATENCY_KINDS:
            raise ValueError(f"latency kind must be one of {LATENCY_KINDS}, got {self.kind!r}")
        if self.mean < 0:
            raise ValueError(f"latency mean must be >= 0, got {self.mean}")
        if self.spread < 0:
            raise ValueError(f"latency spread must be >= 0, got {self.spread}")
        if self.kind == "uniform" and self.spread > self.mean:
            raise ValueError(
                f"uniform latency needs spread <= mean to stay non-negative, "
                f"got spread={self.spread} > mean={self.mean}"
            )

    @property
    def is_instant(self) -> bool:
        """True when every sample is exactly zero."""
        if self.kind in ("constant", "exponential"):
            return self.mean == 0.0
        if self.kind == "uniform":
            return self.mean == 0.0 and self.spread == 0.0
        return self.mean == 0.0  # lognormal: mean 0 scales every sample to 0

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one delay. ``"constant"`` consumes no randomness."""
        if self.kind == "constant":
            return self.mean
        if self.kind == "uniform":
            return float(rng.uniform(self.mean - self.spread, self.mean + self.spread))
        if self.kind == "exponential":
            return float(rng.exponential(self.mean)) if self.mean > 0 else 0.0
        # lognormal with exact mean: E[exp(N(mu, s))] = exp(mu + s^2/2).
        if self.mean == 0.0:
            return 0.0
        mu = float(np.log(self.mean)) - 0.5 * self.spread * self.spread
        return float(rng.lognormal(mu, self.spread))


#: The zero-delay latency spec (constant 0 — draws no randomness).
INSTANT = LatencySpec()


def block_regions(num_nodes: int, num_regions: int) -> np.ndarray:
    """Contiguous-block region assignment: node ``i`` belongs to region
    ``i * k // n``.

    Shared by :func:`repro.network.random_graphs.regional_graph` and
    :class:`LinkModel`, so a regional topology and a link model with the
    same number of regions always agree on who lives where.

    Examples
    --------
    >>> block_regions(6, 2).tolist()
    [0, 0, 0, 1, 1, 1]
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if not 1 <= num_regions <= num_nodes:
        raise ValueError(
            f"num_regions must be in 1..num_nodes ({num_nodes}), got {num_regions}"
        )
    return (np.arange(num_nodes, dtype=np.int64) * num_regions) // num_nodes


class _Bandwidth:
    """Per-directed-edge FIFO queueing under a messages-per-time cap.

    A link transmits one push per ``1 / bandwidth`` time units; a push
    arriving while the link is busy waits for the queue to drain. The
    next-free times are per ``(sender, target)`` pair, so reverse
    traffic does not contend (full-duplex links).
    """

    __slots__ = ("_service_time", "_next_free")

    def __init__(self, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._service_time = 1.0 / float(bandwidth)
        self._next_free: Dict[Tuple[int, int], float] = {}

    def queueing_delay(self, now: float, sender: int, target: int) -> float:
        """Wait-plus-transmit time for one push entering the link now."""
        key = (sender, target)
        start = max(now, self._next_free.get(key, 0.0))
        depart = start + self._service_time
        self._next_free[key] = depart
        return depart - now


@dataclass(frozen=True)
class PartitionWindow:
    """A scheduled partition in simulated time: from ``start`` until
    ``start + duration``, pushes crossing region groups are dropped
    (with the usual mass-conserving self-redirect); afterwards the
    network heals and cross-region traffic flows again.

    Examples
    --------
    >>> window = PartitionWindow(start=5.0, duration=10.0)
    >>> window.active(4.9), window.active(5.0), window.active(15.0)
    (False, True, False)
    """

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"partition start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"partition duration must be positive, got {self.duration}")

    @property
    def end(self) -> float:
        """First instant after the heal."""
        return self.start + self.duration

    def active(self, now: float) -> bool:
        """Whether the partition is in force at ``now``."""
        return self.start <= now < self.end


@dataclass(frozen=True)
class LinkModel:
    """Network conditions for every push: loss, latency and regions.

    ``GossipConfig(network=...)`` takes a link model; it is the one way
    to ask a gossip round for packet loss. ``LinkModel(p)`` is the
    paper's churn model: each push is lost with probability ``p`` and
    the sender keeps the pair (Section 5.3, Figure 4). On the
    synchronous backends a loss-only model runs as
    ``PacketLossModel(p, rng=config.link_stream())``; the event-driven
    backend binds it per run (:meth:`bind`) to the same stream and asks
    the bound link about each push. ``LinkModel(0.0)`` consumes no
    randomness and delivers everything inline, so an async run under
    it is byte-identical to one without a link model.

    Parameters
    ----------
    loss:
        Per-push loss probability (within a region when ``regions > 1``).
    latency:
        Delay distribution (within a region when ``regions > 1``).
    regions:
        Number of contiguous-block regions (:func:`block_regions`,
        which :func:`repro.network.random_graphs.regional_graph` shares).
        The settings below describe cross-region traffic, so they need
        ``regions >= 2``.
    inter_loss, inter_latency:
        Per-push loss probability and delay distribution across regions.
    inter_bandwidth:
        Optional messages-per-time cap on each directed cross-region
        link (FIFO queueing; intra-region links are uncapped).
    flaky_region:
        Optional region index whose links (either endpoint) lose pushes
        with at least ``flaky_loss`` probability.
    flaky_loss:
        Loss floor applied to the flaky region's links.
    partitions:
        :class:`PartitionWindow` schedule; while a window is active,
        cross-region pushes are dropped deterministically.

    Examples
    --------
    >>> link = LinkModel(0.25)
    >>> link.has_latency, link.uniform_loss_probability
    (False, 0.25)
    >>> LinkModel(0.0).bind(None, 0).transfer(0.0, 1, 2)  # deliver inline
    (False, 0.0)
    >>> wan = LinkModel(regions=2, inter_latency=LatencySpec("constant", mean=1.0))
    >>> bound = wan.bind(4, rng=0)  # 4 nodes -> regions [0, 0, 1, 1]
    >>> bound.transfer(0.0, 0, 1), bound.transfer(0.0, 1, 2)
    ((False, 0.0), (False, 1.0))
    """

    loss: float = 0.0
    _: KW_ONLY
    latency: LatencySpec = INSTANT
    regions: int = 1
    inter_loss: float = 0.0
    inter_latency: LatencySpec = INSTANT
    inter_bandwidth: Optional[float] = None
    flaky_region: Optional[int] = None
    flaky_loss: float = 0.0
    partitions: Tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        check_probability(self.loss, "loss")
        check_probability(self.inter_loss, "inter_loss")
        check_probability(self.flaky_loss, "flaky_loss")
        if self.regions < 1:
            raise ValueError(f"regions must be >= 1, got {self.regions}")
        if self.inter_bandwidth is not None and self.inter_bandwidth <= 0:
            raise ValueError(f"inter_bandwidth must be positive, got {self.inter_bandwidth}")
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if self.regions == 1 and (
            self.inter_loss
            or not self.inter_latency.is_instant
            or self.inter_bandwidth is not None
            or self.flaky_region is not None
            or self.partitions
        ):
            raise ValueError(
                "inter_loss, inter_latency, inter_bandwidth, flaky_region and "
                "partitions describe cross-region traffic; they need regions >= 2"
            )
        if self.flaky_region is not None and not 0 <= self.flaky_region < self.regions:
            raise ValueError(
                f"flaky_region must be in 0..{self.regions - 1}, got {self.flaky_region}"
            )
        if self.flaky_region is not None and self.flaky_loss == 0.0:
            raise ValueError("flaky_region set but flaky_loss is 0 (a no-op flake)")

    @property
    def has_latency(self) -> bool:
        """True when the model needs the event-driven engine: non-zero
        delays, bandwidth queueing, or partition windows (time-dependent
        behaviour a synchronous round schedule cannot express).
        Synchronous backends raise ``BackendCapabilityError`` for such
        models."""
        return (
            not self.latency.is_instant
            or not self.inter_latency.is_instant
            or self.inter_bandwidth is not None
            or bool(self.partitions)
        )

    @property
    def uniform_loss_probability(self) -> Optional[float]:
        """The single edge-independent loss probability, or ``None`` when
        loss depends on the edge (cross-region or flaky loss, partitions)."""
        if self.regions == 1 or (
            self.loss == self.inter_loss and self.flaky_region is None and not self.partitions
        ):
            return self.loss
        return None

    def bind(self, graph, rng: RngLike) -> "BoundLink":
        """Bind to ``graph`` (or a node count; unused with one region)
        for one run, drawing link randomness from ``rng`` (a dedicated
        stream — never the engine's)."""
        regions = None
        if self.regions > 1:
            n = graph if isinstance(graph, (int, np.integer)) else graph.num_nodes
            regions = block_regions(int(n), self.regions)
        return BoundLink(self, regions, rng)

    def __repr__(self) -> str:
        changed = [
            f"{spec.name}={getattr(self, spec.name)!r}"
            for spec in fields(self)
            if getattr(self, spec.name) != spec.default
        ]
        return f"LinkModel({', '.join(changed)})"


class BoundLink:
    """A link model bound to one graph and one generator for one run.

    The event-driven engine consults :meth:`transfer` once per push; the
    bound link owns the link randomness (never the engine's
    target-selection stream) and keeps delivery statistics.
    """

    __slots__ = (
        "_model", "_regions", "_rng", "_bandwidth",
        "dropped_count", "delivered_count", "partition_dropped_count",
    )

    def __init__(self, model: LinkModel, regions: Optional[np.ndarray], rng: RngLike):
        self._model = model
        self._regions = regions
        self._rng = as_generator(rng)
        self._bandwidth = (
            _Bandwidth(model.inter_bandwidth) if model.inter_bandwidth is not None else None
        )
        #: Pushes dropped (self-redirected) by loss, flakiness or a partition.
        self.dropped_count = 0
        #: Pushes handed to the network for delivery.
        self.delivered_count = 0
        #: Dropped pushes attributable to an active partition window.
        self.partition_dropped_count = 0

    @property
    def quiet_horizon(self) -> float:
        """Earliest simulated time at which link behaviour is time-invariant.

        While a partition window is active the network can be xi-quiet —
        islands converge internally, cross-region pushes are dropped
        without moving any estimate — even though islands disagree. The
        engine therefore refuses to declare convergence before this
        horizon (the end of the last scheduled partition window; ``0.0``
        without partitions)."""
        return max((window.end for window in self._model.partitions), default=0.0)

    def transfer(self, now: float, sender: int, target: int) -> Tuple[bool, float]:
        """Fate of one push at simulated time ``now``.

        Returns ``(dropped, delay)``: ``dropped`` means the push never
        leaves the sender (mass-conserving self-redirect), otherwise it
        arrives at ``target`` after ``delay`` simulated-time units
        (``0.0`` = instant, delivered inline). A partition drop draws no
        randomness; then comes the loss draw, and latency is sampled
        only for delivered pushes.
        """
        model = self._model
        loss, latency, cross = model.loss, model.latency, False
        if self._regions is not None:
            ru = int(self._regions[sender])
            rv = int(self._regions[target])
            cross = ru != rv
            if cross:
                if any(window.active(now) for window in model.partitions):
                    self.dropped_count += 1
                    self.partition_dropped_count += 1
                    return True, 0.0
                loss, latency = model.inter_loss, model.inter_latency
            if model.flaky_region in (ru, rv):
                loss = max(loss, model.flaky_loss)
        if loss > 0.0 and self._rng.random() < loss:
            self.dropped_count += 1
            return True, 0.0
        delay = latency.sample(self._rng)
        if cross and self._bandwidth is not None:
            delay += self._bandwidth.queueing_delay(now, sender, target)
        self.delivered_count += 1
        return False, delay


@dataclass(frozen=True)
class EpochPartition:
    """An epoch-indexed partition schedule for the dynamic runtime.

    The static async engine partitions in *simulated time* via
    :class:`PartitionWindow`; a dynamic run partitions in *epochs*: at
    ``start_epoch`` the runtime cuts every overlay edge crossing peer-id
    groups (re-cutting each active epoch, since joins may re-wire
    across), and at ``heal_epoch`` it re-adds the surviving cut edges.
    Groups are ``peer_id % num_groups`` — peer ids are unbounded under
    churn, so a modulo assignment (unlike contiguous blocks) stays
    meaningful as identities come and go.

    Examples
    --------
    >>> schedule = EpochPartition(start_epoch=2, heal_epoch=4)
    >>> [schedule.active(e) for e in range(5)]
    [False, False, True, True, False]
    >>> schedule.group(7)
    1
    """

    start_epoch: int
    heal_epoch: int
    num_groups: int = 2

    def __post_init__(self) -> None:
        if self.start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {self.start_epoch}")
        if self.heal_epoch <= self.start_epoch:
            raise ValueError(
                f"heal_epoch ({self.heal_epoch}) must be > start_epoch ({self.start_epoch})"
            )
        if self.num_groups < 2:
            raise ValueError(f"num_groups must be >= 2, got {self.num_groups}")

    def active(self, epoch: int) -> bool:
        """Whether the partition is in force during ``epoch``."""
        return self.start_epoch <= epoch < self.heal_epoch

    def group(self, peer_id: int) -> int:
        """Partition group of ``peer_id`` (``peer_id % num_groups``)."""
        return int(peer_id) % self.num_groups
