"""Unified gossip backend registry.

The repro grew several engines that all execute the paper's differential
push rule at different fidelity/scale trade-offs — the protocol-faithful
message simulation, the vectorised CSR sparse engine and the
event-driven asynchronous engine. Before this module, every caller
hard-coded one of them; scaling an experiment onto a faster engine meant
hand-porting it. This module makes the engine a *named backend* behind
one protocol:

- :class:`GossipConfig` captures every shared knob of a gossip round
  (push counts ``k_i``, GCLR weighting constants, the Δ re-push
  threshold, the convergence criterion, randomness, packet loss);
- :class:`GossipBackend` is the protocol all engines are adapted to:
  ``run(graph, values, weights, extras=..., config=...) ->``
  :class:`repro.core.results.GossipOutcome`;
- :func:`register_backend` / :func:`get_backend` /
  :func:`available_backends` manage the registry ("message", "sparse"
  and "async" ship built-in; "csr", "dense" and "vector" are aliases of
  "sparse");
- :func:`choose_backend_name` implements the ``"auto"`` policy — async
  for latency-bearing networks, message for tiny worlds, sparse for
  everything else;
- :func:`run_backend` is the engine-level entry the
  :func:`repro.aggregate` facade, the variant entry points and the
  dynamic-network runtime (:mod:`repro.runtime`, which chains
  fixed-budget calls via ``supports_run_to_max`` backends) share.

Backends differ only in *how* they execute the update rule; identical
configs converge to identical fixpoints (the cross-backend equivalence
suite pins agreement to 1e-8), while the random streams — and therefore
step-by-step trajectories — are backend-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.core.differential import fixed_push_counts
from repro.core.errors import GossipError
from repro.core.results import GossipOutcome
from repro.core.weights import WeightParams
from repro.network.conditions import InstantLink, LinkModel, PacketLossModel
from repro.network.graph import Graph
from repro.utils.rng import RngLike, spawn_child, stateless_child_sequence

#: Spawn key of the loss-model stream derived by GossipConfig.materialize.
#: Deliberately far above any realistic spawn_seed_sequences sweep index,
#: so churn streams never alias a sweep point's stream (see
#: repro.utils.rng.stateless_child_sequence).
LOSS_STREAM_KEY = 0xFFFF1055


class BackendCapabilityError(GossipError):
    """A backend was asked for a feature it does not implement."""


class UnknownBackendError(KeyError, ValueError):
    """An unregistered backend/engine name was requested.

    Inherits both ``KeyError`` (registry-lookup convention) and
    ``ValueError`` (what the pre-registry entry points raised for a bad
    ``engine=`` argument), so either handling style keeps working.
    """


@dataclass
class GossipConfig:
    """Every shared knob of one gossip aggregation round.

    One config object travels unchanged across backends, so a scenario
    or experiment can switch engines without re-plumbing parameters.
    Every backend gossips float64 state in a single process, and the
    sparse backend runs one push kernel (:mod:`repro.core.kernels`), so
    there is no precision, kernel or worker knob to set.

    Attributes
    ----------
    xi:
        Convergence tolerance (per-step estimate movement bound).
    k:
        Fixed per-node push count; ``None`` (default) selects the
        paper's differential rule, ``1`` reproduces normal push gossip.
        Mutually exclusive with ``push_counts``. Caveat: with a small
        fixed ``k`` the per-node xi-movement stop can fire prematurely —
        a node receiving no pushes for ``patience`` steps sees zero
        movement and announces while mixing is still finishing, so
        normal-push estimates may end ~1e-6 off a tight-``xi`` fixpoint.
        That reception starvation is exactly what the differential
        rule's degree-scaled push counts prevent (Section 4.2).
    push_counts:
        Explicit per-node push-count array (ablations); overrides ``k``.
    params:
        GCLR weighting constants ``a``, ``b`` of eq. 2. Engines never
        read them; they are the defaults consumed by the config-aware
        layers — :func:`repro.attacks.evaluate.collusion_impact` and
        :class:`repro.core.rounds.GossipRoundManager` (via its
        ``config=`` argument). The variant entry points keep their own
        explicit ``params=`` keyword.
    delta:
        Algorithm 2's Δ re-push threshold — an opinion is re-announced
        between rounds only when it moved more than this. Like
        ``params``, consumed by
        :class:`repro.core.rounds.GossipRoundManager` when constructed
        with ``config=``, not by single-round engines.
    loss_probability:
        Per-push packet-loss probability; when > 0 and no explicit
        ``loss_model`` is given, a mass-conserving
        :class:`repro.network.churn.PacketLossModel` is derived from
        ``rng``.
    loss_model:
        Explicit churn model (takes precedence over
        ``loss_probability``).
    network:
        Optional :class:`repro.network.conditions.LinkModel` — the
        network-conditions axis (per-edge loss, latency distributions,
        bandwidth caps, regions, partitions). Mutually exclusive with
        the legacy loss knobs. Loss-only models run on every backend
        via :meth:`materialize` (byte-identical to the equivalent
        ``loss_probability``); latency-bearing models need the
        event-driven ``"async"`` backend — synchronous backends raise
        :class:`BackendCapabilityError`, and :func:`choose_backend_name`
        steers such configs to ``"async"`` automatically.
    rng:
        Seed / generator for target selection (and the derived loss
        model, when ``loss_probability`` is used).
    max_steps:
        Safety budget before
        :class:`repro.core.errors.ConvergenceError` (interpreted as a
        simulated-time budget by the async backend).
    patience:
        Consecutive satisfied convergence checks before a node
        announces.
    warmup_steps:
        Steps before convergence checks count (``None`` = engine
        default ``ceil(log2 N) + 1``).
    track_history:
        Record per-step ratio snapshots in the outcome.
    run_to_max:
        Ignore the stop protocol and run exactly ``max_steps`` steps
        (fixed-budget diffusion studies and benchmarks).
    num_channels:
        Number of independent reputation channels ``V`` packed
        channel-major into the gossiped value columns (the column count
        must be a multiple of ``V``). All channels share one sampling
        draw and one scatter per step; convergence is judged per
        channel (see
        :class:`repro.core.convergence.ConvergenceProtocol`). The
        sparse backend supports any ``V``; the message and async
        backends are single-channel and raise
        :class:`BackendCapabilityError` for ``V > 1``. Default 1.

    Examples
    --------
    >>> config = GossipConfig(xi=1e-6, k=1, rng=7)
    >>> config.xi, config.k
    (1e-06, 1)
    >>> GossipConfig(xi=-1.0)
    Traceback (most recent call last):
        ...
    ValueError: xi must be positive, got -1.0
    """

    xi: float = 1e-4
    k: Optional[int] = None
    push_counts: Optional[np.ndarray] = None
    params: WeightParams = field(default_factory=WeightParams)
    delta: float = 0.05
    loss_probability: float = 0.0
    loss_model: Optional[PacketLossModel] = None
    network: Optional[LinkModel] = None
    rng: RngLike = None
    max_steps: int = 10_000
    patience: int = 3
    warmup_steps: Optional[int] = None
    track_history: bool = False
    run_to_max: bool = False
    num_channels: int = 1

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {self.num_channels}")
        if self.xi <= 0:
            raise ValueError(f"xi must be positive, got {self.xi}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k is not None and self.push_counts is not None:
            raise ValueError("pass either k (uniform) or push_counts (per-node), not both")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(f"loss_probability must be in [0, 1], got {self.loss_probability}")
        if self.network is not None:
            if not isinstance(self.network, LinkModel):
                raise ValueError(
                    f"network must be a repro.network.conditions.LinkModel, "
                    f"got {type(self.network).__name__}"
                )
            if self.loss_probability != 0.0 or self.loss_model is not None:
                raise ValueError(
                    "pass either network= (a LinkModel) or the legacy loss knobs "
                    "(loss_probability / loss_model), not both"
                )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")

    def resolved_push_counts(self, graph: Graph) -> Optional[np.ndarray]:
        """Per-node push counts for ``graph``, or ``None`` for the
        differential default (engines then also announce degrees)."""
        if self.push_counts is not None:
            return np.asarray(self.push_counts, dtype=np.int64)
        if self.k is not None:
            return fixed_push_counts(graph, self.k)
        return None

    def link_stream(self) -> np.random.Generator:
        """The dedicated link/loss-randomness generator.

        Derived *statelessly* from the seed under ``LOSS_STREAM_KEY``
        (int / ``None`` / ``SeedSequence`` seeds), so link randomness
        never perturbs the engine's target-selection stream. Only when
        ``rng`` is an existing ``Generator`` — whose state cannot be
        re-derived — is a child split off, which advances the shared
        stream; call this *before* :meth:`main_stream` in that case and
        prefer seed-like ``rng`` values when comparing against a
        loss-free run.
        """
        if isinstance(self.rng, np.random.Generator):
            return spawn_child(self.rng, key=LOSS_STREAM_KEY)
        root = (
            self.rng
            if isinstance(self.rng, np.random.SeedSequence)
            else np.random.SeedSequence(self.rng)
        )
        return np.random.default_rng(stateless_child_sequence(root, LOSS_STREAM_KEY))

    def main_stream(self) -> np.random.Generator:
        """The engine's target-selection generator, resolved from ``rng``."""
        if isinstance(self.rng, np.random.Generator):
            return self.rng
        root = (
            self.rng
            if isinstance(self.rng, np.random.SeedSequence)
            else np.random.SeedSequence(self.rng)
        )
        return np.random.default_rng(root)

    def uniform_loss_probability(self) -> float:
        """The single per-push loss probability a synchronous backend runs.

        Resolves the ``network`` axis down to the classic uniform
        Bernoulli, or raises :class:`BackendCapabilityError` when the
        model needs the event-driven engine (latency, bandwidth,
        partitions, or per-edge loss).
        """
        if self.network is None:
            return self.loss_probability
        if self.network.has_latency:
            raise BackendCapabilityError(
                "step-synchronous backends cannot run latency-bearing network "
                "models (delays, bandwidth caps, partition windows); use the "
                "event-driven 'async' backend"
            )
        uniform = self.network.uniform_loss_probability
        if uniform is None:
            raise BackendCapabilityError(
                "step-synchronous backends apply one loss probability to every "
                "push; per-edge loss network models need the event-driven "
                "'async' backend"
            )
        return uniform

    def materialize(self) -> Tuple[np.random.Generator, Optional[PacketLossModel]]:
        """Resolve ``(generator, loss_model)`` for one engine run.

        The loss model derived from ``loss_probability`` — or from a
        loss-only ``network`` model, which resolves to the *same*
        :class:`PacketLossModel` over the same stream (byte-identity
        contract) — draws from the dedicated :meth:`link_stream`, so the
        engine's target-selection stream is identical to a loss-free run
        of the same seed. Latency-bearing network models raise
        :class:`BackendCapabilityError` here: a synchronous round
        schedule has no time axis to express them.
        """
        loss = self.loss_model
        probability = self.uniform_loss_probability()
        if loss is None and probability > 0.0:
            loss = PacketLossModel(probability, rng=self.link_stream())
        return self.main_stream(), loss


@runtime_checkable
class GossipBackend(Protocol):
    """What the registry stores: a named engine adapter."""

    name: str

    def run(
        self,
        graph: Graph,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        extras: Optional[Dict[str, np.ndarray]] = None,
        config: Optional[GossipConfig] = None,
    ) -> GossipOutcome:
        """Execute one gossip round under ``config``; return the outcome."""
        ...


class _SynchronousBackend:
    """Shared adapter for the step-synchronous engines.

    Subclasses provide ``name``, ``supports_run_to_max`` and
    ``_engine_class``; everything else — config materialisation, engine
    construction, run-kwarg plumbing — is identical across the message
    and sparse engines.
    """

    name: str = ""
    supports_run_to_max: bool = True
    supports_channels: bool = True
    _engine_class: Optional[Callable] = None

    def run(
        self,
        graph: Graph,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        extras: Optional[Dict[str, np.ndarray]] = None,
        config: Optional[GossipConfig] = None,
    ) -> GossipOutcome:
        config = config if config is not None else GossipConfig()
        rng, loss_model = config.materialize()
        engine = self._engine_class(
            graph,
            push_counts=config.resolved_push_counts(graph),
            loss_model=loss_model,
            rng=rng,
        )
        kwargs = dict(
            xi=config.xi,
            extras=extras,
            max_steps=config.max_steps,
            track_history=config.track_history,
            patience=config.patience,
            warmup_steps=config.warmup_steps,
        )
        if self.supports_run_to_max:
            kwargs["run_to_max"] = config.run_to_max
        elif config.run_to_max:
            raise BackendCapabilityError(
                f"backend {self.name!r} does not support run_to_max; use 'sparse'"
            )
        # The kwarg is only forwarded at V > 1 so single-channel runs
        # execute the exact historical call (byte-identity contract).
        if config.num_channels != 1:
            if not self.supports_channels:
                raise BackendCapabilityError(
                    f"backend {self.name!r} gossips a single reputation channel; "
                    "use 'sparse' for num_channels > 1"
                )
            kwargs["num_channels"] = config.num_channels
        return engine.run(values, weights, **kwargs)


class MessageBackend(_SynchronousBackend):
    """Protocol-faithful object simulation (mailboxes, announcements)."""

    name = "message"
    supports_run_to_max = False
    supports_channels = False

    @property
    def _engine_class(self):
        from repro.core.engine import MessageLevelGossip

        return MessageLevelGossip


class SparseBackend(_SynchronousBackend):
    """The vectorised CSR engine — every size past the message engine's."""

    name = "sparse"

    @property
    def _engine_class(self):
        from repro.core.sparse_engine import SparseGossipEngine

        return SparseGossipEngine


class AsyncBackend:
    """Event-driven engine on independent exponential clocks.

    Asynchronous gossip has no global steps, so the returned
    :class:`GossipOutcome` maps simulated time onto ``steps`` (rounded)
    and individual push events onto ``push_messages``. Only scalar
    (single-component) state is supported, and extras/history are
    synchronous-model features this backend rejects explicitly.

    This is the one backend that runs the full network-conditions axis:
    ``config.network`` link models with latency, bandwidth caps,
    regions and partition windows execute natively (a push becomes a
    *send* event that lands after its sampled delay), and the classic
    ``config.loss_probability`` runs as the equivalent zero-latency
    :class:`~repro.network.conditions.InstantLink`. The link's
    randomness draws from the same ``LOSS_STREAM_KEY`` child stream the
    synchronous loss path uses, so attaching a link model never
    perturbs target selection.
    """

    name = "async"

    def run(
        self,
        graph: Graph,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        extras: Optional[Dict[str, np.ndarray]] = None,
        config: Optional[GossipConfig] = None,
    ) -> GossipOutcome:
        from repro.core.async_engine import AsyncGossipEngine

        config = config if config is not None else GossipConfig()
        if extras:
            raise BackendCapabilityError("backend 'async' does not support extra components")
        if config.num_channels != 1:
            raise BackendCapabilityError(
                "backend 'async' gossips a single reputation channel; "
                "use 'sparse' for num_channels > 1"
            )
        if config.loss_model is not None:
            raise BackendCapabilityError(
                "backend 'async' models the network through link models; pass "
                "loss_probability or network= instead of an explicit loss_model"
            )
        if config.track_history or config.run_to_max:
            raise BackendCapabilityError(
                "backend 'async' does not support track_history/run_to_max"
            )
        # The async stop rule is a quiet window over simulated time, not
        # a per-step protocol — reject rather than silently ignore the
        # synchronous stopping knobs when they differ from the defaults.
        if config.patience != 3 or config.warmup_steps is not None:
            raise BackendCapabilityError(
                "backend 'async' uses a quiet-window stop rule; "
                "patience/warmup_steps do not apply"
            )
        link = config.network
        if link is None and config.loss_probability > 0.0:
            link = InstantLink(config.loss_probability)
        # Derive the link stream before touching the main stream: for
        # Generator rng the child split advances the parent (same order
        # materialize uses on the synchronous path).
        link_rng = config.link_stream() if link is not None else None
        rng = config.main_stream()
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 2:
            if values.shape[1] != 1:
                raise BackendCapabilityError(
                    "backend 'async' gossips scalar state only (one component)"
                )
            values = values.reshape(-1)
            weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        engine = AsyncGossipEngine(
            graph,
            push_counts=config.resolved_push_counts(graph),
            rng=rng,
            link=link,
            link_rng=link_rng,
        )
        out = engine.run(
            values, weights, xi=config.xi, max_time=float(config.max_steps)
        )
        n = graph.num_nodes
        return GossipOutcome(
            values=out.values.reshape(n, 1),
            weights=out.weights.reshape(n, 1),
            extras={},
            steps=int(round(out.simulated_time)),
            push_messages=out.total_pushes,
            protocol_messages=0,
            active_node_steps=out.total_pushes,
            converged=np.full(n, out.converged, dtype=bool),
        )


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, GossipBackend] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(
    name: str,
    backend: GossipBackend,
    *,
    aliases: Tuple[str, ...] = (),
    overwrite: bool = False,
) -> None:
    """Register ``backend`` under ``name`` (plus optional aliases).

    Third-party engines plug in here; after registration the backend is
    selectable everywhere a backend name is accepted — the
    :func:`repro.aggregate` facade, the variant entry points, scenarios
    and benchmarks.

    Examples
    --------
    >>> register_backend("demo", get_backend("sparse"), overwrite=True)
    >>> get_backend("demo") is get_backend("sparse")
    True
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if not overwrite:
        # Validate every name before mutating anything, so a conflict
        # never leaves a half-registered backend behind.
        if name in _REGISTRY or name in _ALIASES:
            raise ValueError(f"backend {name!r} is already registered (pass overwrite=True)")
        for alias in aliases:
            if alias in _REGISTRY or alias in _ALIASES:
                raise ValueError(f"backend alias {alias!r} is already registered")
    _REGISTRY[name] = backend
    for alias in aliases:
        _ALIASES[alias] = name


def resolve_backend_name(name: str) -> str:
    """Canonical registry name for ``name`` (resolving aliases)."""
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    catalogue = ", ".join(sorted(_REGISTRY) + sorted(_ALIASES))
    raise UnknownBackendError(
        f"unknown gossip backend/engine {name!r}; available: {catalogue}, auto"
    )


def get_backend(name: str) -> GossipBackend:
    """Look up a registered backend by name or alias.

    Examples
    --------
    >>> get_backend("dense") is get_backend("sparse")  # aliases resolve
    True
    """
    return _REGISTRY[resolve_backend_name(name)]


def available_backends() -> Tuple[str, ...]:
    """Canonical names of all registered backends, sorted.

    Examples
    --------
    >>> {"async", "message", "sparse"} <= set(available_backends())
    True
    """
    return tuple(sorted(_REGISTRY))


register_backend("message", MessageBackend())
register_backend("sparse", SparseBackend(), aliases=("csr", "dense", "vector"))
register_backend("async", AsyncBackend())


# -- auto selection ---------------------------------------------------------

#: ``"auto"`` runs the protocol-faithful message engine up to this size.
AUTO_MESSAGE_MAX_NODES = 64


def choose_backend_name(graph: Graph, config: Optional[GossipConfig] = None) -> str:
    """The ``"auto"`` policy: async, then message, then sparse.

    Configs whose ``network`` link model carries latency (delays,
    bandwidth caps or partition windows) can only run event-driven, so
    they go to the async engine. Tiny worlds get the protocol-faithful
    message engine (free fidelity at that scale) unless the config needs
    ``run_to_max`` or multi-channel state, which it does not support.
    Everything else runs on the CSR sparse engine: it outran the retired
    dense engine at every measured size, and on a 2-core host it also
    outran the retired multi-process sharded engine, even at a million
    nodes.
    """
    if config is not None and config.network is not None and config.network.has_latency:
        return "async"
    needs_vector_engine = config is not None and (
        config.run_to_max or config.num_channels != 1
    )
    if graph.num_nodes <= AUTO_MESSAGE_MAX_NODES and not needs_vector_engine:
        return "message"
    return "sparse"


def run_backend(
    graph: Graph,
    values: np.ndarray,
    weights: np.ndarray,
    *,
    extras: Optional[Dict[str, np.ndarray]] = None,
    config: Optional[GossipConfig] = None,
    backend: str = "auto",
) -> GossipOutcome:
    """Run one gossip round on a named (or auto-chosen) backend.

    This is the single engine-execution path shared by the
    :func:`repro.aggregate` facade, the four aggregation variants, the
    baselines and the benchmarks.
    """
    config = config if config is not None else GossipConfig()
    name = choose_backend_name(graph, config) if backend == "auto" else backend
    return get_backend(name).run(graph, values, weights, extras=extras, config=config)
