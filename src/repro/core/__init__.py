"""Differential Gossip Trust — the paper's core contribution.

Prefer the unified facade :func:`repro.aggregate`, which runs any
variant on any registered backend
(:mod:`repro.core.backend`); the per-variant entry points below remain
as typed wrappers over the same backend layer.

Public entry points (one per algorithm variant of Section 4.1.2):

- :func:`repro.core.single_global.aggregate_single_global` — Algorithm 1
- :func:`repro.core.single_gclr.aggregate_single_gclr` — Algorithm 2
- :func:`repro.core.vector_global.aggregate_vector_global` — variant 3
- :func:`repro.core.vector_gclr.aggregate_vector_gclr` — variant 4

Engines (reusable for custom initialisations and baselines):

- :class:`repro.core.sparse_engine.SparseGossipEngine` — the one
  vectorised CSR engine with preallocated buffers, from the paper's
  50 000-node sweeps to million-peer rounds;
- :class:`repro.core.engine.MessageLevelGossip` — protocol-faithful
  object simulation with mailboxes and announcements.
"""

from repro.core.adaptive_weights import AdaptiveWeightPolicy
from repro.core.async_engine import AsyncGossipEngine, AsyncGossipOutcome
from repro.core.backend import (
    BackendCapabilityError,
    GossipBackend,
    GossipConfig,
    UnknownBackendError,
    available_backends,
    choose_backend_name,
    get_backend,
    register_backend,
    run_backend,
)
from repro.core.convergence import ConvergenceProtocol
from repro.core.differential import fixed_push_counts, push_counts, push_ratio
from repro.core.engine import MessageLevelGossip
from repro.core.errors import ConvergenceError, GossipError, MassConservationError
from repro.core.results import GossipOutcome
from repro.core.rounds import GossipRoundManager, RoundRecord
from repro.core.single_gclr import SingleGclrResult, aggregate_single_gclr, true_single_gclr
from repro.core.single_global import (
    SingleGlobalResult,
    aggregate_single_global,
    true_single_global,
)
from repro.core.sparse_engine import SparseGossipEngine
from repro.core.state import UNDEFINED_RATIO, GossipPair, ratios
from repro.core.vector_gclr import VectorGclrResult, aggregate_vector_gclr, true_vector_gclr
from repro.core.vector_global import VectorGlobalResult, aggregate_vector_global
from repro.core.weights import WeightParams, collusion_damping_factor

__all__ = [
    "GossipBackend",
    "GossipConfig",
    "BackendCapabilityError",
    "UnknownBackendError",
    "available_backends",
    "choose_backend_name",
    "get_backend",
    "register_backend",
    "run_backend",
    "aggregate_single_global",
    "aggregate_single_gclr",
    "aggregate_vector_global",
    "aggregate_vector_gclr",
    "true_single_global",
    "true_single_gclr",
    "true_vector_gclr",
    "SingleGlobalResult",
    "SingleGclrResult",
    "VectorGlobalResult",
    "VectorGclrResult",
    "SparseGossipEngine",
    "MessageLevelGossip",
    "GossipOutcome",
    "GossipPair",
    "ConvergenceProtocol",
    "ConvergenceError",
    "GossipError",
    "MassConservationError",
    "WeightParams",
    "AdaptiveWeightPolicy",
    "AsyncGossipEngine",
    "AsyncGossipOutcome",
    "GossipRoundManager",
    "RoundRecord",
    "collusion_damping_factor",
    "push_counts",
    "push_ratio",
    "fixed_push_counts",
    "ratios",
    "UNDEFINED_RATIO",
]
