"""Differential Gossip Trust — the paper's core contribution.

Prefer the unified facade :func:`repro.aggregate`, which runs either
aggregation variant on any registered backend
(:mod:`repro.core.backend`); the two entry points below build their
state through it and add the exact values and eq.-6 reputations.

Public entry points (Section 4.1.2; the paper's single-target
Algorithms 1 and 2 are the one-column case, ``targets=[j]``):

- :func:`repro.core.vector_global.aggregate_vector_global` — Algorithm 1
  and its vector form (variant 3)
- :func:`repro.core.vector_gclr.aggregate_vector_gclr` — Algorithm 2
  and its vector form (variant 4)

Engines (reusable for custom initialisations and baselines). The two
step-synchronous engines run one round loop,
:meth:`repro.core.sparse_engine.SynchronousEngine.run`, and differ only
in the push step they plug into it, so both take every ``run`` option:

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
from repro.core.sparse_engine import SparseGossipEngine
from repro.core.state import UNDEFINED_RATIO, ratios
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
    "aggregate_vector_global",
    "aggregate_vector_gclr",
    "true_vector_gclr",
    "VectorGlobalResult",
    "VectorGclrResult",
    "SparseGossipEngine",
    "MessageLevelGossip",
    "GossipOutcome",
    "ConvergenceProtocol",
    "ConvergenceError",
    "GossipError",
    "MassConservationError",
    "WeightParams",
    "AdaptiveWeightPolicy",
    "AsyncGossipEngine",
    "AsyncGossipOutcome",
    "collusion_damping_factor",
    "push_counts",
    "push_ratio",
    "fixed_push_counts",
    "ratios",
    "UNDEFINED_RATIO",
]
