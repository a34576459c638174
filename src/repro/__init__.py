"""repro — Differential Gossip Trust for peer-to-peer networks.

A complete, self-contained reproduction of Gupta & Singh, *"Reputation
Aggregation in Peer-to-Peer Network Using Differential Gossip
Algorithm"*: the differential push gossip primitive, all four
aggregation variants, the power-law network substrate, trust estimation,
a composable adversary engine (collusion, whitewashing, slandering,
on–off oscillation, sybil floods — :mod:`repro.attacks`), churn,
comparison baselines behind a first-class algorithm registry
(:mod:`repro.algorithms` — see ``docs/tournament.md``), the full
experiment harness that regenerates
every table and figure of the paper's evaluation, and a long-running
reputation service with streaming ingest and versioned snapshots
(:mod:`repro.service` — see ``docs/service.md``).

Quickstart
----------
>>> from repro import (
...     preferential_attachment_graph, random_trust_matrix, aggregate_vector_gclr,
... )
>>> graph = preferential_attachment_graph(200, m=2, rng=1)
>>> trust = random_trust_matrix(graph, rng=2)
>>> result = aggregate_vector_gclr(graph, trust, targets=[0, 5, 9], rng=3)
>>> result.reputations.shape
(200, 3)
"""

from repro.core import (
    ConvergenceError,
    GossipConfig,
    GossipOutcome,
    MessageLevelGossip,
    SparseGossipEngine,
    WeightParams,
    aggregate_single_gclr,
    aggregate_single_global,
    aggregate_vector_gclr,
    aggregate_vector_global,
    available_backends,
    get_backend,
    push_counts,
    register_backend,
)
from repro.algorithms import (
    AlgorithmOutcome,
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.attacks import (
    AttackModel,
    attack_impact,
    available_attacks,
    make_attack,
    register_attack,
)
from repro.facade import aggregate
from repro.network import (
    Graph,
    MutableOverlay,
    PacketLossModel,
    example_network,
    preferential_attachment_graph,
)
from repro.runtime import ChurnTrace, DynamicRunResult, run_dynamic
from repro.service import (
    BackpressureError,
    ReportQueue,
    ReputationService,
    ReputationSnapshot,
    ServiceLoop,
    TrustReport,
    replay_trace,
)
from repro.trust import ReputationTable, TrustMatrix, random_trust_matrix

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "MutableOverlay",
    "ChurnTrace",
    "DynamicRunResult",
    "run_dynamic",
    "PacketLossModel",
    "preferential_attachment_graph",
    "example_network",
    "TrustMatrix",
    "random_trust_matrix",
    "ReputationTable",
    "WeightParams",
    "aggregate",
    "AlgorithmOutcome",
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
    "AttackModel",
    "attack_impact",
    "available_attacks",
    "make_attack",
    "register_attack",
    "GossipConfig",
    "available_backends",
    "get_backend",
    "register_backend",
    "aggregate_single_global",
    "aggregate_single_gclr",
    "aggregate_vector_global",
    "aggregate_vector_gclr",
    "SparseGossipEngine",
    "MessageLevelGossip",
    "GossipOutcome",
    "ConvergenceError",
    "push_counts",
    "BackpressureError",
    "ReportQueue",
    "ReputationService",
    "ReputationSnapshot",
    "ServiceLoop",
    "TrustReport",
    "replay_trace",
    "__version__",
]
