"""Comparison baselines.

The paper positions differential gossip against:

- **normal push gossip** (push-sum, Kempe et al. FOCS'03) — what Fig. 3
  and Table 2 compare step counts / message overhead with. It is
  differential gossip with ``k_i = 1`` for every node, so it runs as
  ``repro.aggregate(graph, values, GossipConfig(k=1, ...))`` and needs
  no module here;
- **push-pull gossip** — what Theorem 5.1's discussion says one would
  need on PA graphs if hubs could be identified;
- **GossipTrust** (Zhou, Hwang & Cai, TKDE'08) — the prior gossip-based
  reputation aggregator whose *global* (uncalibrated) estimates the
  collusion analysis (eqs. 8–12) models;
- **EigenTrust** (Kamvar et al., WWW'03) — the classic global reputation
  fixpoint, included as a related-work comparator;
- **Absolute Trust** (Awasthi & Singh, arXiv:1601.01419) — the
  self-weighted fixpoint without pre-trusted peers, with the
  convergence guard of arXiv:1603.00589;
- **flooding** — the deterministic full-dissemination strawman for
  message-overhead comparisons.

Every baseline is also wrapped as a registered
:mod:`repro.algorithms` adapter, so it plugs into the attack engine,
the scenario layer and the tournament leaderboard through one shared
protocol.
"""

from repro.baselines.absolute_trust import AbsoluteTrustResult, absolute_trust_fixpoint
from repro.baselines.eigentrust import EigenTrustResult, eigentrust_fixpoint
from repro.baselines.flooding import FloodResult, flood_spread
from repro.baselines.gossip_trust import (
    GossipTrustResult,
    gossip_trust_fixpoint,
    unweighted_global_estimate,
)
from repro.baselines.push_pull import push_pull_average

__all__ = [
    "push_pull_average",
    "gossip_trust_fixpoint",
    "GossipTrustResult",
    "unweighted_global_estimate",
    "eigentrust_fixpoint",
    "EigenTrustResult",
    "absolute_trust_fixpoint",
    "AbsoluteTrustResult",
    "flood_spread",
    "FloodResult",
]
