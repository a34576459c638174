"""Multi-round gossip management.

One gossip round yields one reputation snapshot; a live network runs
rounds repeatedly: *"After the end of a round, next round of gossip
will start after some time. The time difference between the two rounds
will depend upon the change in the behaviour of the nodes ... For
simplicity, this time difference has been taken as a constant. In
reality, this should be dynamically adjusted."* (Section 4.1.1.)

:class:`GossipRoundManager` implements both the constant-interval
schedule and the dynamic adjustment the paper defers: the inter-round
gap shrinks when the trust matrix is changing quickly (measured as the
fraction of opinions that moved more than the re-push threshold ``Δ``
since the last round) and grows when the network is quiet. It also
implements Algorithm 2's ``Δ`` re-push rule across rounds: only
feedback that changed materially is re-announced to neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.backend import GossipConfig
from repro.core.vector_gclr import VectorGclrResult, aggregate_vector_gclr
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive


@dataclass
class RoundRecord:
    """Bookkeeping for one executed round.

    Attributes
    ----------
    started_at:
        Simulated time the round began.
    changed_opinions:
        Opinions that moved more than ``delta`` since the previous round
        (and were therefore re-pushed to neighbours).
    total_opinions:
        Opinions in the snapshot.
    result:
        The aggregation output of this round.
    next_gap:
        The inter-round gap chosen after this round.
    """

    started_at: float
    changed_opinions: int
    total_opinions: int
    result: VectorGclrResult
    next_gap: float

    @property
    def churn_fraction(self) -> float:
        """Fraction of opinions that changed since the previous round."""
        if self.total_opinions == 0:
            return 0.0
        return self.changed_opinions / self.total_opinions


class GossipRoundManager:
    """Runs repeated DGT rounds with the Δ re-push rule and adaptive gaps.

    Parameters
    ----------
    graph:
        Topology (fixed across rounds).
    config:
        The round knobs, as a :class:`repro.core.backend.GossipConfig`:
        ``params`` (GCLR weighting constants), ``delta`` (Algorithm 2's
        re-push threshold — an opinion is re-announced only when it
        moved more than this since its last announcement), ``xi`` and
        ``rng`` (seed / generator handed to each round's gossip).
        Defaults to ``GossipConfig(xi=1e-5)``.
    base_gap:
        Inter-round gap when the network changes at the reference rate.
    min_gap, max_gap:
        Clamp for the adaptive gap.
    adaptive:
        ``False`` reproduces the paper's constant-gap simplification.
    backend:
        Gossip backend each round runs on (any registered name or
        ``"auto"``).

    Examples
    --------
    >>> from repro.network.preferential_attachment import preferential_attachment_graph
    >>> from repro.trust.matrix import random_trust_matrix
    >>> g = preferential_attachment_graph(40, m=2, rng=0)
    >>> manager = GossipRoundManager(g, config=GossipConfig(xi=1e-5, rng=1))
    >>> record = manager.run_round(random_trust_matrix(g, rng=2), targets=[1, 2])
    >>> record.total_opinions > 0
    True
    """

    def __init__(
        self,
        graph: Graph,
        *,
        config: Optional[GossipConfig] = None,
        base_gap: float = 25.0,
        min_gap: float = 5.0,
        max_gap: float = 100.0,
        adaptive: bool = True,
        backend: str = "auto",
    ):
        config = config if config is not None else GossipConfig(xi=1e-5)
        check_positive(base_gap, "base_gap")
        check_positive(min_gap, "min_gap")
        check_positive(max_gap, "max_gap")
        if not min_gap <= base_gap <= max_gap:
            raise ValueError(
                f"need min_gap <= base_gap <= max_gap, got {min_gap}, {base_gap}, {max_gap}"
            )
        self._graph = graph
        self._params = config.params
        self._delta = float(config.delta)
        self._base_gap = float(base_gap)
        self._min_gap = float(min_gap)
        self._max_gap = float(max_gap)
        self._adaptive = bool(adaptive)
        self._xi = float(config.xi)
        self._backend = backend
        self._rng = as_generator(config.rng)
        self._published: Dict[tuple, float] = {}
        self._clock = 0.0
        self._history: List[RoundRecord] = []

    # -- round execution ------------------------------------------------------------

    @property
    def history(self) -> Sequence[RoundRecord]:
        """Executed rounds, oldest first."""
        return tuple(self._history)

    @property
    def clock(self) -> float:
        """Simulated time (advances by the chosen gap after each round)."""
        return self._clock

    def pending_announcements(self, trust: TrustMatrix) -> int:
        """Opinions that would be re-pushed under the Δ rule right now."""
        changed = 0
        for observer, target, value in trust.items():
            published = self._published.get((observer, target))
            if published is None or abs(value - published) > self._delta:
                changed += 1
        return changed

    def run_round(
        self,
        trust: TrustMatrix,
        *,
        targets: Optional[Sequence[int]] = None,
    ) -> RoundRecord:
        """Execute one aggregation round over the current trust snapshot."""
        changed = 0
        total = 0
        for observer, target, value in trust.items():
            total += 1
            key = (observer, target)
            published = self._published.get(key)
            if published is None or abs(value - published) > self._delta:
                changed += 1
                self._published[key] = value

        result = aggregate_vector_gclr(
            self._graph,
            trust,
            targets=targets,
            params=self._params,
            xi=self._xi,
            backend=self._backend,
            rng=int(self._rng.integers(2**62)),
        )
        gap = self._choose_gap(changed, total)
        record = RoundRecord(
            started_at=self._clock,
            changed_opinions=changed,
            total_opinions=total,
            result=result,
            next_gap=gap,
        )
        self._history.append(record)
        self._clock += gap
        return record

    def _choose_gap(self, changed: int, total: int) -> float:
        """Adaptive inter-round gap: fast-changing trust ⇒ shorter gap.

        The gap scales inversely with the churn fraction around a 10%
        reference rate, clamped to ``[min_gap, max_gap]``; with
        ``adaptive=False`` it is the paper's constant.
        """
        if not self._adaptive:
            return self._base_gap
        churn = changed / total if total else 0.0
        reference = 0.10
        scale = reference / max(churn, 1e-6)
        return float(np.clip(self._base_gap * scale, self._min_gap, self._max_gap))
