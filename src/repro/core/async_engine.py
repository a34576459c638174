"""Asynchronous (event-driven) differential gossip over real links.

The paper assumes discrete, globally synchronised steps ("time is
discrete; every node knows about the starting time of gossip process").
Real P2P nodes have no common clock — the standard asynchronous model
gives every node an independent exponential clock and lets it push
whenever its clock ticks. This engine implements differential gossip in
that model on top of :class:`repro.simulation.events.EventScheduler`:

- node ``i`` ticks at rate ``k_i`` (the differential rule expressed in
  rates: a hub pushes proportionally more often, not more per step);
- on a tick, the node splits its pair in half and hands one half to the
  *link* towards a uniform random neighbour (the asynchronous analogue
  of the ``1/(k+1)`` split — per tick there is exactly one transfer);
- the link model (:mod:`repro.network.conditions`) decides the push's
  fate: dropped (the mass stays with the sender — the same
  mass-conserving self-redirect the synchronous
  :class:`~repro.network.conditions.PacketLossModel` applies), delivered
  instantly, or delivered after a sampled latency — the pair is then
  *in flight* and lands at the receiver in a scheduled delivery event;
- mass conservation is checked over state **plus in-flight mass** at
  every event (:class:`repro.core.errors.MassConservationError` on
  drift), and every node's ratio converges to the same global quotient
  as the synchronous engines.

Convergence is declared when no node's estimate has moved more than
``xi`` over a sliding window of simulated time **and no pre-quiet mass
is still in flight**: every pair still in the air must have been sent
*after* the last ``xi`` violation. A straggler split off before the
network went quiet could still move its receiver materially when it
lands, so the window keeps waiting for it; pairs sent from an
already-quiet state are sub-``xi`` halves whose landing cannot break
the criterion they were born under.

Determinism: link randomness (loss draws, latency samples) comes from a
dedicated ``link_rng`` stream, never the engine's target-selection
stream. Under the trivial link (zero loss, zero latency — or no link at
all) the engine consumes the exact random byte sequence of the
pre-link-model engine, so results are byte-identical (pinned by
``tests/test_async_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.differential import push_counts as differential_push_counts
from repro.core.errors import ConvergenceError, MassConservationError
from repro.core.state import ratios
from repro.network.conditions import LinkModel
from repro.network.graph import Graph
from repro.simulation.events import EventScheduler
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive

#: Relative tolerance of the per-event state+in-flight mass check: the
#: event loop only ever moves exact binary halves around, but the O(N)
#: re-summation itself rounds, so "exact" means exact up to summation
#: order.
MASS_RTOL = 1e-9


@dataclass
class AsyncGossipOutcome:
    """Result of one asynchronous gossip run.

    Attributes
    ----------
    values, weights:
        Final per-node gossip components (in-flight pairs are flushed to
        their receivers before the outcome is built, so the global sums
        are conserved even on a timeout).
    simulated_time:
        Simulation clock at termination.
    total_pushes:
        Individual push events executed (dropped pushes included — a
        drop is a push whose mass went back to the sender).
    converged:
        Whether the quiet-window criterion was met with no pre-quiet
        pair still in flight (False only when the time limit cut the
        run short and ``strict`` was off).
    total_drops:
        Pushes the link model dropped (mass-conserving self-redirect).
    partition_drops:
        The subset of ``total_drops`` caused by an active partition
        window.
    max_in_flight:
        Peak number of pairs simultaneously in flight.
    flushed_in_flight:
        Pairs still in flight at termination, force-delivered into the
        final state. On a converged run these are all post-quiet
        sub-``xi`` halves landing exactly where their delivery events
        would have put them.
    """

    values: np.ndarray
    weights: np.ndarray
    simulated_time: float
    total_pushes: int
    converged: bool
    total_drops: int = 0
    partition_drops: int = 0
    max_in_flight: int = 0
    flushed_in_flight: int = 0

    @property
    def estimates(self) -> np.ndarray:
        """Per-node estimates ``y / g``."""
        return ratios(self.values, self.weights)


class AsyncGossipEngine:
    """Event-driven differential gossip on independent exponential clocks.

    Parameters
    ----------
    graph:
        Topology.
    push_counts:
        Per-node differential counts ``k_i``, reinterpreted as *rates*;
        defaults to the differential rule.
    rng:
        Seed / generator (clock draws and target choices).
    link:
        Optional :class:`repro.network.conditions.LinkModel` deciding
        each push's fate (drop / instant / delayed). ``None`` is the
        perfect network — byte-identical to a lossless, zero-latency
        :class:`~repro.network.conditions.LinkModel`.
    link_rng:
        Seed / generator for the link's own randomness (loss draws,
        latency samples). Kept separate from ``rng`` so attaching a link
        model never perturbs target selection; the backend layer derives
        it statelessly from the config seed.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> import numpy as np
    >>> engine = AsyncGossipEngine(example_network(), rng=3)
    >>> out = engine.run(np.arange(10.0), np.ones(10), xi=1e-6)
    >>> bool(np.allclose(out.estimates, 4.5, atol=1e-2))
    True
    """

    def __init__(
        self,
        graph: Graph,
        *,
        push_counts: Optional[np.ndarray] = None,
        rng: RngLike = None,
        link: Optional[LinkModel] = None,
        link_rng: RngLike = None,
    ):
        self._graph = graph
        counts = (
            np.asarray(push_counts, dtype=np.float64)
            if push_counts is not None
            else differential_push_counts(graph).astype(np.float64)
        )
        if counts.shape != (graph.num_nodes,):
            raise ValueError(
                f"push_counts must have shape ({graph.num_nodes},), got {counts.shape}"
            )
        if link is not None and not isinstance(link, LinkModel):
            raise TypeError(f"link must be a LinkModel, got {type(link).__name__}")
        self._rates = counts
        self._rng = as_generator(rng)
        self._link = link
        self._link_rng = link_rng

    def run(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        xi: float = 1e-4,
        quiet_window: float = 3.0,
        max_time: float = 10_000.0,
        strict: bool = True,
        check_mass: bool = True,
    ) -> AsyncGossipOutcome:
        """Run until estimates are ``xi``-quiet for ``quiet_window`` time units.

        Parameters
        ----------
        values, weights:
            Initial per-node components, shape ``(N,)``.
        xi:
            Maximum estimate movement tolerated inside the quiet window.
        quiet_window:
            Length (in simulated time, i.e. ~ticks per unit rate) of the
            movement-free interval that declares convergence. The window
            also waits out in-flight stragglers: a pair sent *before*
            the last ``xi`` violation blocks convergence until it lands
            (and may restart the window when it does).
        max_time:
            Simulation-time budget. On exhaustion, in-flight pairs are
            flushed to their receivers so the returned state conserves
            mass.
        strict:
            Raise :class:`ConvergenceError` on budget exhaustion instead
            of returning a partial result.
        check_mass:
            Assert ``sum(state) + sum(in-flight) == initial mass`` (to
            :data:`MASS_RTOL`) after *every* event, for both components
            (:class:`MassConservationError` on drift). O(N) per event —
            large fixed-budget benchmarks may disable it.
        """
        check_positive(xi, "xi")
        check_positive(quiet_window, "quiet_window")
        check_positive(max_time, "max_time")
        graph = self._graph
        n = graph.num_nodes
        value = np.array(values, dtype=np.float64, copy=True).reshape(n)
        weight = np.array(weights, dtype=np.float64, copy=True).reshape(n)

        scheduler = EventScheduler()
        rng = self._rng
        bound = (
            self._link.bind(graph, self._link_rng) if self._link is not None else None
        )
        indptr, indices = graph.indptr, graph.indices
        degrees = graph.degrees
        state = {
            "pushes": 0,
            "last_violation": 0.0,
            "in_flight_count": 0,
            "in_flight_value": 0.0,
            "in_flight_weight": 0.0,
            "max_in_flight": 0,
            "next_transfer": 0,
        }
        # Pairs in the air: insertion-ordered so a timeout flush is
        # deterministic. Delivery events pop their own entry.
        outstanding = {}
        total_value = float(value.sum())
        total_weight = float(weight.sum())
        value_tol = MASS_RTOL * max(1.0, abs(total_value))
        weight_tol = MASS_RTOL * max(1.0, abs(total_weight))
        current = ratios(value, weight)

        def check_conservation(now: float) -> None:
            value_drift = abs(float(value.sum()) + state["in_flight_value"] - total_value)
            weight_drift = abs(float(weight.sum()) + state["in_flight_weight"] - total_weight)
            if value_drift > value_tol or weight_drift > weight_tol:
                raise MassConservationError(
                    f"state+in-flight mass drifted at t={now:.6g}: "
                    f"value by {value_drift:.3g} (tol {value_tol:.3g}), "
                    f"weight by {weight_drift:.3g} (tol {weight_tol:.3g})"
                )

        def note_movement(touched: int, now: float) -> None:
            if weight[touched] > 0.0:
                new_ratio = value[touched] / weight[touched]
                if abs(new_ratio - current[touched]) > xi:
                    state["last_violation"] = now
                current[touched] = new_ratio
            else:
                state["last_violation"] = now

        def make_delivery(transfer_id: int):
            def deliver(sched: EventScheduler) -> None:
                target, moved_value, moved_weight, _ = outstanding.pop(transfer_id)
                value[target] += moved_value
                weight[target] += moved_weight
                state["in_flight_count"] -= 1
                state["in_flight_value"] -= moved_value
                state["in_flight_weight"] -= moved_weight
                note_movement(target, sched.now)
                if check_mass:
                    check_conservation(sched.now)

            return deliver

        def make_tick(node: int):
            def tick(sched: EventScheduler) -> None:
                if degrees[node] > 0:
                    neighbor = int(indices[indptr[node] + int(rng.integers(degrees[node]))])
                    moved_value = value[node] / 2.0
                    moved_weight = weight[node] / 2.0
                    state["pushes"] += 1
                    dropped, delay = (
                        bound.transfer(sched.now, node, neighbor)
                        if bound is not None
                        else (False, 0.0)
                    )
                    if not dropped:
                        value[node] -= moved_value
                        weight[node] -= moved_weight
                        if delay == 0.0:
                            # Instant delivery, inline — the exact
                            # arithmetic and bookkeeping of the
                            # pre-link-model engine.
                            value[neighbor] += moved_value
                            weight[neighbor] += moved_weight
                            for touched in (node, neighbor):
                                note_movement(touched, sched.now)
                        else:
                            transfer_id = state["next_transfer"]
                            state["next_transfer"] += 1
                            outstanding[transfer_id] = (
                                neighbor, moved_value, moved_weight, sched.now,
                            )
                            state["in_flight_count"] += 1
                            state["in_flight_value"] += moved_value
                            state["in_flight_weight"] += moved_weight
                            if state["in_flight_count"] > state["max_in_flight"]:
                                state["max_in_flight"] = state["in_flight_count"]
                            sched.schedule_after(delay, make_delivery(transfer_id))
                            note_movement(node, sched.now)
                    if check_mass and (bound is not None or dropped):
                        # The trivial path skips the O(N) re-summation:
                        # it moves exact binary halves inline, and the
                        # byte-identity contract keeps it free of new
                        # per-event work.
                        check_conservation(sched.now)
                # Re-arm this node's exponential clock.
                delay = float(rng.exponential(1.0 / self._rates[node])) if self._rates[node] > 0 else None
                if delay is not None and sched.now + delay <= max_time:
                    sched.schedule_after(delay, tick)

            return tick

        for node in range(n):
            if self._rates[node] > 0 and degrees[node] > 0:
                scheduler.schedule(
                    float(rng.exponential(1.0 / self._rates[node])), make_tick(node)
                )

        # A link with scheduled partition windows can look xi-quiet while
        # the partition still holds islands apart: islands converge
        # internally and cross-region pushes drop without moving anyone.
        # Quiet accrued before the last window heals proves nothing, so
        # the window is measured from the heal, not merely gated on it.
        quiet_horizon = bound.quiet_horizon if bound is not None else 0.0

        converged = False
        while scheduler.pending:
            scheduler.step()
            if (
                scheduler.now - max(state["last_violation"], quiet_horizon) >= quiet_window
                and scheduler.now > quiet_window
            ):
                # In-flight straggler hardening: a pair split off
                # *before* the last violation may still move its
                # receiver materially — keep waiting for it. Events fire
                # in time order, so the insertion-ordered dict's first
                # entry is the oldest send.
                if (
                    state["in_flight_count"] == 0
                    or next(iter(outstanding.values()))[3] >= state["last_violation"]
                ):
                    converged = True
                    break
            if scheduler.now > max_time:
                break

        # Pairs still in the air at termination — post-quiet sub-xi
        # halves on a converged run, arbitrary stragglers on a timeout —
        # land at their receivers so the returned state conserves mass
        # (the lenient caller still sees exact global sums; the strict
        # caller's error reflects a consistent world too).
        flushed = len(outstanding)
        for target, moved_value, moved_weight, _ in outstanding.values():
            value[target] += moved_value
            weight[target] += moved_weight
        state["in_flight_count"] = 0
        state["in_flight_value"] = 0.0
        state["in_flight_weight"] = 0.0
        outstanding.clear()
        if check_mass:
            check_conservation(scheduler.now)

        if not converged and strict:
            raise ConvergenceError(int(scheduler.now), n)

        return AsyncGossipOutcome(
            values=value,
            weights=weight,
            simulated_time=scheduler.now,
            total_pushes=state["pushes"],
            converged=converged,
            total_drops=bound.dropped_count if bound is not None else 0,
            partition_drops=bound.partition_dropped_count if bound is not None else 0,
            max_in_flight=state["max_in_flight"],
            flushed_in_flight=flushed,
        )
