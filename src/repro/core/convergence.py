"""Convergence detection and the stop-announcement protocol.

A node cannot observe the network-wide state, so the paper's stopping
rule is purely local and has two layers:

1. **Self convergence** — after a step in which the node heard from at
   least one *other* node, it compares its new estimate against the
   previous step's (``|y/g - u| <= xi`` for a scalar; eq. 7's summed
   form ``sum_j |ratio_j(n) - ratio_j(n-1)| <= N * xi`` for a vector)
   and, on success, announces convergence to its neighbours.
2. **Neighbourhood convergence** — a converged node keeps gossiping
   (its neighbours may still need its pushes) and only *stops* once it
   and every one of its neighbours have announced convergence.

:class:`ConvergenceProtocol` is the one implementation of both layers.
Every synchronous engine — the vectorised sparse engine, the
message-level engine and the push-pull baseline — hands it each step's
value columns, weight columns and heard mask
(:meth:`ConvergenceProtocol.observe_state`). It derives the estimates,
their movement and which estimates are defined, then latches and stops
nodes (:meth:`ConvergenceProtocol.observe`) over ``(N, V)`` arrays, one
column per reputation channel.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.core.state import UNDEFINED_RATIO
from repro.network.graph import Graph
from repro.utils.validation import check_positive


class ConvergenceProtocol:
    """Tracks per-node convergence and the neighbour-announcement stop rule.

    Parameters
    ----------
    graph:
        Topology (neighbour sets drive the stop rule). Its degree vector
        is copied at construction: the stop rule compares converged
        neighbour counters against it, and both must describe the same
        topology even if the caller later mutates or swaps the graph.
    xi:
        Error tolerance ``xi`` of the paper. For vector gossip over
        ``d`` components the per-node threshold is ``d * xi`` (eq. 7
        with ``d = N``).
    num_components:
        Number of gossiped components ``d`` (1 for Algorithms 1–2).
    num_channels:
        Number of independent reputation channels ``V`` the ``d``
        components are split into (channel-major: components
        ``[c * d/V, (c+1) * d/V)`` belong to channel ``c``). Each
        channel runs the paper's eq.-7 test independently against the
        per-channel threshold ``xi * d/V``; a node announces
        convergence only once *every* channel has latched, so one
        converged channel can never stop a straggler channel. The
        default 1 is the single-channel protocol of the paper.
    patience:
        Number of *consecutive* satisfied checks required before a node
        announces convergence. The paper announces on the first
        satisfied check (``patience = 1``); with few feedback sources
        that single-shot test can fire while a region is still
        exchanging mass from just one source (every local ratio equal,
        globally wrong), freezing the round early. A small patience
        (2–3) makes the local rule reliable at negligible step cost; the
        deviation from the paper is documented in docs/fidelity.md.
    warmup_steps:
        Checks during the first ``warmup_steps`` steps never count: a
        node whose estimate has not moved *because no value mass has
        reached it yet* is indistinguishable from a converged one by the
        local test, and Theorem 5.1 says mass needs ~polylog(N) steps to
        spread. ``None`` picks ``ceil(log2 N) + 1``, the PA diameter
        scale the engines default to. ``warmup_steps = 0`` is the
        paper-literal rule.

    Notes
    -----
    Isolated nodes (degree 0) can neither push nor receive; they are
    treated as converged and stopped from the outset so they never
    block termination.
    """

    def __init__(
        self,
        graph: Graph,
        xi: float,
        *,
        num_components: int = 1,
        num_channels: int = 1,
        patience: int = 1,
        warmup_steps: Optional[int] = 0,
    ):
        check_positive(xi, "xi")
        if num_components < 1:
            raise ValueError(f"num_components must be >= 1, got {num_components}")
        if num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {num_channels}")
        if num_components % num_channels:
            raise ValueError(
                f"num_components ({num_components}) must be a multiple of "
                f"num_channels ({num_channels})"
            )
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        n = graph.num_nodes
        if warmup_steps is None:
            warmup_steps = int(np.ceil(np.log2(max(2, n)))) + 1
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
        V = int(num_channels)
        self._xi = float(xi)
        self._num_components = int(num_components)
        self._num_channels = V
        self._threshold = float(xi) * (num_components // num_channels)
        self._patience = int(patience)
        self._warmup_steps = int(warmup_steps)
        self._graph = graph
        self._degrees = graph.degrees.copy()
        self._observed_steps = 0
        isolated = self._degrees == 0
        self._isolated = isolated
        self._converged = isolated.copy()
        self._stopped = isolated.copy()
        self._converged_neighbor_count = np.zeros(n, dtype=np.int64)
        self._channel_converged = np.repeat(isolated[:, None], V, axis=1)
        self._satisfied_streak = np.zeros((n, V), dtype=np.int64)
        # Reusable per-step scratch (observe runs every gossip round;
        # at large N the boolean temporaries dominate its cost).
        self._satisfied = np.empty((n, V), dtype=bool)
        self._failed = np.empty((n, V), dtype=bool)
        self._scratch = np.empty((n, V), dtype=bool)
        self._node_scratch = np.empty(n, dtype=bool)
        self._ratios: Optional[np.ndarray] = None

    # -- read-only state -------------------------------------------------------

    @property
    def xi(self) -> float:
        """Configured error tolerance."""
        return self._xi

    @property
    def threshold(self) -> float:
        """Per-channel deviation threshold (``xi * num_components / num_channels``)."""
        return self._threshold

    @property
    def num_channels(self) -> int:
        """Number of independent reputation channels ``V``."""
        return self._num_channels

    @property
    def channel_converged(self) -> np.ndarray:
        """``(N, V)`` per-channel convergence latches (read-only)."""
        view = self._channel_converged.view()
        view.flags.writeable = False
        return view

    @property
    def converged(self) -> np.ndarray:
        """Boolean mask of nodes that have announced convergence (read-only)."""
        view = self._converged.view()
        view.flags.writeable = False
        return view

    @property
    def stopped(self) -> np.ndarray:
        """Boolean mask of nodes that stopped gossiping (read-only)."""
        view = self._stopped.view()
        view.flags.writeable = False
        return view

    @property
    def all_stopped(self) -> bool:
        """Whether every node has stopped — the round is over."""
        return bool(self._stopped.all())

    @property
    def num_unconverged(self) -> int:
        """Number of nodes that have not announced convergence yet."""
        return int((~self._converged).sum())

    @property
    def ratios(self) -> np.ndarray:
        """``(N, d)`` estimates as of the last :meth:`observe_state` (read-only).

        The buffer is reused by the next step; copy it to keep it.
        """
        view = self._ratios.view()
        view.flags.writeable = False
        return view

    # -- per-step update ---------------------------------------------------------

    def start(self, values: np.ndarray, weights: np.ndarray) -> None:
        """Record a round's initial estimates; :meth:`observe_state` measures from them.

        ``values`` and ``weights`` are the ``(N, d)`` value and weight
        columns before the first step. A weight column that sums to zero
        here is dead for the whole round: its estimate stays the
        sentinel and never blocks the defined mask.
        """
        n, d = self._converged.shape[0], self._num_components
        if values.shape != (n, d) or weights.shape != (n, d):
            raise ValueError(
                f"expected ({n}, {d}) values and weights, got {values.shape} and {weights.shape}"
            )
        live = weights.sum(axis=0) != 0.0
        self._dead_columns = None if live.all() else ~live
        self._ratios = np.empty((n, d), dtype=np.float64)
        self._spare = np.empty((n, d), dtype=np.float64)
        self._defined_now = np.empty((n, d), dtype=bool)
        self._drained = np.empty((n, d), dtype=bool)
        self._deviations = np.empty((n, self._num_channels), dtype=np.float64)
        all_defined = self._compute_ratios(values, weights, self._ratios)
        self._ever_defined = self._defined_now.copy()
        # Once every weight is non-zero, ever_defined is all-True and
        # the drained/defined algebra is constant: the flag lets the
        # common case (weights initialised positive everywhere) skip
        # it. Decisions are identical either way.
        self._ever_defined_all = all_defined

    def _compute_ratios(self, values: np.ndarray, weights: np.ndarray, out: np.ndarray) -> bool:
        """``values / weights`` into ``out``, the sentinel where the weight is zero.

        Returns whether every weight is non-zero.
        """
        defined_now = self._defined_now
        np.not_equal(weights, 0.0, out=defined_now)
        if defined_now.all():
            # No zero weights: a plain divide writes every slot the
            # masked divide would, so the sentinel fill is dead work.
            np.divide(values, weights, out=out)
            return True
        out.fill(UNDEFINED_RATIO)
        np.divide(values, weights, out=out, where=defined_now)
        return False

    def observe_state(
        self, values: np.ndarray, weights: np.ndarray, heard_external: np.ndarray
    ) -> np.ndarray:
        """Run one step's local test on the gossip state itself.

        Computes every node's estimate from its ``(N, d)`` value and
        weight columns, the per-channel movement since the last step
        and which channels are defined, then folds them into
        :meth:`observe`. Splitting preserves a ratio exactly in real
        arithmetic, so a cell whose weight underflowed to zero keeps its
        last defined ratio; only never-defined cells show the sentinel.
        Call :meth:`start` once before the first step.

        Returns
        -------
        numpy.ndarray
            Ids of nodes that *newly* announced convergence this step.
        """
        previous, current = self._ratios, self._spare
        n, d = current.shape
        V = self._num_channels
        if self._compute_ratios(values, weights, current):
            # Every cell defined this step: nothing can have drained
            # (drained = ever_defined & ~defined_now is empty), and the
            # defined mask is all-True (None to observe).
            if not self._ever_defined_all:
                self._ever_defined[:] = True
                self._ever_defined_all = True
            ratio_defined = None
        else:
            ever_defined = self._ever_defined
            ever_defined |= self._defined_now
            drained = np.logical_not(self._defined_now, out=self._drained)
            drained &= ever_defined
            if drained.any():
                current[drained] = previous[drained]
            # A channel is defined once every live column it owns has
            # held weight (dead columns are vacuously defined).
            if self._dead_columns is not None:
                ever_defined = ever_defined | self._dead_columns
            ratio_defined = ever_defined.reshape(n, V, d // V).all(axis=2)
        # The previous ratios are dead once the movement is taken (their
        # buffer is the next step's output), so the per-cell movement
        # overwrites them; eq. 7's sum then runs within each channel.
        np.subtract(current, previous, out=previous)
        np.abs(previous, out=previous)
        np.sum(previous.reshape(n, V, d // V), axis=2, out=self._deviations)
        self._ratios, self._spare = current, previous
        return self.observe(self._deviations, heard_external, ratio_defined)

    def observe(
        self,
        deviations: np.ndarray,
        heard_external: np.ndarray,
        ratio_defined: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Fold one step's estimate movements into the protocol.

        Each channel keeps its own satisfied streak and, once it has held
        ``patience`` consecutive satisfied checks, latches converged —
        permanently. The *node* announces (and starts counting toward
        the neighbourhood stop rule) only when all ``V`` of its channels
        have latched, so a straggler channel keeps the whole node
        gossiping. With one channel this is the paper's rule.

        Parameters
        ----------
        deviations:
            ``(N, V)`` per-channel estimate movement this step
            (``sum_j |ratio_j(n) - ratio_j(n-1)|`` within each channel,
            as :meth:`observe_state` computes it). With one channel an
            ``(N,)`` vector is accepted too.
        heard_external:
            Boolean mask — node received at least one gossip pair from a
            node other than itself this step (the ``|S| > 1`` guard).
        ratio_defined:
            Boolean ``(N, V)`` or ``(N,)`` mask — the node's estimate on
            that channel is defined, i.e. its gossip weight has been
            non-zero on every live component. While a node's weight is
            zero its ratio is the sentinel ``u = 10`` (undefined), and
            the paper's convergence test cannot be passed: a node that
            knows nothing has not converged, however still its sentinel
            sits. ``None`` means "all defined".

        Returns
        -------
        numpy.ndarray
            Ids of nodes that *newly* announced convergence this step.
        """
        n, V = self._satisfied.shape
        deviations = np.asarray(deviations, dtype=np.float64)
        heard_external = np.asarray(heard_external, dtype=bool)
        if V == 1 and deviations.shape == (n,):
            deviations = deviations[:, None]
        if deviations.shape != (n, V) or heard_external.shape != (n,):
            raise ValueError(
                f"expected ({n}, {V}) deviations and ({n},) heard mask, "
                f"got {deviations.shape} and {heard_external.shape}"
            )
        self._observed_steps += 1
        # All boolean algebra below runs in preallocated buffers — the
        # per-step temporaries were a measurable fraction of large-N
        # step time. The decisions are identical to the expression
        # satisfied = ~latched & heard & defined & (deviations <= threshold).
        heard = heard_external[:, None]
        satisfied = self._satisfied
        not_latched = self._scratch
        np.less_equal(deviations, self._threshold, out=satisfied)
        satisfied &= heard
        np.logical_not(self._channel_converged, out=not_latched)
        satisfied &= not_latched
        if ratio_defined is not None:
            ratio_defined = np.asarray(ratio_defined, dtype=bool)
            if ratio_defined.shape == (n,):
                ratio_defined = ratio_defined[:, None]
            if ratio_defined.shape != (n, V):
                raise ValueError(
                    f"ratio_defined must have shape ({n},) or ({n}, {V}), "
                    f"got {ratio_defined.shape}"
                )
            satisfied &= ratio_defined
        if self._observed_steps <= self._warmup_steps:
            satisfied[:] = False
        # A failed check (on a step where the node heard something) resets
        # the streak; steps with no external input leave it unchanged, as
        # the pseudocode skips the check entirely when |S| <= 1.
        failed = self._failed
        np.logical_not(satisfied, out=failed)
        failed &= heard
        failed &= not_latched
        # Masked in-place updates: the boolean-index forms
        # (streak[mask] += 1 / streak[mask] = 0) materialise index lists
        # and cost ~2x at large N for identical results.
        np.add(self._satisfied_streak, 1, out=self._satisfied_streak, where=satisfied)
        np.copyto(self._satisfied_streak, 0, where=failed)
        latched = self._scratch  # not_latched is dead past this point
        np.greater_equal(self._satisfied_streak, self._patience, out=latched)
        latched &= satisfied
        self._channel_converged |= latched
        node_ready = self._node_scratch
        np.all(self._channel_converged, axis=1, out=node_ready)
        node_ready &= ~self._converged
        newly = np.flatnonzero(node_ready)
        if newly.size:
            self._announce(newly)
        self._refresh_stopped()
        return newly

    def _announce(self, nodes: Iterable[int]) -> None:
        """Mark ``nodes`` converged and notify their neighbours."""
        node_array = np.asarray(list(nodes), dtype=np.int64)
        self._converged[node_array] = True
        # Each announcement increments the converged-neighbour counter of
        # every neighbour; np.add.at handles shared neighbours correctly.
        indptr, indices = self._graph.indptr, self._graph.indices
        neighbor_lists: List[np.ndarray] = [
            indices[indptr[node] : indptr[node + 1]] for node in node_array
        ]
        if neighbor_lists:
            all_neighbors = np.concatenate(neighbor_lists)
            np.add.at(self._converged_neighbor_count, all_neighbors, 1)

    def _refresh_stopped(self) -> None:
        # Compare counters against the construction-time degree copy,
        # never a freshly read graph attribute (see the class docstring).
        stopped = self._stopped
        np.greater_equal(self._converged_neighbor_count, self._degrees, out=stopped)
        stopped &= self._converged
        stopped |= self._isolated

