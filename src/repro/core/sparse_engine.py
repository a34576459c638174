"""Sparse CSR differential-gossip engine — the one vectorised engine.

It executes the exact update rule of Algorithms 1–4 over numpy arrays,
which is what makes the paper's 50 000-node sweeps tractable in Python.
Per step, for every still-active node ``i``:

1. split the node's components into ``k_i + 1`` equal shares;
2. keep one share (the self-push);
3. send one share to each of ``k_i`` *distinct* random neighbours
   (a lost push is redirected back to the sender, conserving mass —
   :class:`repro.network.conditions.PacketLossModel`);
4. sum everything received; compare the new estimate to the previous
   step's and run the convergence/stop protocol
   (:class:`repro.core.convergence.ConvergenceProtocol`).

Because a node pushes *all* of its state to the same chosen targets, an
``(N, d)`` state matrix evolves each of its ``d`` columns under shared
randomness — exactly the paper's vector variants (Algorithms 3–4), and
``d = 1`` recovers the single-node variants. Every per-step operation
is a flat vectorised pass over preallocated buffers — no Python loop
over nodes, however skewed the degree distribution.

The push round itself — target sampling, share split, self-share scale,
scatter-accumulate, heard bookkeeping — runs in one kernel,
:class:`~repro.core.kernels.numpy_kernels.FusedNumpyKernel`, over a
float64 state: it prescales the state matrix once, in place, instead of
re-scaling, gathers shares with a single ``take``, and scatter-adds
narrow states through one combined ``bincount`` (wide states column by
column) — no ``(N, C)`` temporaries in the hot loop. Targets are drawn
through a :class:`~repro.core.kernels.plan.PushPlan`; see the kernels
package for the byte-compatibility contract with the historical
unfused step.

Every step runs the same per-step mass-conservation assertions and
carries the last defined ratio through underflow-drained cells.
Everything random flows through one generator: identical seeds replay
identical runs bit-for-bit, and the engine converges to the same
estimates as the protocol-faithful message engine and the async engine
(the cross-backend property suite pins sparse against message to 1e-8).

The engine accepts either a :class:`repro.network.graph.Graph` or any
``scipy.sparse`` adjacency matrix (converted once via
:meth:`repro.network.graph.Graph.from_scipy_sparse`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.convergence import ConvergenceProtocol
from repro.core.differential import resolve_push_counts
from repro.core.errors import ConvergenceError, MassConservationError
from repro.core.kernels import PushPlan
from repro.core.kernels.numpy_kernels import FusedNumpyKernel
from repro.core.results import GossipOutcome
from repro.core.state import MASS_RTOL, UNDEFINED_RATIO, state_components
from repro.network.conditions import PacketLossModel
from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator


def _coerce_graph(graph) -> Graph:
    """Accept a :class:`Graph` or a scipy sparse adjacency matrix."""
    if isinstance(graph, Graph):
        return graph
    if hasattr(graph, "tocsr"):
        return Graph.from_scipy_sparse(graph)
    raise TypeError(
        f"graph must be a repro Graph or a scipy sparse adjacency matrix, got {type(graph)!r}"
    )


class SparseGossipEngine:
    """Reusable vectorised CSR engine bound to a topology and push counts.

    Parameters
    ----------
    graph:
        Overlay topology — a :class:`repro.network.graph.Graph` or a
        square symmetric zero-diagonal ``scipy.sparse`` matrix.
    push_counts:
        Per-node push counts ``k_i``; defaults to the differential rule
        (:func:`repro.core.differential.push_counts`). Pass
        ``fixed_push_counts(graph, 1)`` for the normal-push baseline.
    loss_model:
        Optional packet-loss model applied to every push (the backend
        layer builds it from ``GossipConfig.network``).
    rng:
        Seed / generator for target selection.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> import numpy as np
    >>> g = example_network()
    >>> engine = SparseGossipEngine(g, rng=7)
    >>> values = np.arange(10, dtype=float)
    >>> outcome = engine.run(values, np.ones(10), xi=1e-6)
    >>> bool(np.allclose(outcome.estimates, values.mean(), atol=1e-3))
    True
    """

    def __init__(
        self,
        graph,
        *,
        push_counts: Optional[np.ndarray] = None,
        loss_model: Optional[PacketLossModel] = None,
        rng: RngLike = None,
        degree_announcements: Optional[bool] = None,
    ):
        graph = _coerce_graph(graph)
        self._graph = graph
        if degree_announcements is None:
            degree_announcements = push_counts is None
        self._degree_announcements = bool(degree_announcements)
        push_counts = resolve_push_counts(graph, push_counts)
        self._push_counts = push_counts
        self._loss_model = loss_model
        self._rng = as_generator(rng)
        self._plan = PushPlan(graph.indptr, graph.indices, graph.degrees, push_counts)
        self._inv_k_plus_one = 1.0 / (push_counts + 1.0)
        self._max_pushes = self._plan.max_pushes
        self._kernels: Dict[Tuple[int, int], object] = {}

    @property
    def graph(self) -> Graph:
        """Topology this engine is bound to."""
        return self._graph

    @property
    def push_counts(self) -> np.ndarray:
        """Per-node push counts ``k_i`` (read-only)."""
        view = self._push_counts.view()
        view.flags.writeable = False
        return view

    @property
    def _groups(self):
        """Padded sampling groups (compatibility accessor for tests)."""
        return self._plan.groups

    @property
    def _k1_nodes(self) -> np.ndarray:
        return self._plan.k1_nodes

    # -- target selection -------------------------------------------------------

    def _choose_targets(self, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Random push targets for every active node, fully vectorised.

        Returns ``(senders, targets)`` flat arrays: node ``senders[p]``
        pushes its share to ``targets[p]``. Each sender appears ``k_i``
        times with *distinct* targets, uniformly over the
        ``k_i``-subsets of its neighbourhood.
        """
        return self._plan.sample_subset(self._rng, active)

    def _kernel_for(self, num_cols: int, num_channels: int = 1):
        """Kernel instance for a ``num_cols``-wide state (cached per width)."""
        key = (num_cols, num_channels)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = FusedNumpyKernel(
                self._plan, self._inv_k_plus_one, num_cols, num_channels=num_channels
            )
            self._kernels[key] = kernel
        return kernel

    # -- main loop ----------------------------------------------------------------

    def run(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        xi: float = 1e-4,
        extras: Optional[Dict[str, np.ndarray]] = None,
        max_steps: int = 10_000,
        track_history: bool = False,
        run_to_max: bool = False,
        patience: int = 3,
        warmup_steps: Optional[int] = None,
        num_channels: int = 1,
    ) -> GossipOutcome:
        """Execute one gossip round to the stopping condition.

        Parameters
        ----------
        values, weights:
            Initial per-node gossip values/weights, shape ``(N,)`` or
            ``(N, d)``. The engine gossips its own stacked copy; callers'
            arrays are untouched.
        xi:
            Error tolerance; vector gossip uses eq. 7's ``d * xi``.
        extras:
            Extra components (same shape as ``values``) split and shipped
            with every push — Algorithm 2's ``count`` rides here.
        max_steps:
            Hard safety limit; exceeding it raises
            :class:`repro.core.errors.ConvergenceError`.
        track_history:
            Record the ``(N, d)`` ratio array after every step
            (memory-heavy; meant for small-N diagnostics).
        run_to_max:
            Ignore the stop protocol and run exactly ``max_steps`` steps
            (used by diffusion-speed studies that fix the step budget).
        patience:
            Consecutive satisfied convergence checks required before a
            node announces (see
            :class:`repro.core.convergence.ConvergenceProtocol`;
            ``patience=1`` is the paper-literal single-shot test).
        warmup_steps:
            Steps before convergence checks count; default
            ``ceil(log2 N) + 1`` — the time Theorem 5.1 says mass needs
            to reach every node. Pass 0 for the paper-literal rule.
        num_channels:
            Independent reputation channels ``V`` packed channel-major
            into the ``d`` columns (``d`` must be a multiple of ``V``).
            All channels share every sampling draw and scatter; only
            convergence is judged per channel (a node announces when
            every channel has latched). Default 1 — the classic
            single-channel protocol.

        Returns
        -------
        GossipOutcome
            Its ``values``, ``weights`` and ``extras`` are column views of
            one final ``(N, C)`` state matrix.

        Raises
        ------
        ConvergenceError
            If the protocol has not stopped within ``max_steps``.
        MassConservationError
            If a component's global sum drifts (an engine bug, not a
            user error — this should never fire).
        """
        graph = self._graph
        n = graph.num_nodes
        names, columns = state_components(values, weights, extras, n, num_channels)
        d = columns[0].shape[1]
        kernel = self._kernel_for(len(names) * d, num_channels)
        # One (N, C) state matrix, laid out in the order the kernel walks
        # it; component i owns columns [i*d, (i+1)*d).
        state = np.empty((n, len(names) * d), dtype=np.float64, order=kernel.state_order)
        np.concatenate(columns, axis=1, out=state)
        del columns  # converted component copies are dead once stacked
        slices = {name: slice(i * d, (i + 1) * d) for i, name in enumerate(names)}

        initial_mass = {
            name: float(state[:, sl].sum(dtype=np.float64)) for name, sl in slices.items()
        }
        live_components = state[:, slices["weight"]].sum(axis=0) != 0.0
        all_live = bool(live_components.all())
        if warmup_steps is None:
            warmup_steps = int(np.ceil(np.log2(max(2, n)))) + 1
        protocol = ConvergenceProtocol(
            graph,
            xi,
            num_components=d,
            num_channels=num_channels,
            patience=patience,
            warmup_steps=warmup_steps,
        )
        history: Optional[List[np.ndarray]] = [] if track_history else None

        degrees = graph.degrees
        eligible = degrees > 0
        eligible_count = self._plan.eligible_count
        mass_bound = {
            name: MASS_RTOL * max(abs(initial_mass[name]), 1.0) * max(1.0, np.sqrt(n * d))
            for name in names
        }

        # Reusable bookkeeping buffers: the ratio matrices ping-pong
        # between steps, everything else is overwritten in full each
        # round.
        ratio_a = np.full((n, d), UNDEFINED_RATIO, dtype=np.float64)
        ratio_b = np.empty((n, d), dtype=np.float64)
        deviations = np.empty(n, dtype=np.float64)
        channel_dev = (
            np.empty((n, num_channels), dtype=np.float64) if num_channels > 1 else None
        )
        defined_now = np.empty((n, d), dtype=bool)
        not_defined = np.empty((n, d), dtype=bool)
        drained = np.empty((n, d), dtype=bool)
        heard_external = np.empty(n, dtype=bool)
        active_buf = np.empty(n, dtype=bool)
        not_stopped = np.empty(n, dtype=bool)

        def compute_ratios(out: np.ndarray) -> bool:
            # Same operations as state.ratios(): fill the sentinel, then
            # a masked divide.
            value_view = state[:, slices["value"]]
            weight_view = state[:, slices["weight"]]
            np.not_equal(weight_view, 0.0, out=defined_now)
            if defined_now.all():
                # No zero weights: a plain divide writes every slot the
                # masked divide would, so the sentinel fill is dead work.
                np.divide(value_view, weight_view, out=out)
                return True
            out.fill(UNDEFINED_RATIO)
            np.divide(value_view, weight_view, out=out, where=defined_now)
            return False

        all_defined = compute_ratios(ratio_a)
        previous_ratios = ratio_a
        new_ratios = ratio_b
        ever_defined = defined_now.copy()
        # Once every weight is non-zero, ever_defined is all-True and
        # the drained/ratio_defined algebra below is constant: the flag
        # lets the common case (weights initialised positive everywhere)
        # skip it entirely. Decisions are identical either way.
        ever_defined_all = bool(all_defined)

        push_messages = 0
        protocol_messages = int(degrees.sum()) if self._degree_announcements else 0
        active_node_steps = 0
        steps = 0

        while not protocol.all_stopped or (run_to_max and steps < max_steps):
            if steps >= max_steps:
                if run_to_max:
                    break
                raise ConvergenceError(steps, protocol.num_unconverged)
            if run_to_max:
                active = eligible
                active_count = eligible_count
            else:
                np.logical_not(protocol.stopped, out=not_stopped)
                active = np.logical_and(eligible, not_stopped, out=active_buf)
                active_count = int(active.sum())
            active_node_steps += active_count

            state, num_pushes = kernel.step(
                state,
                active,
                all_active=active_count == eligible_count,
                rng=self._rng,
                loss_model=self._loss_model,
                heard_out=heard_external,
            )
            push_messages += num_pushes

            all_defined = compute_ratios(new_ratios)
            if all_defined:
                # Every cell defined this step: nothing can have
                # drained (drained = ever_defined & ~defined_now is
                # empty), and the defined mask observe needs is
                # all-True (None in its calling convention).
                if not ever_defined_all:
                    ever_defined[:] = True
                    ever_defined_all = True
                ratio_defined = None
            else:
                ever_defined |= defined_now
                np.logical_not(defined_now, out=not_defined)
                np.logical_and(ever_defined, not_defined, out=drained)
                if drained.any():
                    # A cell whose weight underflowed to zero keeps its
                    # last defined ratio instead of snapping to the
                    # sentinel.
                    new_ratios[drained] = previous_ratios[drained]
                if num_channels > 1:
                    # Per-channel defined mask: every live column the
                    # channel owns has held weight (dead columns are
                    # vacuously defined).
                    if all_live:
                        defined_full = ever_defined
                    else:
                        defined_full = ever_defined | ~live_components[None, :]
                    ratio_defined = defined_full.reshape(
                        n, num_channels, d // num_channels
                    ).all(axis=2)
                elif all_live:
                    # (n, 1) column view == .all(axis=1) minus the reduce.
                    ratio_defined = ever_defined[:, 0] if d == 1 else ever_defined.all(axis=1)
                else:
                    ratio_defined = ever_defined[:, live_components].all(axis=1)

            # The previous ratios are dead once the deviation is taken
            # (their buffer is the next step's ratio output), so the
            # per-cell deviation overwrites them.
            deviation_matrix = previous_ratios
            if num_channels > 1:
                np.subtract(new_ratios, previous_ratios, out=deviation_matrix)
                np.abs(deviation_matrix, out=deviation_matrix)
                np.sum(
                    deviation_matrix.reshape(n, num_channels, d // num_channels),
                    axis=2,
                    out=channel_dev,
                )
                step_deviations = channel_dev
            elif d == 1:
                np.subtract(new_ratios[:, 0], previous_ratios[:, 0], out=deviations)
                np.abs(deviations, out=deviations)
                step_deviations = deviations
            else:
                np.subtract(new_ratios, previous_ratios, out=deviation_matrix)
                np.abs(deviation_matrix, out=deviation_matrix)
                np.sum(deviation_matrix, axis=1, out=deviations)
                step_deviations = deviations
            newly_converged = protocol.observe(step_deviations, heard_external, ratio_defined)
            if newly_converged.size:
                protocol_messages += int(degrees[newly_converged].sum())
            previous_ratios, new_ratios = new_ratios, previous_ratios
            if history is not None:
                history.append(previous_ratios.copy())
            steps += 1

            # Per-slice strided sums: ~13x faster than one
            # state.sum(axis=0) pass (numpy's axis-0 reduce over a
            # C-order matrix is a slow strided inner loop).
            for name, sl in slices.items():
                total = float(state[:, sl].sum(dtype=np.float64))
                if abs(total - initial_mass[name]) > mass_bound[name]:
                    raise MassConservationError(
                        f"component {name!r} mass drifted from {initial_mass[name]!r} to {total!r} at step {steps}"
                    )

        # The outcome views the final state instead of copying it. The
        # kernel never keeps a reference to the state it returns, so
        # nothing writes this one again.
        return GossipOutcome(
            values=state[:, slices["value"]],
            weights=state[:, slices["weight"]],
            extras={name: state[:, slices[name]] for name in names[2:]},
            steps=steps,
            push_messages=push_messages,
            protocol_messages=protocol_messages,
            active_node_steps=active_node_steps,
            converged=protocol.converged.copy(),
            ratio_history=history,
            num_channels=num_channels,
            channel_converged=(
                protocol.channel_converged.copy() if num_channels > 1 else None
            ),
        )
