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

Every step runs the shared mass-conservation check
(:class:`repro.core.state.MassCheck`), and the convergence protocol
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
from repro.core.errors import ConvergenceError
from repro.core.kernels import PushPlan
from repro.core.kernels.numpy_kernels import FusedNumpyKernel
from repro.core.results import GossipOutcome
from repro.core.state import MassCheck, state_components
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
    ):
        graph = _coerce_graph(graph)
        self._graph = graph
        # Only the differential rule needs each node to learn its
        # neighbours' degrees: one announcement per edge end.
        self._degree_announcements = push_counts is None
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

        mass = MassCheck(state, slices)
        value_sl, weight_sl = slices["value"], slices["weight"]
        protocol = ConvergenceProtocol(
            graph,
            xi,
            num_components=d,
            num_channels=num_channels,
            patience=patience,
            warmup_steps=warmup_steps,
        )
        protocol.start(state[:, value_sl], state[:, weight_sl])
        history: Optional[List[np.ndarray]] = [] if track_history else None

        degrees = graph.degrees
        eligible = degrees > 0
        eligible_count = self._plan.eligible_count
        # Reusable per-step masks, overwritten in full each round.
        heard_external = np.empty(n, dtype=bool)
        active_buf = np.empty(n, dtype=bool)
        not_stopped = np.empty(n, dtype=bool)

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

            newly_converged = protocol.observe_state(
                state[:, value_sl], state[:, weight_sl], heard_external
            )
            if newly_converged.size:
                protocol_messages += int(degrees[newly_converged].sum())
            if history is not None:
                history.append(protocol.ratios.copy())
            steps += 1
            mass.verify(state, steps)

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
