"""The pure-numpy fused push-round kernel.

A kernel owns every buffer a push round touches and exposes one method,
:meth:`step`, that advances a ``(N, C)`` float64 state matrix by one
gossip round: sample targets, split shares, scale the self-share,
scatter the pushed shares, and record who heard external mass. The
engine keeps the convergence bookkeeping (ratios, deviations, the stop
protocol, mass checks); the kernel keeps the arithmetic.

Each step :class:`FusedNumpyKernel`:

- samples through :meth:`PushPlan.sample` into a preallocated flat
  target buffer, one slot per push, senders ascending;
- prescales the state matrix in place, once: active rows by
  ``1/(k_i+1)``, every other row by exactly 1.0. The prescaled matrix
  is the post-scale state, and its sender rows are the shares, so one
  ``np.take(..., out=)`` gathers them;
- scatter-adds all C columns with a single ``bincount`` over
  ``target * C + column`` keys (one pass over the share buffer instead
  of C strided passes). States wider than
  :data:`COMBINED_BINCOUNT_MAX_COLS` per channel skip both the combined
  keys and the ``(P, C)`` share matrix: they gather and scatter one
  column at a time through a ``(P,)`` buffer.

The historical unfused step, kept in the test suite as the parity
reference, samples through the same plan and then multiplies the
gathered shares by ``1/(k_i+1)``, scales the active rows in a masked
pass and scatters with one ``bincount`` per column. Those are the same
IEEE products on the same operands, accumulated in the same push order,
so the two steps are byte-identical; the parity suite pins whole runs
with exact equality.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.kernels.plan import PushPlan

#: Widest *per-channel* state still scattered with the single combined
#: bincount; beyond ``COMBINED_BINCOUNT_MAX_COLS * num_channels`` total
#: columns the ``(P, C)`` int64 key buffer costs more than the strided
#: passes it saves, so the fused kernel gathers and scatters one column
#: at a time.
#: Multi-channel state widens the cutoff proportionally: V channels of a
#: d-wide workload are exactly V single-channel workloads sharing one
#: scatter, so the per-channel buffer economics are unchanged.
COMBINED_BINCOUNT_MAX_COLS = 4


def scatter_add_shares(
    state: np.ndarray,
    targets: np.ndarray,
    shares: np.ndarray,
    key_buf: Optional[np.ndarray],
) -> None:
    """Scatter-add ``shares[p]`` into ``state[targets[p]]`` for all pushes.

    With a key buffer, all C columns go through one ``bincount`` over
    combined ``target * C + column`` keys (the caller allocates the
    buffer only when the column count is under its cutoff). The flat
    C-order walk visits each bin's contributions in push order, exactly
    like the per-column bincounts, so the accumulated sums are
    byte-identical to the fallback loop.
    """
    n, num_cols = state.shape
    count = targets.shape[0]
    if key_buf is not None:
        keys = key_buf[:count]
        np.multiply(targets, num_cols, out=keys[:, 0])
        for c in range(1, num_cols):
            np.add(keys[:, 0], c, out=keys[:, c])
        flat = np.bincount(
            keys.ravel(), weights=shares.ravel(), minlength=n * num_cols
        )
        np.add(state, flat.reshape(n, num_cols), out=state)
    else:
        for c in range(num_cols):
            state[:, c] += np.bincount(targets, weights=shares[:, c], minlength=n)


class _KernelBase:
    """Buffers and parameters a push-round kernel needs."""

    name = "base"
    #: Memory order ("C" or "F") of the state matrix this kernel walks
    #: fastest; the engine allocates the state in it. Any order gives
    #: byte-identical results.
    state_order = "C"

    def __init__(
        self,
        plan: PushPlan,
        inv_k_plus_one: np.ndarray,
        num_cols: int,
        num_channels: int = 1,
    ):
        self._plan = plan
        self._num_cols = int(num_cols)
        self._num_channels = max(1, int(num_channels))
        self._num_nodes = int(plan.degrees.shape[0])
        self._inv = np.ascontiguousarray(inv_k_plus_one, dtype=np.float64)
        self._scale = np.empty(self._num_nodes, dtype=np.float64)

    def step(
        self,
        state: np.ndarray,
        active: np.ndarray,
        *,
        all_active: bool,
        rng: np.random.Generator,
        loss_model,
        heard_out: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Advance ``state`` by one push round.

        Returns ``(state, num_pushes)``; the returned matrix may be a
        different (swapped) buffer than the argument — callers must
        rebind. ``heard_out`` is overwritten with the heard-external
        mask for the round.
        """
        raise NotImplementedError

    def _effective_targets(self, senders, targets, loss_model):
        if loss_model is not None:
            return loss_model.apply(senders, targets)
        return targets

    def _record_heard(self, senders, effective_targets, lossless, heard_out):
        heard_out[:] = False
        if lossless:
            # Targets are sampled from zero-diagonal neighbour lists
            # (every Graph and overlay rejects self-loops at
            # construction), so every delivered push is external.
            heard_out[effective_targets] = True
        else:
            external = effective_targets[effective_targets != senders]
            heard_out[external] = True


class FusedNumpyKernel(_KernelBase):
    """Fused kernel: prescale + flat sampling + combined scatter."""

    name = "fused"

    def __init__(self, plan, inv_k_plus_one, num_cols, num_channels=1):
        super().__init__(plan, inv_k_plus_one, num_cols, num_channels)
        # Prescale factors of a step where every eligible row is active:
        # 1/(k_i + 1), and exactly 1.0 on rows with no neighbours.
        inv_swap = self._inv.copy()
        inv_swap[plan.degrees == 0] = 1.0
        self._inv_swap = inv_swap
        self._targets_buf = np.empty(plan.max_pushes, dtype=np.int64)
        # Narrow states gather every share column into one (P, C) buffer
        # and scatter them with one combined bincount. Wide states would
        # scatter column by column anyway, so they also gather column by
        # column, through a (P,) buffer: no (P, C) share matrix at all,
        # and a column-major state keeps every column pass contiguous.
        if num_cols <= COMBINED_BINCOUNT_MAX_COLS * self._num_channels:
            self._shares_buf = np.empty((plan.max_pushes, num_cols), dtype=np.float64)
            self._key_buf = np.empty((plan.max_pushes, num_cols), dtype=np.int64)
        else:
            self._shares_buf = np.empty(plan.max_pushes, dtype=np.float64)
            self._key_buf = None
            self.state_order = "F"

    def step(self, state, active, *, all_active, rng, loss_model, heard_out):
        senders, targets = self._plan.sample(
            rng, active, all_active=all_active, targets_out=self._targets_buf
        )
        effective_targets = self._effective_targets(senders, targets, loss_model)
        # Prescale in place: active rows keep 1/(k_i + 1) of their state
        # and every other row all of it, so the prescaled matrix is the
        # post-scale state and its sender rows are the shares.
        if all_active:
            scale = self._inv_swap
        else:
            scale = self._scale
            scale.fill(1.0)
            np.copyto(scale, self._inv, where=active)
        np.multiply(state, scale[:, None], out=state)
        if self._key_buf is None:
            self._push_columns(state, senders, effective_targets)
        else:
            shares = self._shares_buf[: senders.size]
            np.take(state, senders, axis=0, out=shares)
            scatter_add_shares(state, effective_targets, shares, self._key_buf)
        self._record_heard(
            senders, effective_targets, lossless=loss_model is None, heard_out=heard_out
        )
        return state, int(senders.size)

    def _push_columns(self, state, senders, targets):
        """Gather and scatter a prescaled wide state one column at a time."""
        n = state.shape[0]
        shares = self._shares_buf[: senders.size]
        for c in range(state.shape[1]):
            column = state[:, c]
            np.take(column, senders, out=shares)
            column += np.bincount(targets, weights=shares, minlength=n)
