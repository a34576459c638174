"""The pure-numpy fused push-round kernel.

A kernel owns every buffer a push round touches and exposes one method,
:meth:`step`, that advances a ``(N, C)`` float64 state matrix by one
gossip round: sample targets, split shares, scale the self-share,
scatter the pushed shares, and record who heard external mass. The
engine keeps the convergence bookkeeping (ratios, deviations, the stop
protocol, mass checks); the kernel keeps the arithmetic.

On full-active steps (every step under ``run_to_max``, and every step
until the first node stops) :class:`FusedNumpyKernel`:

- samples through :meth:`PushPlan.sample_full_active` — preallocated
  flat target buffer, precomputed sender layout, repeated-argmin
  selection — instead of building and concatenating per-group
  temporaries;
- prescales the whole state matrix in place, once
  (``state *= 1/(k_i+1)``), and gathers shares from it with
  ``np.take(..., out=)``, replacing a gathered share multiply *and* a
  masked scale pass: the prescaled matrix already is the post-scale
  state (isolated nodes have ``k_i = 0``, so their factor is exactly
  1.0 and the prescale leaves them bitwise unchanged);
- scatter-adds all C columns with a single ``bincount`` over
  ``target * C + column`` keys (one pass over the share buffer instead
  of C strided passes). States wider than
  :data:`COMBINED_BINCOUNT_MAX_COLS` per channel skip both the combined
  keys and the ``(P, C)`` share matrix: they gather and scatter one
  column at a time through a ``(P,)`` buffer.

Each fused pass computes the same IEEE operations on the same operand
pairs as the historical unfused step (a gathered share multiply, a
masked scale pass and one ``bincount`` per column, kept in the test
suite as the parity reference), so per-column results are
byte-identical; only the within-sender push order differs (ascending
key vs argpartition's unspecified order), which perturbs bincount's
per-bin accumulation order at the 1e-16 level. The parity suite pins
the sampled k-subsets byte-identical and full-run outputs to 1e-8.
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
        # Whole-matrix prescale factors: eligible rows carry 1/(k_i + 1)
        # (bitwise equal to the reference factors), rows with no
        # neighbours are forced to exactly 1.0 so the prescaled matrix
        # is the post-scale state outright.
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
        if all_active:
            return self._step_full(state, rng, loss_model, heard_out)
        return self._step_subset(state, active, rng, loss_model, heard_out)

    def _step_full(self, state, rng, loss_model, heard_out):
        senders, targets = self._plan.sample_full_active(rng, self._targets_buf)
        effective_targets = self._effective_targets(senders, targets, loss_model)
        if senders.size == 0:
            heard_out[:] = False
            return state, 0
        np.multiply(state, self._inv_swap[:, None], out=state)
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

    def _step_subset(self, state, active, rng, loss_model, heard_out):
        # Stop-protocol tail steps: a strict subset of nodes pushes, so
        # the whole-matrix prescale shortcut no longer applies. Fall back
        # to the reference share + masked-scale passes (cost scales with
        # the shrinking active set).
        senders, targets = self._plan.sample_subset(rng, active)
        effective_targets = self._effective_targets(senders, targets, loss_model)
        scale = self._scale
        scale.fill(1.0)
        scale[active] = self._inv[active]
        if self._key_buf is None:
            self._push_columns(
                state, senders, effective_targets, self._inv[senders], scale
            )
        else:
            shares = self._shares_buf[: senders.size]
            np.multiply(state[senders], self._inv[senders, None], out=shares)
            state *= scale[:, None]
            scatter_add_shares(state, effective_targets, shares, self._key_buf)
        self._record_heard(
            senders, effective_targets, lossless=loss_model is None, heard_out=heard_out
        )
        return state, int(senders.size)

    def _push_columns(self, state, senders, targets, share_factors=None, scale=None):
        """Gather, split and scatter a wide state one column at a time.

        Without ``share_factors`` the state is already prescaled (a
        full-active step): each column's shares are gathered as they
        stand. With them, each column's shares are the gathered values
        times ``share_factors`` and the column is then scaled by
        ``scale`` — the same IEEE operations on the same operands as the
        whole-matrix passes, so the result is byte-identical to them.
        """
        n = state.shape[0]
        shares = self._shares_buf[: senders.size]
        for c in range(state.shape[1]):
            column = state[:, c]
            np.take(column, senders, out=shares)
            if share_factors is not None:
                np.multiply(shares, share_factors, out=shares)
                column *= scale
            column += np.bincount(targets, weights=shares, minlength=n)
