"""The historical unfused push step: the fused kernel's parity reference.

:class:`UnfusedNumpyKernel` is the pre-kernel sparse-engine step —
``argpartition`` target selection, a gathered share multiply, a masked
scale pass and one ``bincount`` per state column. The fused kernel must
reproduce it (same targets, same IEEE operations on the same operands),
so the parity tests run the engine on both and compare the outcomes.

The engine reaches this kernel only through :func:`reference_kernel`,
which swaps it in for the kernel class ``repro.core.sparse_engine``
instantiates; the library itself has no option that selects it.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro.core.sparse_engine as sparse_engine
from repro.core.kernels.numpy_kernels import _KernelBase


class UnfusedNumpyKernel(_KernelBase):
    """Reference kernel: the historical sparse-engine step, verbatim.

    Byte-for-byte the pre-kernel engine at float64 — including the
    ``argpartition`` target selection and its randomness consumption —
    so it doubles as the baseline for the fused kernels' speedup and
    parity measurements.
    """

    name = "unfused"

    def __init__(self, plan, inv_k_plus_one, num_cols, num_channels=1):
        super().__init__(plan, inv_k_plus_one, num_cols, num_channels)
        self._shares_buf = np.empty((plan.max_pushes, num_cols), dtype=np.float64)

    def step(self, state, active, *, all_active, rng, loss_model, heard_out):
        senders, targets = self._plan.sample_subset(rng, active)
        effective_targets = self._effective_targets(senders, targets, loss_model)
        shares = self._shares_buf[: senders.size]
        np.multiply(state[senders], self._inv[senders, None], out=shares)
        scale = self._scale
        scale.fill(1.0)
        scale[active] = self._inv[active]
        state *= scale[:, None]
        n = state.shape[0]
        for c in range(state.shape[1]):
            state[:, c] += np.bincount(
                effective_targets, weights=shares[:, c], minlength=n
            )
        self._record_heard(
            senders, effective_targets, lossless=loss_model is None, heard_out=heard_out
        )
        return state, int(senders.size)


@contextlib.contextmanager
def reference_kernel():
    """Run every sparse-engine round started inside the block on the unfused step.

    The engine builds its kernel lazily, on the first ``run`` at a given
    state width, so the round itself (not only the engine's
    construction) must happen inside the block.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse_engine, "FusedNumpyKernel", UnfusedNumpyKernel)
        yield
