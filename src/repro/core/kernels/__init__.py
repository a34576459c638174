"""The push-round kernel and its sampling plan.

The sparse engine runs every push round through one kernel,
:class:`~repro.core.kernels.numpy_kernels.FusedNumpyKernel`, sampling
through one :class:`~repro.core.kernels.plan.PushPlan`, at one state
precision (float64). :func:`create_kernel` builds that kernel outside
the engine, for replaying push rounds on their own:

>>> from repro.core.kernels import select_kernel
>>> select_kernel().name
'fused'
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels.numpy_kernels import FusedNumpyKernel
from repro.core.kernels.plan import PushPlan

__all__ = ["PushPlan", "create_kernel", "select_kernel"]


def select_kernel() -> type:
    """The push kernel class the sparse engine runs."""
    return FusedNumpyKernel


def create_kernel(
    name: Optional[str],
    plan: PushPlan,
    inv_k_plus_one,
    num_cols: int,
    dtype,
    num_channels: int = 1,
) -> FusedNumpyKernel:
    """Build the push kernel over ``plan`` for a ``num_cols``-wide state.

    ``name`` must be ``None`` or ``"fused"`` and ``dtype`` float64: there
    is one kernel and one state precision. ``num_channels`` is the number
    of independent reputation channels packed into each gossiped
    component; it only widens the kernel's combined-bincount column
    cutoff — the arithmetic is channel-oblivious and byte-identical for
    any value.
    """
    if name not in (None, FusedNumpyKernel.name):
        raise ValueError(f"unknown push kernel {name!r}; the only kernel is 'fused'")
    if np.dtype(dtype) != np.float64:
        raise ValueError(f"push kernels run float64 state, got {np.dtype(dtype)}")
    return FusedNumpyKernel(plan, inv_k_plus_one, num_cols, num_channels=num_channels)
