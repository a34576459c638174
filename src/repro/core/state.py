"""Gossip state primitives: stacked components, ratios and mass accounting.

Differential gossip tracks, per node, a *gossip pair* ``(y, g)`` — a
value component and a weight component that are always split, shipped
and summed together. The estimate a node holds at any instant is the
ratio ``y / g``; push-sum's mass-conservation property guarantees the
global sums of ``y`` and of ``g`` never change, so every node's ratio
converges to ``sum(y_0) / sum(g_0)``.

The paper's pseudocode sets the ratio to the sentinel ``u = 10`` while a
node's weight is still zero (the ratio is undefined until some weight
mass arrives); :data:`UNDEFINED_RATIO` preserves that convention, and
because trust values live in ``[0, 1]`` the sentinel can never collide
with a legitimate converged value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import MassConservationError

#: Sentinel ratio used while a node's gossip weight is exactly zero
#: (paper: "otherwise u <- 10").
UNDEFINED_RATIO: float = 10.0

#: Relative tolerance for the mass-conservation check. Each gossip step
#: performs O(N) float additions, so drift scales with N * eps.
MASS_RTOL: float = 1e-9


def _as_state_matrix(array: np.ndarray, num_nodes: int, name: str) -> np.ndarray:
    """View a per-node state array as a float64 ``(N, d)`` matrix.

    No copy is made when ``array`` already is float64: the engine stacks
    these views into a state matrix of its own, so the caller's arrays
    are never written.
    """
    out = np.asarray(array, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2 or out.shape[0] != num_nodes:
        raise ValueError(f"{name} must have shape (N,) or (N, d) with N={num_nodes}, got {out.shape}")
    return out


def state_components(
    values: np.ndarray,
    weights: np.ndarray,
    extras: Optional[Dict[str, np.ndarray]],
    num_nodes: int,
    num_channels: int,
) -> Tuple[List[str], List[np.ndarray]]:
    """Validated ``(names, matrices)`` of one round's gossip components.

    ``names`` starts ``["value", "weight"]`` followed by the extras in
    insertion order; every matrix is ``(N, d)`` with ``d`` a multiple of
    ``num_channels``. Component ``i`` of the stacked state owns columns
    ``[i*d, (i+1)*d)``.
    """
    value = _as_state_matrix(values, num_nodes, "values")
    weight = _as_state_matrix(weights, num_nodes, "weights")
    d = value.shape[1]
    if num_channels < 1:
        raise ValueError(f"num_channels must be >= 1, got {num_channels}")
    if d % num_channels:
        raise ValueError(
            f"values width ({d}) must be a multiple of num_channels ({num_channels})"
        )
    if weight.shape != value.shape:
        raise ValueError(f"weights shape {weight.shape} != values shape {value.shape}")
    names: List[str] = ["value", "weight"]
    matrices: List[np.ndarray] = [value, weight]
    for name, extra in (extras or {}).items():
        matrix = _as_state_matrix(extra, num_nodes, f"extras[{name}]")
        if matrix.shape != value.shape:
            raise ValueError(
                f"extras[{name}] shape {matrix.shape} != values shape {value.shape}"
            )
        if name in ("value", "weight"):
            raise ValueError(f"extra component name {name!r} is reserved")
        names.append(name)
        matrices.append(matrix)
    return names, matrices


def ratios(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Element-wise ``values / weights`` with the zero-weight sentinel.

    Parameters
    ----------
    values, weights:
        Arrays of identical shape (any dimensionality).

    Returns
    -------
    numpy.ndarray
        ``values / weights`` where ``weights != 0``;
        :data:`UNDEFINED_RATIO` elsewhere.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.shape != weights.shape:
        raise ValueError(f"shape mismatch: values {values.shape} vs weights {weights.shape}")
    out = np.full_like(values, UNDEFINED_RATIO)
    np.divide(values, weights, out=out, where=weights != 0.0)
    return out


class MassCheck:
    """The per-step mass-conservation check of one gossip round.

    Mass conservation (Proposition A.1) is the core invariant of
    push-sum-style gossip. Both synchronous engines build one check
    from a round's initial ``(N, C)`` state and run it after every step,
    so an implementation bug surfaces as a loud failure, not a skewed
    result. Component ``name`` owns columns ``slices[name]``; its total
    may drift by ``MASS_RTOL * max(|initial|, 1) * max(1, sqrt(N * d))``,
    ``d`` being the component's width.

    Examples
    --------
    >>> import numpy as np
    >>> state = np.ones((4, 2))
    >>> check = MassCheck(state, {"value": slice(0, 1), "weight": slice(1, 2)})
    >>> check.verify(state, step=1)
    >>> state[0, 0] = 2.0
    >>> check.verify(state, step=2)
    Traceback (most recent call last):
    ...
    repro.core.errors.MassConservationError: component 'value' mass drifted from 4.0 to 5.0 at step 2
    """

    def __init__(self, state: np.ndarray, slices: Dict[str, slice]):
        n = state.shape[0]
        self._slices = slices
        self._initial = {
            name: float(state[:, sl].sum(dtype=np.float64)) for name, sl in slices.items()
        }
        self._bound = {
            name: MASS_RTOL
            * max(abs(self._initial[name]), 1.0)
            * max(1.0, np.sqrt(n * (sl.stop - sl.start)))
            for name, sl in slices.items()
        }

    def verify(self, state: np.ndarray, step: int) -> None:
        """Raise :class:`MassConservationError` if any component drifted."""
        # Per-slice strided sums: ~13x faster than one state.sum(axis=0)
        # pass (numpy's axis-0 reduce over a C-order matrix is a slow
        # strided inner loop).
        for name, sl in self._slices.items():
            total = float(state[:, sl].sum(dtype=np.float64))
            if abs(total - self._initial[name]) > self._bound[name]:
                raise MassConservationError(
                    f"component {name!r} mass drifted from {self._initial[name]!r} "
                    f"to {total!r} at step {step}"
                )
