"""Gossip state primitives: pairs, ratios and mass accounting.

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import UnsupportedDtypeError

#: Gossip state precisions the vectorised engines implement. float64 is
#: the reference; float32 halves state memory traffic at ~1e-4-scale
#: relative drift over a round (bounded by the kernel parity suite).
SUPPORTED_STATE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def resolve_state_dtype(dtype) -> np.dtype:
    """Validate and normalise a gossip state dtype request.

    Raises
    ------
    repro.core.errors.UnsupportedDtypeError
        For any dtype outside :data:`SUPPORTED_STATE_DTYPES` — the
        engines never silently cast to a different precision.
    """
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_STATE_DTYPES:
        supported = ", ".join(str(d) for d in SUPPORTED_STATE_DTYPES)
        raise UnsupportedDtypeError(
            f"gossip state dtype {resolved} is not supported; choose one of: {supported}"
        )
    return resolved


#: Sentinel ratio used while a node's gossip weight is exactly zero
#: (paper: "otherwise u <- 10").
UNDEFINED_RATIO: float = 10.0

#: Relative tolerance for mass-conservation assertions. Each gossip step
#: performs O(N) float additions, so drift scales with N * eps.
MASS_RTOL: float = 1e-9

#: Mass-conservation tolerance for float32 gossip state. float32 eps is
#: ~2e-7 (9 decimal digits fewer than float64), so the same N-scaled
#: drift model needs a proportionally looser base tolerance.
MASS_RTOL_FLOAT32: float = 1e-5


def mass_rtol_for(dtype) -> float:
    """Base mass-conservation tolerance for a gossip state dtype."""
    return MASS_RTOL_FLOAT32 if np.dtype(dtype) == np.float32 else MASS_RTOL


def _as_state_matrix(
    array: np.ndarray, num_nodes: int, name: str, dtype=np.float64
) -> np.ndarray:
    """View a per-node state array as a ``(N, d)`` matrix of ``dtype``.

    No copy is made when ``array`` already has ``dtype``: the engines
    stack these views into a state matrix of their own, so the caller's
    arrays are never written.
    """
    out = np.asarray(array, dtype=dtype)
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
    dtype,
    num_channels: int,
) -> Tuple[List[str], List[np.ndarray]]:
    """Validated ``(names, matrices)`` of one round's gossip components.

    ``names`` starts ``["value", "weight"]`` followed by the extras in
    insertion order; every matrix is ``(N, d)`` with ``d`` a multiple of
    ``num_channels``. Component ``i`` of the stacked state owns columns
    ``[i*d, (i+1)*d)``.
    """
    value = _as_state_matrix(values, num_nodes, "values", dtype=dtype)
    weight = _as_state_matrix(weights, num_nodes, "weights", dtype=dtype)
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
        matrix = _as_state_matrix(extra, num_nodes, f"extras[{name}]", dtype=dtype)
        if matrix.shape != value.shape:
            raise ValueError(
                f"extras[{name}] shape {matrix.shape} != values shape {value.shape}"
            )
        if name in ("value", "weight"):
            raise ValueError(f"extra component name {name!r} is reserved")
        names.append(name)
        matrices.append(matrix)
    return names, matrices


@dataclass
class GossipPair:
    """A single node's gossip pair ``(value, weight)``.

    The message-level engine ships these between mailboxes; the
    vectorised engine stores the same quantities as array columns.
    """

    value: float
    weight: float

    def ratio(self) -> float:
        """Current estimate ``value / weight`` (sentinel when weight is 0)."""
        if self.weight == 0.0:
            return UNDEFINED_RATIO
        return self.value / self.weight

    def split(self, shares: int) -> "GossipPair":
        """One of ``shares`` equal fragments of this pair.

        A node making ``k`` pushes splits its pair into ``k + 1`` shares
        (one kept for itself), so ``shares = k + 1``.
        """
        if shares < 1:
            raise ValueError(f"shares must be >= 1, got {shares}")
        return GossipPair(self.value / shares, self.weight / shares)

    def __add__(self, other: "GossipPair") -> "GossipPair":
        return GossipPair(self.value + other.value, self.weight + other.weight)

    def __iadd__(self, other: "GossipPair") -> "GossipPair":
        self.value += other.value
        self.weight += other.weight
        return self


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


def assert_mass_conserved(
    initial_total: float,
    current: np.ndarray,
    *,
    label: str,
    rtol: float = MASS_RTOL,
) -> None:
    """Raise ``RuntimeError`` if gossip mass drifted beyond tolerance.

    Mass conservation (Proposition A.1) is the core invariant of
    push-sum-style gossip; both engines call this every step so that an
    implementation bug surfaces as a loud failure, not a skewed result.

    Parameters
    ----------
    initial_total:
        Sum of the component at round start.
    current:
        Current per-node component values.
    label:
        Human-readable component name for the error message.
    rtol:
        Relative tolerance (absolute when ``initial_total`` is 0).
    """
    total = float(np.asarray(current, dtype=np.float64).sum())
    scale = max(abs(initial_total), 1.0)
    if abs(total - initial_total) > rtol * scale:
        raise RuntimeError(
            f"gossip mass not conserved for {label}: "
            f"started at {initial_total!r}, now {total!r}"
        )
