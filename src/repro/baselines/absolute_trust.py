"""Absolute Trust baseline (Awasthi & Singh, arXiv:1601.01419).

Absolute Trust computes each peer's global trust as the fixpoint of a
*self-weighted* aggregation: the opinions about peer ``j`` are averaged
with weights equal to the current global trust of the evaluators
themselves,

``t_j = sum_{i in R_j} T_ij * t_i / sum_{i in R_j} t_i``

where ``R_j`` is the set of peers holding a direct opinion about ``j``.
Unlike EigenTrust there is no pre-trusted set and no normalisation to a
probability distribution — the map is scale-free (homogeneous of degree
zero in ``t``), and arXiv:1603.00589 shows the iteration converges to a
unique positive fixpoint on connected evaluation structures. That
uniqueness is what makes the seeded-rng path safe: any positive starting
vector reaches the same limit, so a random initial vector only perturbs
the trajectory, never the answer.

The convergence guard follows 1603.00589's analysis: plain fixpoint
iteration can slosh on near-bipartite evaluation structures, so when the
iterate's movement grows between consecutive iterations the solver
switches to damped iteration (averaging with the previous iterate, which
preserves the fixpoint) for the remainder of the run, and the iteration
count is always bounded by ``max_iterations``.

Peers nobody has evaluated keep trust ``0.0`` — the library-wide
zero-initial-trust newcomer convention
(:mod:`repro.trust.newcomer_policy`). Columns whose evaluators all sit
at zero trust fall back to the plain observer mean for that step (the
bootstrap step of the iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class AbsoluteTrustResult:
    """Fixpoint solve outcome: the vector plus its convergence record."""

    values: np.ndarray
    iterations: int
    converged: bool
    damped: bool


def absolute_trust_fixpoint(
    trust: TrustMatrix,
    *,
    max_iterations: int = 500,
    tolerance: float = 1e-10,
    rng: RngLike = None,
    initial: "np.ndarray | None" = None,
) -> AbsoluteTrustResult:
    """Solve the Absolute Trust fixpoint; return vector + iteration record.

    Parameters
    ----------
    trust:
        Local trust matrix (``T_ij`` = ``i``'s opinion of ``j``).
    max_iterations:
        Hard bound on fixpoint iterations (the 1603.00589 guard).
    tolerance:
        L-infinity movement below which the fixpoint is declared
        reached.
    rng:
        Seeds the positive random starting vector, routed through
        :func:`repro.utils.rng.as_generator`. ``None`` starts from the
        all-ones vector (deterministic). The fixpoint is unique, so the
        seed affects the trajectory only — pinned by
        ``tests/test_algorithms.py``.
    initial:
        Explicit starting vector (overrides ``rng``); must be positive.

    Examples
    --------
    >>> t = TrustMatrix(3)
    >>> t.set(0, 1, 1.0); t.set(2, 1, 0.8); t.set(1, 0, 0.4); t.set(1, 2, 0.4)
    >>> result = absolute_trust_fixpoint(t)
    >>> bool(result.converged)
    True
    >>> bool(result.values[1] > result.values[0])
    True
    """
    check_positive(tolerance, "tolerance")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    n = trust.num_nodes
    dense = trust.to_dense()
    mask = trust.observation_mask()
    counts = mask.sum(axis=0)
    observed = counts > 0
    # Plain observer mean: the bootstrap estimate for columns whose
    # evaluators currently carry zero trust mass.
    plain = np.where(observed, dense.sum(axis=0) / np.maximum(counts, 1), 0.0)

    if initial is not None:
        current = np.asarray(initial, dtype=np.float64).copy()
        if current.shape != (n,):
            raise ValueError(f"initial must have shape ({n},), got {current.shape}")
        if current.min() <= 0:
            raise ValueError("initial trust values must be positive")
    elif rng is not None:
        # Positive start bounded away from 0, so no evaluator begins
        # voiceless purely by draw.
        current = 0.5 + 0.5 * as_generator(rng).random(n)
    else:
        current = np.ones(n, dtype=np.float64)
    current = np.where(observed, current, 0.0)

    def step(t: np.ndarray) -> np.ndarray:
        weights = np.where(mask, t[:, None], 0.0)
        denom = weights.sum(axis=0)
        numer = (dense * weights).sum(axis=0)
        out = np.where(denom > 0, numer / np.where(denom == 0, 1.0, denom), plain)
        return np.where(observed, out, 0.0)

    converged = False
    damped = False
    iterations = 0
    previous_movement = np.inf
    for iterations in range(1, max_iterations + 1):
        updated = step(current)
        if damped:
            updated = 0.5 * (current + updated)
        movement = float(np.abs(updated - current).max()) if n else 0.0
        if movement <= tolerance:
            current = updated
            converged = True
            break
        if movement > previous_movement and not damped:
            # Movement grew — the oscillation signature 1603.00589's
            # analysis guards against. Damping halves the step while
            # preserving the fixpoint.
            damped = True
        previous_movement = movement
        current = updated
    return AbsoluteTrustResult(
        values=current, iterations=iterations, converged=converged, damped=damped
    )
