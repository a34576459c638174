"""GossipTrust-style global reputation aggregation (ref. [17]).

Zhou, Hwang & Cai's GossipTrust computes one *global* reputation per
node: a reputation-weighted average of local trust scores, iterated to a
fixpoint (each aggregation cycle's sums are obtained by push gossip; the
fixpoint structure is what matters for the collusion comparison, so this
reference implementation computes the cycle sums exactly).

``R^{(c+1)}_j = sum_i R^{(c)}_i * t_ij / sum_i R^{(c)}_i``

Every peer ends up using the *same* value for a given node — precisely
the assumption the paper criticises, and what makes the scheme
collusion-prone: a colluding clique's mutual praise enters everyone's
estimate at full weight. :func:`unweighted_global_estimate` is the
single-cycle, weightless variant that the paper's collusion analysis
(eqs. 8–12) models as the "old" method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


def unweighted_global_estimate(trust: TrustMatrix, *, over_all_nodes: bool = True) -> np.ndarray:
    """Plain global average of feedback per target — eqs. 8–10's estimator.

    Parameters
    ----------
    trust:
        Local trust matrix (possibly already poisoned by colluders).
    over_all_nodes:
        Divide by ``N`` (eq. 8) rather than by the observer count.

    Returns
    -------
    numpy.ndarray
        Length-``N`` vector of global reputation estimates.
    """
    n = trust.num_nodes
    out = np.zeros(n, dtype=np.float64)
    for target in range(n):
        if over_all_nodes:
            out[target] = trust.column_mean_over_all(target)
        else:
            out[target] = trust.column_mean_over_observers(target)
    return out


@dataclass(frozen=True)
class GossipTrustResult:
    """Fixpoint solve outcome: the vector plus its convergence record."""

    values: np.ndarray
    iterations: int
    converged: bool


def gossip_trust_fixpoint(
    trust: TrustMatrix,
    *,
    max_cycles: int = 200,
    tolerance: float = 1e-10,
    initial: Optional[np.ndarray] = None,
    damping: float = 0.5,
    rng: RngLike = None,
) -> GossipTrustResult:
    """GossipTrust's reputation-weighted global fixpoint, with its convergence record.

    The iteration count is what the tournament leaderboard charges
    GossipTrust per aggregation cycle.

    Parameters
    ----------
    trust:
        Local trust matrix.
    max_cycles:
        Upper bound on aggregation cycles.
    tolerance:
        L1 movement below which the fixpoint is declared reached.
    initial:
        Starting reputation vector (default: uniform ``1/N``).
    damping:
        Mixing weight of the previous iterate, in ``[0, 1)``. Plain
        power iteration (``damping = 0``) oscillates forever on
        bipartite-like trust structures; averaging with the previous
        iterate kills the negative eigenvalue's oscillation while
        preserving the fixpoint.
    rng:
        Optional seed for a random positive starting vector (routed
        through :func:`repro.utils.rng.as_generator`; any
        ``RngLike`` — ``None``, int, ``Generator``, ``SeedSequence``).
        Ignored when ``initial`` is given. The damped power iteration's
        fixpoint is the principal eigenvector, so the seed perturbs the
        trajectory, not the limit.

    Returns
    -------
    GossipTrustResult
        ``values`` is the global reputation vector, normalised to sum
        to 1 (GossipTrust reports reputations as a ranking
        distribution); ``iterations`` counts the aggregation cycles run
        and ``converged`` says whether ``tolerance`` was met.

    Examples
    --------
    >>> t = TrustMatrix(3)
    >>> t.set(0, 1, 1.0); t.set(2, 1, 1.0); t.set(1, 0, 0.5)
    >>> r = gossip_trust_fixpoint(t).values
    >>> bool(r[1] > r[0] > r[2])
    True
    """
    check_positive(tolerance, "tolerance")
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must lie in [0, 1), got {damping!r}")
    n = trust.num_nodes
    dense = trust.to_dense()
    if initial is None and rng is not None:
        # Seeded-rng path: positive start bounded away from 0 so no
        # peer begins voiceless purely by draw; normalised like any
        # explicit initial vector.
        start = 0.5 + 0.5 * as_generator(rng).random(n)
        reputation = start / start.sum()
    elif initial is None:
        reputation = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        reputation = np.asarray(initial, dtype=np.float64).copy()
        if reputation.shape != (n,):
            raise ValueError(f"initial must have shape ({n},), got {reputation.shape}")
        if reputation.min() < 0:
            raise ValueError("initial reputations must be non-negative")
        total = reputation.sum()
        if total <= 0:
            raise ValueError("initial reputations must not be all zero")
        reputation /= total

    converged = False
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        weighted = reputation @ dense  # sum_i R_i * t_ij
        total = weighted.sum()
        if total <= 0:
            # Nobody trusts anybody: fall back to uniform, the fixpoint of
            # an empty feedback matrix.
            updated = np.full(n, 1.0 / n)
        else:
            updated = weighted / total
        updated = damping * reputation + (1.0 - damping) * updated
        if np.abs(updated - reputation).sum() <= tolerance:
            reputation = updated
            converged = True
            break
        reputation = updated
    return GossipTrustResult(values=reputation, iterations=cycles, converged=converged)
