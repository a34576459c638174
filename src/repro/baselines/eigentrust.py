"""EigenTrust baseline (Kamvar, Schlosser & Garcia-Molina, WWW'03).

EigenTrust computes global trust as the principal left eigenvector of
the row-normalised local trust matrix ``C``, damped toward a
distribution ``p`` over *pre-trusted peers*:

``t^{(k+1)} = (1 - alpha) * C^T t^{(k)} + alpha * p``

The paper's related-work section criticises exactly this dependence on
pre-trusted peers ("scalable to a limited extent"); the implementation
is here so experiments can quantify that comparison — e.g. how the
estimate degrades when pre-trusted peers are themselves colluders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_probability


def _row_normalise(dense: np.ndarray, pretrusted_distribution: np.ndarray) -> np.ndarray:
    """EigenTrust's ``c_ij = max(t_ij, 0) / sum_j max(t_ij, 0)``.

    Rows with no positive opinion fall back to the pre-trusted
    distribution, as in the original paper.
    """
    clipped = np.clip(dense, 0.0, None)
    row_sums = clipped.sum(axis=1, keepdims=True)
    out = np.where(row_sums > 0, clipped / np.where(row_sums == 0, 1.0, row_sums), 0.0)
    empty_rows = (row_sums.reshape(-1) == 0)
    if empty_rows.any():
        out[empty_rows] = pretrusted_distribution
    return out


@dataclass(frozen=True)
class EigenTrustResult:
    """Fixpoint solve outcome: the vector plus its convergence record."""

    values: np.ndarray
    iterations: int
    converged: bool


def eigentrust_fixpoint(
    trust: TrustMatrix,
    *,
    pretrusted: Optional[Sequence[int]] = None,
    alpha: float = 0.1,
    max_iterations: int = 1000,
    tolerance: float = 1e-12,
    rng: RngLike = None,
) -> EigenTrustResult:
    """Global EigenTrust vector by power iteration, with its convergence record.

    Parameters
    ----------
    trust:
        Local trust matrix.
    pretrusted:
        Ids of pre-trusted peers. Defaults to node 0 — EigenTrust
        *requires* a non-empty pre-trusted set for convergence
        guarantees, which is precisely the deployment burden the paper
        criticises.
    alpha:
        Damping weight toward the pre-trusted distribution, in [0, 1].
    max_iterations, tolerance:
        Power-iteration controls (L1 movement below ``tolerance`` stops
        the iteration). The map contracts by ``1 - alpha`` per step and
        the first movement is at most 2, so at the default ``alpha`` and
        ``tolerance`` a solve can take ``ceil(ln(5e-13) / ln(0.9)) = 269``
        steps; the default cap leaves room for that.
    rng:
        Optional seed for a random starting distribution instead of
        ``p`` (any ``RngLike``; routed through
        :func:`repro.utils.rng.as_generator`). The damped map is an L1
        contraction with factor ``1 - alpha``, so its fixpoint is unique
        and the seed never changes the answer beyond ``tolerance``.

    Returns
    -------
    EigenTrustResult
        ``values`` is the global trust distribution (non-negative, sums
        to 1); ``iterations`` and ``converged`` record the solve.

    Examples
    --------
    >>> t = TrustMatrix(3)
    >>> t.set(0, 1, 1.0); t.set(2, 1, 1.0); t.set(1, 2, 0.2)
    >>> scores = eigentrust_fixpoint(t, pretrusted=[0]).values
    >>> int(np.argmax(scores))
    1
    """
    check_probability(alpha, "alpha")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    n = trust.num_nodes
    if pretrusted is None:
        pretrusted = [0]
    pretrusted = list(pretrusted)
    if not pretrusted:
        raise ValueError("pretrusted must contain at least one node id")
    if any(not 0 <= p < n for p in pretrusted):
        raise ValueError(f"pretrusted ids must lie in 0..{n - 1}, got {pretrusted}")

    p = np.zeros(n, dtype=np.float64)
    p[pretrusted] = 1.0 / len(pretrusted)
    c = _row_normalise(trust.to_dense(), p)

    if rng is not None:
        # Seeded-rng path: a random positive starting distribution.
        start = 0.5 + 0.5 * as_generator(rng).random(n)
        scores = start / start.sum()
    else:
        scores = p.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        updated = (1.0 - alpha) * (c.T @ scores) + alpha * p
        if np.abs(updated - scores).sum() <= tolerance:
            scores = updated
            converged = True
            break
        scores = updated
    total = scores.sum()
    values = scores / total if total > 0 else scores
    return EigenTrustResult(values=values, iterations=iterations, converged=converged)
