"""Shared sampling structures for the push-round kernel.

A :class:`PushPlan` holds everything target sampling needs for one CSR
topology + push-count assignment: the ``k = 1`` fast-path arrays, the
padded ``(k, degree-band)`` groups, and the precomputed full-active
flat sender layout. The sparse engine builds one over the graph's CSR
arrays, and its push kernel samples through it. Sampling lives apart
from the share/scatter arithmetic, so any kernel sampling through the
same plan draws byte-identical targets at a fixed seed (it consumes the
*same* generator stream in the *same* order) — which is what lets the
fused kernel be checked against the historical unfused step.

The plan is channel-oblivious by design: multi-channel gossip packs V
reputation channels into extra state *columns*, and a node pushes its
whole row to the same sampled targets regardless of width. One plan —
one generator stream, one draw per step — therefore serves any V, which
is exactly the amortization the channel axis buys (V channels share
every sampling draw that V sequential single-channel rounds would each
pay for).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


class PaddedGroup:
    """Padded sampling state for rows sharing one push count ``k >= 2``.

    ``padded_neighbors[r]`` holds row ``nodes[r]``'s neighbour list
    right-padded to the group's width; ``invalid`` marks padding slots;
    ``keys`` is the reusable random-key scratch buffer. Identical in
    layout to the engines' historical per-group structures — groups are
    built per (k, degree band) so padding stays within 2x of every
    member's degree and total padded storage is O(E).
    """

    __slots__ = ("k", "nodes", "padded_neighbors", "invalid", "keys", "row_index")

    def __init__(
        self,
        k: int,
        nodes: np.ndarray,
        degrees: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ):
        self.k = int(k)
        self.nodes = nodes
        node_degrees = degrees[nodes]
        width = int(node_degrees.max())
        starts = indptr[nodes]
        cols = np.arange(width, dtype=np.int64)
        slots = starts[:, None] + cols[None, :]
        valid = cols[None, :] < node_degrees[:, None]
        # Clamp padding reads into range; the values there are never used.
        slots[~valid] = 0
        self.padded_neighbors = indices[slots]
        self.invalid = ~valid
        self.keys = np.empty((nodes.size, width), dtype=np.float64)
        self.row_index = np.arange(nodes.size)


class PushPlan:
    """Sampling plan over one CSR topology: k=1 arrays + padded groups.

    Parameters
    ----------
    indptr, indices, degrees:
        The CSR arrays to sample over.
    push_counts:
        Per-row push counts ``k_i`` aligned with ``degrees``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        push_counts: np.ndarray,
    ):
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        eligible = degrees > 0
        self.eligible_count = int(eligible.sum())
        self.k1_nodes = np.flatnonzero(eligible & (push_counts == 1))
        # Precomputed full-active gathers: the k=1 population never
        # changes, only the per-step active subset does, and on steps
        # where every eligible node is active (every run_to_max step,
        # and every step before the first node stops) these replace two
        # fancy gathers per step.
        self.k1_starts = indptr[self.k1_nodes]
        self.k1_degrees = degrees[self.k1_nodes]
        self._k1_slots = np.empty(self.k1_nodes.size, dtype=np.int64)
        self.groups: List[PaddedGroup] = []
        for k in np.unique(push_counts[eligible & (push_counts >= 2)]):
            nodes = np.flatnonzero(push_counts == k)
            # Sub-bucket by degree scale (powers of two): one huge hub
            # sharing k with thousands of low-degree nodes must not
            # widen every row of their padded matrix to its degree.
            bands = np.ceil(np.log2(degrees[nodes])).astype(np.int64)
            for band in np.unique(bands):
                self.groups.append(
                    PaddedGroup(int(k), nodes[bands == band], degrees, indptr, indices)
                )
        self.max_pushes = int(push_counts[eligible].sum())
        # Full-active flat sender layout: [k1 block][group0 rows*k][...].
        chunks = [self.k1_nodes]
        chunks.extend(np.repeat(g.nodes, g.k) for g in self.groups)
        self.senders_full = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        # Simple-graph invariant (no self-loops): lets the no-loss heard
        # pass scatter targets directly instead of comparing to senders.
        n = degrees.shape[0]
        if indices.size:
            owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            self.no_self_loops = not bool(np.any(indices[: owners.size] == owners))
        else:
            self.no_self_loops = True

    def sample_full_active(
        self, rng: np.random.Generator, targets_out: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw targets for every eligible node into ``targets_out``.

        Consumes the generator stream identically to
        :meth:`sample_subset` with an all-eligible mask, but writes into
        a preallocated flat buffer (no per-group temporaries or final
        concatenation) and skips the active-subset gathers.

        Returns ``(senders, targets)`` — views over the precomputed
        sender layout and ``targets_out``.
        """
        pos = self.k1_nodes.size
        if pos:
            # integers() is exact: offsets are in [0, degree) by
            # construction (float scaling could round up to degree).
            offsets = rng.integers(self.k1_degrees)
            np.add(self.k1_starts, offsets, out=self._k1_slots)
            np.take(self.indices, self._k1_slots, out=targets_out[:pos])
        for group in self.groups:
            keys = group.keys
            rng.random(out=keys)
            np.copyto(keys, np.inf, where=group.invalid)
            k = group.k
            rows = group.nodes.size
            segment = targets_out[pos : pos + rows * k].reshape(rows, k)
            # The k smallest of a row's iid-uniform keys are a uniform
            # k-subset of its valid slots. k repeated row-wise argmin
            # passes (~2.5x faster than argpartition for the small k
            # that dominate real degree sequences) gather each pass's
            # neighbours straight into the flat target buffer: same
            # subsets as sample_subset, in ascending-key order.
            row_index = group.row_index
            padded = group.padded_neighbors
            for j in range(k):
                chosen = np.argmin(keys, axis=1)
                segment[:, j] = padded[row_index, chosen]
                if j < k - 1:
                    keys[row_index, chosen] = np.inf
            pos += rows * k
        return self.senders_full, targets_out[:pos]

    def sample_subset(
        self, rng: np.random.Generator, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw targets for the ``active`` subset.

        The historical chunk-and-concatenate path, byte-faithful to the
        pre-kernel sparse engine (``argpartition`` selection included):
        the historical unfused step sampled this way on every step, the
        fused kernel does only once some nodes have stopped and the
        per-step active gathers become unavoidable.
        """
        sender_chunks: List[np.ndarray] = []
        target_chunks: List[np.ndarray] = []
        k1 = self.k1_nodes[active[self.k1_nodes]]
        if k1.size:
            offsets = rng.integers(self.degrees[k1])
            target_chunks.append(self.indices[self.indptr[k1] + offsets])
            sender_chunks.append(k1)
        for group in self.groups:
            rows = np.flatnonzero(active[group.nodes])
            if not rows.size:
                continue
            keys = group.keys[: rows.size]
            rng.random(out=keys)
            keys[group.invalid[rows]] = np.inf
            cols = np.argpartition(keys, group.k - 1, axis=1)[:, : group.k]
            chosen = group.padded_neighbors[rows[:, None], cols]
            target_chunks.append(chosen.ravel())
            sender_chunks.append(np.repeat(group.nodes[rows], group.k))
        if not sender_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(sender_chunks), np.concatenate(target_chunks)

    def sample(
        self,
        rng: np.random.Generator,
        active: np.ndarray,
        *,
        all_active: Optional[bool] = None,
        targets_out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Random push targets for the active rows.

        ``senders[p]`` pushes one share to ``targets[p]``; each active
        sender appears ``k_i`` times with *distinct* targets, uniformly
        over the ``k_i``-subsets of its neighbourhood. ``all_active``
        (when the caller already knows the active count) and
        ``targets_out`` enable the no-temporaries fast path.
        """
        if all_active is None:
            all_active = int(active.sum()) == self.eligible_count
        if all_active and targets_out is not None:
            return self.sample_full_active(rng, targets_out)
        return self.sample_subset(rng, active)
