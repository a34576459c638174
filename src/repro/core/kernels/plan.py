"""The push sampler: one flat slot layout and one ``sample`` method.

A :class:`PushPlan` lays out one *slot* per push over a CSR topology
and its push counts — node ``i`` owns ``k_i`` consecutive slots, senders
ascending — and draws every step's targets over the active slots only:

1. each active slot draws an exact offset into its sender's neighbour
   list (``rng.integers(degree)``), giving a CSR position; a sender with
   ``k_i = 1`` is done;
2. the positions of every sender with ``k_i >= 2`` and
   ``2 k_i <= degree`` are sorted together, and only the duplicates are
   redrawn, until each such sender holds ``k_i`` distinct positions;
3. a sender with ``k_i >= 2`` and ``2 k_i > degree``, where redrawing
   would repeat many times (a star hub with ``k = d`` is the coupon
   collector), drops its offsets and takes the ``k_i`` smallest of one
   random key per neighbour, in one ``lexsort`` over all such senders.

Both draws treat a sender's neighbours alike, so each ``k_i``-subset is
equally likely, and both leave each sender's targets in CSR order. The
sparse engine builds one plan over the graph's CSR arrays, and its push
kernel samples through it; the unfused reference step in the test suite
samples through the same method, so both consume the *same* generator
stream in the *same* order and draw byte-identical targets.

The plan is channel-oblivious by design: multi-channel gossip packs V
reputation channels into extra state *columns*, and a node pushes its
whole row to the same sampled targets regardless of width. One plan —
one generator stream, one draw per step — therefore serves any V, which
is exactly the amortization the channel axis buys (V channels share
every sampling draw that V sequential single-channel rounds would each
pay for).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.network.graph import csr_positions

#: Slot kinds beyond the plain single draw of a ``k_i = 1`` sender (0):
#: duplicates are redrawn, or the smallest keys are taken.
_REDRAW, _KEYED = 1, 2


class PushPlan:
    """Flat push-slot layout over one CSR topology and its push counts.

    Parameters
    ----------
    indptr, indices, degrees:
        The CSR arrays to sample over.
    push_counts:
        Per-row push counts ``k_i`` aligned with ``degrees``; rows with
        no neighbours never push.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        push_counts: np.ndarray,
    ):
        self.indices = indices
        self.degrees = degrees
        eligible = degrees > 0
        self.eligible_count = int(eligible.sum())
        counts = np.where(eligible, push_counts, 0)
        self.max_pushes = int(counts.sum())
        kinds = (counts >= 2).astype(np.int8)
        kinds[(kinds == _REDRAW) & (2 * counts > degrees)] = _KEYED
        self._senders = np.repeat(np.arange(degrees.size), counts)
        del counts  # node-sized scratch, dead before the slot arrays grow
        self._starts = indptr[self._senders]
        self._degrees = degrees[self._senders]
        self._kinds = kinds[self._senders]
        self._redraw = np.flatnonzero(self._kinds == _REDRAW)
        self._keyed = np.flatnonzero(self._kinds == _KEYED)
        # Every keyed sender's neighbour list, flattened: one key each.
        keyed_nodes = np.flatnonzero(kinds == _KEYED)
        self._key_positions = csr_positions(indptr, keyed_nodes)
        self._key_owners = np.repeat(keyed_nodes, degrees[keyed_nodes])
        self._key_counts = np.repeat(push_counts[keyed_nodes], degrees[keyed_nodes])

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
        sender appears ``k_i`` times, ascending by sender, with
        *distinct* targets drawn uniformly over the ``k_i``-subsets of
        its neighbourhood. ``all_active`` (when the caller already knows
        every eligible row is active) skips the active-slot gathers, and
        ``targets_out`` receives the targets instead of a new array.
        """
        if all_active is None:
            all_active = int(active.sum()) == self.eligible_count
        if all_active:
            senders, starts, degrees = self._senders, self._starts, self._degrees
            redraw, keyed = self._redraw, self._keyed
        else:
            slots = np.flatnonzero(active[self._senders])
            senders, starts, degrees = (
                self._senders[slots], self._starts[slots], self._degrees[slots]
            )
            kinds = self._kinds[slots]
            redraw = np.flatnonzero(kinds == _REDRAW) if self._redraw.size else self._redraw
            keyed = np.flatnonzero(kinds == _KEYED) if self._keyed.size else self._keyed
        # integers() is exact: offsets are in [0, degree) by construction
        # (float scaling could round up to degree).
        positions = rng.integers(degrees)
        positions += starts
        if redraw.size:
            positions[redraw] = _distinct_positions(
                rng, positions[redraw], redraw, starts, degrees
            )
        if keyed.size:
            positions[keyed] = self._smallest_keys(rng, None if all_active else active)
        if targets_out is None:
            return senders, self.indices[positions]
        targets = targets_out[: senders.size]
        np.take(self.indices, positions, out=targets)
        return senders, targets

    def _smallest_keys(self, rng: np.random.Generator, active: Optional[np.ndarray]) -> np.ndarray:
        """CSR positions of the ``k_i`` smallest keys of each active keyed sender."""
        owners, positions, counts = self._key_owners, self._key_positions, self._key_counts
        if active is not None:
            keep = active[owners]
            owners, positions, counts = owners[keep], positions[keep], counts[keep]
        order = np.lexsort((rng.random(owners.size), owners))
        # Owners ascend, so the lexsort keeps each sender's run where it
        # was and only orders its keys: a key's rank is its place in the run.
        run_starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        run_lengths = np.diff(np.r_[run_starts, owners.size])
        rank = np.arange(owners.size) - np.repeat(run_starts, run_lengths)
        chosen = np.zeros(owners.size, dtype=bool)
        chosen[order[rank < counts]] = True
        return positions[chosen]


def _distinct_positions(
    rng: np.random.Generator,
    positions: np.ndarray,
    slots: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
) -> np.ndarray:
    """Redraw duplicate ``positions`` until every sender's are distinct.

    ``positions[j]`` was drawn for slot ``slots[j]``. Each sender's
    positions lie in its own CSR range and senders ascend, so one sort
    orders every sender's run in place and leaves duplicates adjacent;
    only the later copy of each is redrawn.
    """
    while True:
        positions.sort()
        dup = np.flatnonzero(positions[1:] == positions[:-1]) + 1
        if not dup.size:
            return positions
        redo = slots[dup]
        positions[dup] = starts[redo] + rng.integers(degrees[redo])
