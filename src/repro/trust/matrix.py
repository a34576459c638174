"""Sparse local trust matrix ``t_ij``.

Section 4 of the paper defines an ``N x N`` matrix where ``t_ij`` is the
trust node ``i`` places in node ``j`` from *direct interaction only*.
The matrix is sparse — a node transacts with a tiny fraction of the
network — so it is stored as a dict-of-dicts keyed by observer, with a
parallel by-target index so that "who has opined about ``j``" (the set
every gossip round starts from) is O(observers of j), not O(N^2).

Absent entries mean "never interacted". The paper maps that to an
initial trust of 0 to blunt whitewashing; the aggregation algorithms
distinguish "no entry" (gossip weight 0) from "entry with value 0.0"
(gossip weight 1), which is why the matrix keeps explicit zeros.

Column sums are exact. Every finite double is an integer multiple of
``2**-1074``, so a column read once keeps its sum as a Python int
scaled by ``2**1074``; ``set`` and ``discard`` then update it by
``new - old`` in O(1), and a read divides it back with CPython's
correctly rounded int/int division. A column sum is therefore
``math.fsum`` of the column — the same bits whatever order the entries
arrived in — and costs O(1) after the column's first read.

The dicts stay the one store; bulk work goes through an array face.
:meth:`TrustMatrix.from_arrays` builds a whole matrix from parallel
``(observers, targets, values)`` arrays with one vectorised validation
and one dict per row and one set per column — the same matrix, down to
every iteration order, as one :meth:`~TrustMatrix.set` per triple — and
every bulk builder below goes through it. :meth:`~TrustMatrix.to_arrays`
reads every entry back the same way, for the copies, the dense views and
eq. 6's neighbour terms (:mod:`repro.core.vector_gclr`).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.network.graph import Graph
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_probability, check_trust_value

#: A column accumulator holds its column's sum times this scale, exactly.
_SCALE = 1 << 1074


def _scaled(value: float) -> int:
    """``value * 2**1074`` as an exact int (any finite double)."""
    num, den = value.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _id_array(ids: Sequence[int], name: str) -> np.ndarray:
    """``ids`` as a 1-D int64 array; floats and other kinds are rejected."""
    array = np.asarray(ids)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer node ids, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


def _grouped(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group positions of ``keys`` by value.

    Returns ``(order, starts, ends)``: ``order[starts[g]:ends[g]]`` are
    the positions, ascending, of the ``g``-th distinct key, and the
    groups are listed in order of first appearance — the order one dict
    or set insert per key builds.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = np.r_[starts[1:], keys.size]
    by_appearance = np.argsort(order[starts])  # stable sort: order[start] is the first position
    return order, starts[by_appearance], ends[by_appearance]


def _last_write_wins(
    observers: np.ndarray, targets: np.ndarray, values: np.ndarray, n: int, narrow: np.dtype
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop repeated pairs: each keeps its first triple's place and its last value."""
    # Two stable passes sort the triples by (observer, target).
    order = np.argsort(targets.astype(narrow), kind="stable")
    order = order[np.argsort(observers.astype(narrow)[order], kind="stable")]
    pairs = observers[order] * n + targets[order]
    fresh = np.r_[True, pairs[1:] != pairs[:-1]]
    if fresh.all():
        return observers, targets, values
    first, last = order[fresh], order[np.r_[fresh[1:], True]]
    keep = np.zeros(observers.size, dtype=bool)
    keep[first] = True
    latest = values.copy()
    latest[first] = values[last]
    return observers[keep], targets[keep], latest[keep]


class TrustMatrix:
    """Sparse ``N x N`` matrix of direct-interaction trust values.

    Parameters
    ----------
    num_nodes:
        Number of peers ``N``; valid ids are ``0 .. N-1``.

    Examples
    --------
    >>> t = TrustMatrix(3)
    >>> t.set(0, 1, 0.8)
    >>> t.get(0, 1)
    0.8
    >>> t.get(1, 0)  # never interacted -> no trust
    0.0
    >>> sorted(t.observers_of(1))
    [0]

    A column's first :meth:`column_sum` builds its exact accumulator,
    so even a read writes to the matrix: share one between threads only
    under a lock (the reputation service reads and writes its matrix
    under the fold lock alone).
    """

    __slots__ = ("_num_nodes", "_rows", "_by_target", "_sums")

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._rows: Dict[int, Dict[int, float]] = {}
        self._by_target: Dict[int, set] = {}
        # target -> column sum * 2**1074, for columns read at least once.
        self._sums: Dict[int, int] = {}

    @classmethod
    def from_arrays(
        cls,
        num_nodes: int,
        observers: Sequence[int],
        targets: Sequence[int],
        values: Sequence[float],
    ) -> "TrustMatrix":
        """Build from parallel ``(observers, targets, values)`` arrays.

        The result equals calling :meth:`set` once per triple in array
        order: the same entries, the same :meth:`items` and row order,
        the same iteration order of every :meth:`observers_of` set, and
        the last value wins for a repeated pair. A bad triple raises the
        ``ValueError`` that :meth:`set` raises for the first bad one (an
        id outside ``0..N-1``, a self pair, or a value that is not a
        finite number in ``[0, 1]``), after one vectorised check of all.

        Every node id is one shared Python int in the rows and columns,
        so the build retains less than one ``set`` per triple does.

        Examples
        --------
        >>> t = TrustMatrix.from_arrays(4, [2, 0, 2], [1, 3, 1], [0.5, 0.25, 0.75])
        >>> list(t.items())  # (2, 1) keeps its first place and its last value
        [(2, 1, 0.75), (0, 3, 0.25)]
        >>> TrustMatrix.from_arrays(4, [0, 3], [1, 3], [0.5, 0.5])
        Traceback (most recent call last):
        ...
        ValueError: self-trust t[3,3] is not allowed
        """
        matrix = cls(num_nodes)
        n = matrix._num_nodes
        obs = _id_array(observers, "observers")
        tgt = _id_array(targets, "targets")
        vals = np.asarray(values, dtype=np.float64)
        if obs.ndim != 1 or not obs.shape == tgt.shape == vals.shape:
            raise ValueError(
                "observers, targets and values must be 1-D and of equal length, got shapes "
                f"{obs.shape}, {tgt.shape}, {vals.shape}"
            )
        if obs.size == 0:
            return matrix
        # NaN fails both comparisons, +-inf one of them.
        bad = (obs < 0) | (obs >= n) | (tgt < 0) | (tgt >= n) | (obs == tgt)
        bad |= ~((vals >= 0.0) & (vals <= 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            observer, target = int(obs[i]), int(tgt[i])
            matrix._check_pair(observer, target)
            check_trust_value(float(vals[i]), f"t[{observer},{target}]")

        # Stable sorts run on ids in the narrowest unsigned dtype, which
        # numpy radix-sorts when it has 8 or 16 bits (N <= 65536).
        narrow = np.min_scalar_type(n - 1)
        obs, tgt, vals = _last_write_wins(obs, tgt, vals, n, narrow)
        # One Python int per node id, shared by every row key and column member.
        ids = np.empty(n, dtype=object)
        ids[:] = range(n)
        order, starts, ends = _grouped(obs.astype(narrow))
        heads = ids[obs[order[starts]]].tolist()
        row_targets = ids[tgt[order]].tolist()
        row_values = vals[order].tolist()
        spans = zip(heads, starts.tolist(), ends.tolist())
        matrix._rows = {o: dict(zip(row_targets[a:b], row_values[a:b])) for o, a, b in spans}
        del row_targets, row_values  # the columns below set the peak
        order, starts, ends = _grouped(tgt.astype(narrow))
        heads = ids[tgt[order[starts]]].tolist()
        column_observers = ids[obs[order]].tolist()
        spans = zip(heads, starts.tolist(), ends.tolist())
        matrix._by_target = {t: set(column_observers[a:b]) for t, a, b in spans}
        return matrix

    # -- mutation -------------------------------------------------------------

    def set(self, observer: int, target: int, value: float) -> None:
        """Record ``t_{observer,target} = value``.

        Self-trust is rejected: a node has no use for an opinion about
        itself and the gossip protocol never transports one.
        """
        self._check_pair(observer, target)
        check_trust_value(value, f"t[{observer},{target}]")
        value = float(value)
        row = self._rows.setdefault(observer, {})
        acc = self._sums.get(target)
        if acc is not None:
            old = row.get(target)
            self._sums[target] = acc + _scaled(value) - (0 if old is None else _scaled(old))
        row[target] = value
        self._by_target.setdefault(target, set()).add(observer)

    def fold_report(self, observer: int, target: int, value: float) -> float:
        """Fold one streamed trust report; return the target's new aggregate.

        The ingest primitive of the reputation service
        (:mod:`repro.service`): the report overwrites
        ``t_{observer,target}`` — direct trust is the *latest* observed
        behaviour, not an average of stale reports — and the returned
        value is :meth:`column_mean_over_all` of ``target`` (eq. 1's
        ``R_global`` column aggregate), i.e. the published opinion the
        service re-announces for ``target``. Folding is pure state
        application and the aggregate is the correctly rounded exact
        column sum over ``N``, so any batching or ordering of the same
        final entries yields identical aggregates. After the column's
        first fold a report costs O(1), however many observers it has.

        Examples
        --------
        >>> t = TrustMatrix(4)
        >>> t.fold_report(0, 2, 0.8)
        0.2
        >>> round(t.fold_report(1, 2, 0.4), 6)
        0.3
        >>> round(t.fold_report(0, 2, 0.0), 6)  # observer 0 revises its report
        0.1
        """
        self.set(observer, target, value)
        return self.column_mean_over_all(target)

    def discard(self, observer: int, target: int) -> None:
        """Remove the ``(observer, target)`` entry if present."""
        row = self._rows.get(observer)
        if row is not None and target in row:
            value = row.pop(target)
            if not row:
                del self._rows[observer]
            observers = self._by_target[target]
            observers.discard(observer)
            if not observers:
                del self._by_target[target]
                self._sums.pop(target, None)
            elif target in self._sums:
                self._sums[target] -= _scaled(value)

    # -- queries --------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Matrix dimension ``N``."""
        return self._num_nodes

    @property
    def num_observations(self) -> int:
        """Number of explicit ``t_ij`` entries."""
        return sum(len(row) for row in self._rows.values())

    def get(self, observer: int, target: int, default: float = 0.0) -> float:
        """``t_{observer,target}``, or ``default`` if never interacted."""
        if observer == target:
            raise ValueError(f"self-trust t[{observer},{observer}] is undefined")
        self._check_ids(observer, target)
        return self._rows.get(observer, {}).get(target, default)

    def has(self, observer: int, target: int) -> bool:
        """Whether ``observer`` has an explicit opinion about ``target``."""
        self._check_ids(observer, target)
        return target in self._rows.get(observer, {})

    def row(self, observer: int) -> Dict[int, float]:
        """Copy of ``observer``'s opinions as ``{target: value}``."""
        self._check_ids(observer)
        return dict(self._rows.get(observer, {}))

    def column(self, target: int) -> Dict[int, float]:
        """All direct opinions about ``target`` as ``{observer: value}``."""
        self._check_ids(target)
        return {obs: self._rows[obs][target] for obs in self._by_target.get(target, ())}

    def observers_of(self, target: int) -> frozenset:
        """Set of nodes holding a direct opinion about ``target``."""
        self._check_ids(target)
        return frozenset(self._by_target.get(target, frozenset()))

    def column_sum(self, target: int) -> float:
        """``sum_i t_{i,target}`` over explicit observers, correctly rounded.

        Equals ``math.fsum(self.column(target).values())`` bit for bit,
        whatever order the entries were set in. The first read of a
        column costs O(observers) and builds its exact accumulator;
        every later read costs O(1).
        """
        self._check_ids(target)
        acc = self._sums.get(target)
        if acc is None:
            observers = self._by_target.get(target)
            if not observers:
                return 0.0
            acc = sum(_scaled(self._rows[obs][target]) for obs in observers)
            self._sums[target] = acc
        return acc / _SCALE

    def column_mean_over_observers(self, target: int) -> float:
        """Mean opinion about ``target`` over its observers (0.0 if none)."""
        total = self.column_sum(target)
        count = len(self._by_target.get(target, ()))
        return total / count if count else 0.0

    def column_mean_over_all(self, target: int) -> float:
        """Mean opinion about ``target`` over *all* ``N`` nodes (eq. 1).

        Non-observers contribute 0, matching the paper's
        ``R_global = (1/N) t^T 1`` definition.
        """
        return self.column_sum(target) / self._num_nodes

    def items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate all entries as ``(observer, target, value)``."""
        for observer, row in self._rows.items():
            for target, value in row.items():
                yield observer, target, value

    # -- conversions ----------------------------------------------------------

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry as ``(observers, targets, values)`` arrays, in :meth:`items` order.

        The inverse of :meth:`from_arrays`: ``from_arrays(N, *t.to_arrays())``
        rebuilds ``t`` with every iteration order intact. Fresh arrays on
        each call (the matrix keeps no cache), so the caller owns them.

        Examples
        --------
        >>> t = TrustMatrix.from_arrays(3, [2, 0, 2], [1, 2, 0], [0.5, 0.0, 0.25])
        >>> [array.tolist() for array in t.to_arrays()]
        [[2, 2, 0], [1, 0, 2], [0.5, 0.25, 0.0]]
        """
        rows = self._rows
        lengths = np.fromiter(map(len, rows.values()), dtype=np.int64, count=len(rows))
        count = int(lengths.sum())
        observers = np.repeat(np.fromiter(rows, dtype=np.int64, count=len(rows)), lengths)
        targets = np.fromiter(chain.from_iterable(rows.values()), dtype=np.int64, count=count)
        values = np.fromiter(
            chain.from_iterable(map(dict.values, rows.values())), dtype=np.float64, count=count
        )
        return observers, targets, values

    def to_dense(self) -> np.ndarray:
        """Dense ``(N, N)`` array with zeros for absent entries."""
        observers, targets, values = self.to_arrays()
        dense = np.zeros((self._num_nodes, self._num_nodes), dtype=np.float64)
        dense[observers, targets] = values
        return dense

    def observation_mask(self) -> np.ndarray:
        """Boolean ``(N, N)`` array: True where an explicit entry exists."""
        observers, targets, _ = self.to_arrays()
        mask = np.zeros((self._num_nodes, self._num_nodes), dtype=bool)
        mask[observers, targets] = True
        return mask

    def copy(self) -> "TrustMatrix":
        """Deep copy (attack models mutate copies, never originals)."""
        return self.resized(self._num_nodes)

    def resized(self, num_nodes: int) -> "TrustMatrix":
        """Deep copy with capacity grown to ``num_nodes``.

        Sybil-style attacks enlarge the world: the new identities get
        ids ``N .. num_nodes-1`` and start with no entries in either
        direction (strangers — the paper's implicit trust 0). Shrinking
        is rejected: entries about removed ids would dangle. The copy
        holds the entries in :meth:`items` order and no column sums.
        """
        if num_nodes < self._num_nodes:
            raise ValueError(
                f"cannot shrink a trust matrix from {self._num_nodes} to {num_nodes} nodes"
            )
        return TrustMatrix.from_arrays(num_nodes, *self.to_arrays())

    @classmethod
    def from_dense(cls, dense: np.ndarray, mask: Optional[np.ndarray] = None) -> "TrustMatrix":
        """Build from a dense array.

        Parameters
        ----------
        dense:
            Square array of trust values.
        mask:
            Optional boolean array selecting which entries are explicit
            observations; defaults to the non-zero entries of ``dense``
            (plus nothing on the diagonal).
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"dense trust matrix must be square, got shape {dense.shape}")
        mask = dense != 0.0 if mask is None else np.asarray(mask)
        if mask.shape != dense.shape:
            raise ValueError(f"mask shape {mask.shape} differs from dense shape {dense.shape}")
        observers, targets = np.nonzero(mask)
        off_diagonal = observers != targets
        observers, targets = observers[off_diagonal], targets[off_diagonal]
        return cls.from_arrays(dense.shape[0], observers, targets, dense[observers, targets])

    # -- internals ------------------------------------------------------------

    def _check_ids(self, *nodes: int) -> None:
        for node in nodes:
            if not 0 <= node < self._num_nodes:
                raise ValueError(f"node id {node} outside 0..{self._num_nodes - 1}")

    def _check_pair(self, observer: int, target: int) -> None:
        self._check_ids(observer, target)
        if observer == target:
            raise ValueError(f"self-trust t[{observer},{observer}] is not allowed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrustMatrix(num_nodes={self._num_nodes}, num_observations={self.num_observations})"


def _edge_pairs(graph: Graph) -> np.ndarray:
    """``(E, 2)`` array of the graph's edges in :meth:`Graph.edges` order."""
    rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    upper = rows < graph.indices
    return np.column_stack((rows[upper], graph.indices[upper]))


def complete_trust_matrix(num_nodes: int, *, rng: RngLike = None) -> TrustMatrix:
    """Fully observed trust matrix: every ordered pair has an opinion.

    Realises the paper's *heavily loaded* system model (Section 3) in the
    limit — every peer has transacted with every other, so each target
    has ``N - 1`` observers. Used by the collusion experiments, where a
    sparse observation pattern would let single colluders zero out a
    column and eq. 18's relative error would measure observation
    scarcity rather than the attack.
    """
    if num_nodes < 2:
        raise ValueError(f"num_nodes must be >= 2, got {num_nodes}")
    generator = as_generator(rng)
    # One (N, N) draw fills row by row: the stream of N row draws.
    values = generator.random((num_nodes, num_nodes))
    observers, targets = np.nonzero(~np.eye(num_nodes, dtype=bool))
    return TrustMatrix.from_arrays(num_nodes, observers, targets, values[observers, targets])


def random_trust_matrix(
    graph: Graph,
    *,
    edge_probability: float = 1.0,
    extra_pairs: int = 0,
    rng: RngLike = None,
) -> TrustMatrix:
    """Generate a plausible trust matrix over a topology.

    Interaction follows the overlay: each adjacent pair has interacted
    (and thus holds mutual opinions) with probability
    ``edge_probability``; ``extra_pairs`` additional random non-adjacent
    ordered pairs model past interactions with now-distant peers. Values
    are uniform in ``[0, 1]``, the paper's admissible range.

    The random stream, in order: below ``edge_probability=1`` one
    keep-or-drop draw per edge in :meth:`Graph.edges` order, then two
    value draws per kept edge, then the extra pairs one at a time.

    Parameters
    ----------
    graph:
        Overlay topology.
    edge_probability:
        Probability an edge carries mutual trust observations.
    extra_pairs:
        Number of additional random ordered observer/target pairs.
    rng:
        Seed / generator.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> trust = random_trust_matrix(example_network(), rng=5)
    >>> trust.num_nodes
    10
    >>> all(0.0 <= value <= 1.0 for _, _, value in trust.items())
    True
    """
    check_probability(edge_probability, "edge_probability")
    if extra_pairs < 0:
        raise ValueError(f"extra_pairs must be >= 0, got {extra_pairs}")
    generator = as_generator(rng)
    n = graph.num_nodes
    pairs = _edge_pairs(graph)
    if edge_probability < 1.0:
        pairs = pairs[generator.random(len(pairs)) < edge_probability]
    # One draw per opinion: t[u_i, v_i] takes draw 2i, t[v_i, u_i] draw 2i + 1.
    values = generator.random(2 * len(pairs))
    observers, targets = pairs.ravel(), pairs[:, ::-1].ravel()
    extra_observers, extra_targets, extra_values = [], [], []
    while len(extra_values) < extra_pairs:
        observer = int(generator.integers(n))
        target = int(generator.integers(n))
        if observer != target:
            extra_observers.append(observer)
            extra_targets.append(target)
            extra_values.append(generator.random())
    if extra_values:
        observers = np.concatenate((observers, extra_observers))
        targets = np.concatenate((targets, extra_targets))
        values = np.concatenate((values, extra_values))
    return TrustMatrix.from_arrays(n, observers, targets, values)
