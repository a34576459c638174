"""Sharded multi-process differential-gossip engine.

The CSR sparse engine executes a whole gossip step in one process; on
million-peer overlays the per-step work — random sort keys over every
padded neighbour slot, ``argpartition``, share gathering, scatter-adds —
saturates a single core long before memory does. This engine partitions
that work horizontally:

- the graph is split into ``num_shards`` contiguous node shards with an
  edge-balanced cut (:mod:`repro.network.partition`);
- each worker process executes the push step for its shards over
  shared-memory state buffers (``multiprocessing.shared_memory``): it
  samples targets for its own nodes, gathers the pre-split shares and
  accumulates them into a shard-local contribution buffer whose rows
  are the shard's owned nodes followed by its *halo* (the foreign
  nodes its pushes can reach);
- a second phase merges: each destination shard scales its own state
  rows and adds the contribution rows aimed at it — its own buffer
  first, then every other shard's halo slice in ascending shard order.

Because each shard draws from its own spawned child stream
(``SeedSequence`` child ``s`` for shard ``s``) and the merge order is
fixed, outcomes are **byte-identical for any worker count** — workers
only change which process executes a shard, never what it computes.
Results depend on ``(seed, num_shards)`` alone; ``num_shards`` defaults
to a size-independent constant so the same seed reproduces the same
round everywhere. Like every other backend pair, the sharded and sparse
engines consume randomness differently, so they agree on the fixpoint
(to the cross-backend 1e-8 bar) while taking different trajectories.

Semantics are otherwise identical to
:class:`repro.core.sparse_engine.SparseGossipEngine`: the same
:class:`repro.core.convergence.ConvergenceProtocol` stop rule, the same
mass-conservation assertions, the same drained-ratio carry, the same
``GossipOutcome``. Packet loss is supported through ``loss_probability``
(each shard derives its own loss stream from the seed); an explicit
:class:`~repro.network.churn.PacketLossModel` instance carries
unsplittable generator state and is rejected.

The engine offers three executors over the *same* shard schedule:
``"inline"`` (shard-by-shard in the calling thread — no processes, no
shared memory), ``"threads"`` (a persistent thread pool scattering into
per-shard slices of one in-process state array — numpy releases the GIL
across the sampling/scatter hot path, and no halo bytes ever cross a
process boundary), and ``"processes"`` (the shared-memory worker pool
described above). Because every executor runs the identical per-shard
streams and the identical fixed-order merge, all three return
byte-identical outcomes; the default policy picks inline for one worker
and processes otherwise. Gossip state is ``float64`` by default;
``dtype=np.float32`` halves state and contribution-buffer traffic while
sampling keys stay float64 (target draws are dtype-independent).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.convergence import (
    ConvergenceProtocol,
    channel_deviations,
    deviation_vector,
)
from repro.core.differential import resolve_push_counts
from repro.core.errors import ConvergenceError, MassConservationError
from repro.core.results import GossipOutcome
from repro.core.sparse_engine import _coerce_graph
from repro.core.state import mass_rtol_for, ratios, resolve_state_dtype, state_components
from repro.network.graph import Graph
from repro.network.partition import GraphPartition, ShardView, partition_graph
from repro.utils.hardware import usable_cpu_count
from repro.utils.rng import RngLike, stateless_child_sequence

#: Default shard count. Deliberately a size-independent constant: results
#: depend on (seed, num_shards), so a fixed default makes the same seed
#: reproduce the same round on every machine and worker count.
DEFAULT_NUM_SHARDS = 8

#: Below this node count the default worker policy runs the shard
#: schedule inline (process startup would dwarf the round itself).
SHARDED_INLINE_MAX_NODES = 150_000

#: Upper bound of the default worker policy for large graphs.
DEFAULT_MAX_WORKERS = 4

#: Spawn-key offset of per-shard packet-loss streams. Shard target
#: streams use keys 0..num_shards-1 (exactly what SeedSequence.spawn
#: would hand out); loss streams sit far above so they never collide.
SHARD_LOSS_STREAM_KEY = 0x10055000

#: Recognised executor names (``None`` means "pick by worker count").
EXECUTOR_NAMES = ("inline", "threads", "processes")


class _LocalPushGroup:
    """Padded sampling state for shard rows sharing one push count ``k >= 2``.

    The shard-local sibling of
    :class:`repro.core.sparse_engine._PushGroup`: rows are shard-local
    row numbers, padded neighbour entries are shard-local target ids
    (owned-first, halo after), so a draw indexes the shard's
    contribution buffer directly.
    """

    __slots__ = ("k", "rows", "padded_targets", "invalid", "keys")

    def __init__(
        self,
        k: int,
        rows: np.ndarray,
        degrees: np.ndarray,
        indptr_local: np.ndarray,
        indices_local: np.ndarray,
    ):
        self.k = int(k)
        self.rows = rows
        row_degrees = degrees[rows]
        width = int(row_degrees.max())
        cols = np.arange(width, dtype=np.int64)
        slots = indptr_local[rows][:, None] + cols[None, :]
        valid = cols[None, :] < row_degrees[:, None]
        slots[~valid] = 0
        self.padded_targets = indices_local[slots]
        self.invalid = ~valid
        self.keys = np.empty((rows.size, width), dtype=np.float64)


class _ShardSampler:
    """Per-shard push execution: target sampling + contribution build.

    Holds everything one shard needs for phase A of a step: the
    shard-local CSR view, padded sampling groups split by (k, degree
    band) exactly like the sparse engine, the shard's spawned random
    stream, and its loss stream. Instances live in the worker process
    that owns the shard (or in the parent, on the inline path).
    """

    def __init__(
        self,
        view: ShardView,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        push_counts: np.ndarray,
        inv_k_plus_one: np.ndarray,
        seed_root: np.random.SeedSequence,
        loss_probability: float,
        num_cols: int,
        dtype=np.float64,
    ):
        self.view = view
        lo, hi = view.lo, view.hi
        self.lo = lo
        self._degrees = np.asarray(degrees[lo:hi], dtype=np.int64)
        self._inv_k_plus_one = inv_k_plus_one
        self._indptr_local, self._indices_local = view.local_csr(indptr, indices)
        k = np.asarray(push_counts[lo:hi], dtype=np.int64)
        eligible = self._degrees > 0
        self._k1_rows = np.flatnonzero(eligible & (k == 1))
        self._groups: List[_LocalPushGroup] = []
        for kv in np.unique(k[eligible & (k >= 2)]):
            rows = np.flatnonzero(eligible & (k == kv))
            bands = np.ceil(np.log2(self._degrees[rows])).astype(np.int64)
            for band in np.unique(bands):
                self._groups.append(
                    _LocalPushGroup(
                        int(kv),
                        rows[bands == band],
                        self._degrees,
                        self._indptr_local,
                        self._indices_local,
                    )
                )
        self._rng = np.random.default_rng(stateless_child_sequence(seed_root, view.index))
        self._loss_probability = float(loss_probability)
        self._loss_rng = (
            np.random.default_rng(
                stateless_child_sequence(seed_root, SHARD_LOSS_STREAM_KEY + view.index)
            )
            if self._loss_probability > 0.0
            else None
        )
        max_pushes = int(self._k1_rows.size) + sum(
            group.rows.size * group.k for group in self._groups
        )
        self._shares_buf = np.empty((max_pushes, num_cols), dtype=dtype)
        #: Wall seconds the last :meth:`compute` spent choosing targets
        #: and building contributions respectively (phase breakdown).
        self.last_sample_seconds = 0.0
        self.last_build_seconds = 0.0

    def compute(
        self,
        state: np.ndarray,
        active: np.ndarray,
        contrib: np.ndarray,
        heard: np.ndarray,
    ) -> int:
        """Phase A for this shard: sample targets, accumulate contributions.

        Reads the (pre-scale) global ``state`` and the ``active`` mask;
        writes the shard's ``contrib`` (local rows × components) and
        ``heard`` (local rows) buffers. Returns the number of pushes.
        """
        tick = time.perf_counter()
        active_local = active[self.lo : self.lo + self.view.owned_size]
        sender_chunks: List[np.ndarray] = []
        target_chunks: List[np.ndarray] = []

        k1 = self._k1_rows[active_local[self._k1_rows]]
        if k1.size:
            offsets = self._rng.integers(self._degrees[k1])
            target_chunks.append(self._indices_local[self._indptr_local[k1] + offsets])
            sender_chunks.append(k1)

        for group in self._groups:
            rows = np.flatnonzero(active_local[group.rows])
            if not rows.size:
                continue
            k = group.k
            keys = group.keys[: rows.size]
            self._rng.random(out=keys)
            keys[group.invalid[rows]] = np.inf
            chosen_cols = np.argpartition(keys, k - 1, axis=1)[:, :k]
            chosen = group.padded_targets[rows[:, None], chosen_cols]
            target_chunks.append(chosen.ravel())
            sender_chunks.append(np.repeat(group.rows[rows], k))

        heard[:] = False
        if not sender_chunks:
            contrib[:] = 0.0
            self.last_sample_seconds = time.perf_counter() - tick
            self.last_build_seconds = 0.0
            return 0
        senders_local = np.concatenate(sender_chunks)
        targets_local = np.concatenate(target_chunks)
        if self._loss_rng is not None:
            lost = self._loss_rng.random(targets_local.shape[0]) < self._loss_probability
            # Mass-conserving self-redirect: the sender's own local id
            # is its row number (owned nodes come first).
            targets_local = np.where(lost, senders_local, targets_local)
            delivered = targets_local[~lost]
        else:
            delivered = targets_local
        tock = time.perf_counter()
        self.last_sample_seconds = tock - tick
        senders_global = senders_local + self.lo
        shares = self._shares_buf[: senders_local.size]
        np.multiply(
            state[senders_global], self._inv_k_plus_one[senders_global, None], out=shares
        )
        length = contrib.shape[0]
        for c in range(contrib.shape[1]):
            # minlength == buffer length, so the assignment overwrites
            # every row — no separate zeroing pass over the buffer.
            contrib[:, c] = np.bincount(targets_local, weights=shares[:, c], minlength=length)
        heard[delivered] = True
        self.last_build_seconds = time.perf_counter() - tock
        return int(senders_local.size)


def _merge_destination(
    destination: int,
    views: Sequence[ShardView],
    state: np.ndarray,
    active: np.ndarray,
    inv_k_plus_one: np.ndarray,
    contribs: Sequence[np.ndarray],
    heards: Sequence[np.ndarray],
    heard_global: np.ndarray,
) -> None:
    """Phase B for one destination shard: scale + halo exchange.

    Scales the destination's own state rows (active senders keep their
    self-share), then adds incoming contributions in a fixed order —
    the destination's own buffer first, then every other shard's halo
    slice in ascending shard index. The order never depends on worker
    scheduling, so the floating-point result is byte-deterministic.
    Writes touch only rows ``[lo, hi)``, which no other destination
    owns, so phase B runs shard-parallel without races.
    """
    view = views[destination]
    lo, hi = view.lo, view.hi
    heard_rows = heard_global[lo:hi]
    heard_rows[:] = False
    if hi == lo:
        return
    rows = state[lo:hi]
    scale = np.where(active[lo:hi], inv_k_plus_one[lo:hi], 1.0)
    rows *= scale[:, None]
    own = view.owned_size
    rows += contribs[destination][:own]
    heard_rows |= heards[destination][:own]
    num_cols = rows.shape[1]
    for s, other in enumerate(views):
        if s == destination:
            continue
        a, b = int(other.halo_slices[destination]), int(other.halo_slices[destination + 1])
        if a == b:
            continue
        idx = other.halo[a:b] - lo
        chunk = contribs[s][other.owned_size + a : other.owned_size + b]
        # Halo ids are unique, so a fancy add would be equivalent —
        # but per-column ufunc.at hits numpy's fast path and runs ~5x
        # faster than the 2-D gather/scatter on million-row shards.
        for c in range(num_cols):
            np.add.at(rows[:, c], idx, chunk[:, c])
        heard_rows[idx] |= heards[s][other.owned_size + a : other.owned_size + b]


# -- worker process ----------------------------------------------------------


def _attach(shm: shared_memory.SharedMemory, shape: Tuple[int, ...], dtype) -> np.ndarray:
    return np.ndarray(shape, dtype=dtype, buffer=shm.buf)


def _untrack(shm: shared_memory.SharedMemory, start_method: str) -> None:
    """Detach ``shm`` from the worker's resource tracker where needed.

    Workers only *attach* to segments the parent owns, but on
    Python < 3.13 attaching still registers with the resource tracker.
    Under ``spawn``/``forkserver`` the worker runs its own tracker,
    which would unlink the segment when the worker exits — unregister
    there. Under ``fork`` the tracker process is shared with the
    parent (the attach-register was a set no-op), so unregistering
    would strip the parent's own entry.
    """
    if start_method == "fork":
        return
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def _shard_worker_main(
    conn,
    worker_index: int,
    num_workers: int,
    views: List[ShardView],
    graph_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray],
    push_counts: np.ndarray,
    inv_k_plus_one: np.ndarray,
    seed_root: np.random.SeedSequence,
    loss_probability: float,
    num_cols: int,
    n: int,
    offsets: np.ndarray,
    shm_names: Dict[str, str],
    start_method: str,
    dtype_name: str = "float64",
) -> None:
    """Worker loop: build this worker's samplers, then serve A/B phases."""
    indptr, indices, degrees = graph_arrays
    num_shards = len(views)
    total_local = int(offsets[-1])
    dtype = np.dtype(dtype_name)
    shms = {name: shared_memory.SharedMemory(name=value) for name, value in shm_names.items()}
    try:
        for shm in shms.values():
            _untrack(shm, start_method)
        state = _attach(shms["state"], (n, num_cols), dtype)
        active = _attach(shms["active"], (n,), np.bool_)
        heard_global = _attach(shms["heard"], (n,), np.bool_)
        contrib_flat = _attach(shms["contrib"], (total_local, num_cols), dtype)
        heard_flat = _attach(shms["shard_heard"], (total_local,), np.bool_)
        pushes = _attach(shms["pushes"], (num_shards,), np.int64)
        timings = _attach(shms["timings"], (num_shards, 2), np.float64)
        contribs = [contrib_flat[offsets[s] : offsets[s + 1]] for s in range(num_shards)]
        heards = [heard_flat[offsets[s] : offsets[s + 1]] for s in range(num_shards)]
        mine = [s for s in range(num_shards) if s % num_workers == worker_index]
        samplers = {
            s: _ShardSampler(
                views[s],
                indptr,
                indices,
                degrees,
                push_counts,
                inv_k_plus_one,
                seed_root,
                loss_probability,
                num_cols,
                dtype,
            )
            for s in mine
        }
        conn.send("ready")
        while True:
            message = conn.recv()
            if message == "A":
                for s in mine:
                    sampler = samplers[s]
                    pushes[s] = sampler.compute(state, active, contribs[s], heards[s])
                    timings[s, 0] = sampler.last_sample_seconds
                    timings[s, 1] = sampler.last_build_seconds
                conn.send("a")
            elif message == "B":
                for d in mine:
                    _merge_destination(
                        d, views, state, active, inv_k_plus_one, contribs, heards, heard_global
                    )
                conn.send("b")
            else:
                break
    finally:
        for shm in shms.values():
            shm.close()
        conn.close()


class _WorkerPool:
    """Parent-side handle on the shard worker processes (one run's pool)."""

    def __init__(self, context, worker_args: List[tuple]):
        self._connections = []
        self._processes = []
        for args in worker_args:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main, args=(child_conn, *args), daemon=True
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        self._collect("ready")

    def _collect(self, expected: str) -> None:
        for conn, process in zip(self._connections, self._processes):
            while not conn.poll(0.1):
                if not process.is_alive():
                    raise RuntimeError(
                        f"sharded gossip worker pid={process.pid} died "
                        f"(exitcode={process.exitcode}) before acknowledging {expected!r}"
                    )
            reply = conn.recv()
            if reply != expected:
                raise RuntimeError(f"worker protocol error: expected {expected!r}, got {reply!r}")

    def phase(self, name: str) -> None:
        """Broadcast one phase ('A' or 'B') and wait for every worker."""
        for conn in self._connections:
            conn.send(name)
        self._collect(name.lower())

    def shutdown(self) -> None:
        for conn in self._connections:
            try:
                conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._connections:
            conn.close()


def _default_start_method() -> str:
    """'fork' where available (fast, zero-copy graph handoff), else 'spawn'."""
    override = os.environ.get("REPRO_SHARDED_START_METHOD")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def default_worker_count(num_nodes: int) -> int:
    """The default worker policy: inline under the threshold, else cores.

    Cores means *usable* cores (:func:`repro.utils.hardware.usable_cpu_count`):
    a container pinned to one core should not pay worker-pool overhead it
    cannot amortise.
    """
    if num_nodes <= SHARDED_INLINE_MAX_NODES:
        return 1
    return max(1, min(DEFAULT_MAX_WORKERS, usable_cpu_count()))


class ShardedGossipEngine:
    """Multi-process sharded engine for million-peer gossip rounds.

    Drop-in compatible with
    :class:`repro.core.sparse_engine.SparseGossipEngine` (same ``run``
    signature and outcome), plus the sharding knobs.

    Parameters
    ----------
    graph:
        Overlay topology — a :class:`repro.network.graph.Graph` or a
        ``scipy.sparse`` adjacency matrix.
    push_counts:
        Per-node push counts ``k_i``; defaults to the differential rule.
    loss_probability:
        Per-push packet-loss probability; each shard derives its own
        loss stream from the seed, so loss outcomes are also
        worker-count independent.
    loss_model:
        Not supported — an explicit model carries one generator whose
        state cannot be split deterministically across shards; pass
        ``loss_probability`` instead.
    rng:
        Seed for the per-shard spawned streams. Prefer seed-like values
        (int / ``None`` / ``SeedSequence``); an existing ``Generator``
        is accepted by drawing one seed from it (which advances it).
    num_shards:
        Partition granularity — the *determinism* knob: outcomes depend
        on ``(seed, num_shards)`` only. Default
        :data:`DEFAULT_NUM_SHARDS`, clamped to the node count.
    num_workers:
        Worker count — the *throughput* knob: any value returns
        byte-identical outcomes. Default: 1 (inline, no processes) up
        to :data:`SHARDED_INLINE_MAX_NODES` nodes, else up to
        :data:`DEFAULT_MAX_WORKERS` capped by the usable CPU count.
    executor:
        How shard work is scheduled: ``"inline"`` (calling thread),
        ``"threads"`` (persistent thread pool over one in-process state
        array — no shared-memory segments, no halo round-trips through
        pipes) or ``"processes"`` (shared-memory worker pool). Default
        ``None`` picks inline for one worker and processes otherwise.
        Every executor runs the same per-shard seed streams and the
        same fixed merge order, so outcomes are byte-identical across
        executors as well as worker counts.
    dtype:
        Gossip state precision — ``numpy.float64`` (default, the
        reference) or ``numpy.float32`` (halves state and contribution
        memory traffic; sampling keys and convergence accounting stay
        float64, so target draws are byte-identical across dtypes).
        Anything else raises
        :class:`repro.core.errors.UnsupportedDtypeError`.

    Examples
    --------
    >>> from repro.network.topology_example import example_network
    >>> import numpy as np
    >>> engine = ShardedGossipEngine(example_network(), rng=7, num_shards=3)
    >>> outcome = engine.run(np.arange(10.0), np.ones(10), xi=1e-6)
    >>> bool(np.allclose(outcome.estimates, 4.5, atol=1e-3))
    True
    """

    def __init__(
        self,
        graph,
        *,
        push_counts: Optional[np.ndarray] = None,
        loss_probability: float = 0.0,
        loss_model=None,
        rng: RngLike = None,
        degree_announcements: Optional[bool] = None,
        num_shards: Optional[int] = None,
        num_workers: Optional[int] = None,
        executor: Optional[str] = None,
        start_method: Optional[str] = None,
        dtype=np.float64,
    ):
        if loss_model is not None:
            raise ValueError(
                "ShardedGossipEngine cannot split an explicit PacketLossModel across "
                "shards deterministically; pass loss_probability instead"
            )
        if not 0.0 <= float(loss_probability) <= 1.0:
            raise ValueError(f"loss_probability must be in [0, 1], got {loss_probability}")
        graph = _coerce_graph(graph)
        self._graph = graph
        if degree_announcements is None:
            degree_announcements = push_counts is None
        self._degree_announcements = bool(degree_announcements)
        self._push_counts = resolve_push_counts(graph, push_counts)
        self._inv_k_plus_one = 1.0 / (self._push_counts + 1.0)
        self._loss_probability = float(loss_probability)

        if num_shards is None:
            num_shards = DEFAULT_NUM_SHARDS
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._partition = partition_graph(graph, num_shards)
        if executor is not None and executor not in EXECUTOR_NAMES:
            names = ", ".join(repr(name) for name in EXECUTOR_NAMES)
            raise ValueError(f"executor must be one of {names} or None, got {executor!r}")
        if num_workers is None:
            if executor == "inline":
                num_workers = 1
            elif executor == "threads":
                # Threads are cheap enough to skip the inline-threshold
                # policy; scale to usable cores directly.
                num_workers = max(1, min(DEFAULT_MAX_WORKERS, usable_cpu_count()))
            else:
                num_workers = default_worker_count(graph.num_nodes)
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if executor == "inline" and num_workers != 1:
            raise ValueError(
                f"executor 'inline' runs shards in the calling thread; "
                f"num_workers must be 1, got {num_workers}"
            )
        self._num_workers = min(int(num_workers), self._partition.num_shards)
        if executor is None:
            executor = "processes" if self._num_workers > 1 else "inline"
        self._executor = executor
        self._dtype = resolve_state_dtype(dtype)
        self._start_method = start_method or _default_start_method()
        self._last_phase_timings: Optional[Dict[str, float]] = None

        if isinstance(rng, np.random.Generator):
            self._seed_root = np.random.SeedSequence(int(rng.integers(2**63)))
        elif isinstance(rng, np.random.SeedSequence):
            self._seed_root = rng
        else:
            self._seed_root = np.random.SeedSequence(rng)

    @property
    def graph(self) -> Graph:
        """Topology this engine is bound to."""
        return self._graph

    @property
    def partition(self) -> GraphPartition:
        """The edge-balanced shard partition in use."""
        return self._partition

    @property
    def num_shards(self) -> int:
        """Number of shards (the determinism granularity)."""
        return self._partition.num_shards

    @property
    def num_workers(self) -> int:
        """Workers used per run (1 with the inline executor)."""
        return self._num_workers

    @property
    def executor(self) -> str:
        """Resolved executor name: 'inline', 'threads' or 'processes'."""
        return self._executor

    @property
    def dtype(self) -> np.dtype:
        """Gossip state precision this engine runs at."""
        return self._dtype

    @property
    def last_phase_timings(self) -> Optional[Dict[str, float]]:
        """Per-phase timing breakdown of the most recent :meth:`run`.

        ``None`` before the first run. Keys:

        - ``sample_seconds`` / ``build_contributions_seconds`` — summed
          per-shard wall time of target sampling and contribution
          accumulation (phase A). Summed across shards, so under a
          parallel executor this exceeds phase-A wall time.
        - ``phase_a_wall_seconds`` — wall time of phase A as observed
          by the coordinator.
        - ``halo_merge_seconds`` — wall time of phase B (scale + halo
          merge).
        - ``convergence_seconds`` — wall time of ratio/deviation/
          mass-conservation accounting between steps.
        - ``total_seconds`` / ``steps`` — whole-loop wall time and the
          number of gossip steps it covers.
        """
        return None if self._last_phase_timings is None else dict(self._last_phase_timings)

    @property
    def push_counts(self) -> np.ndarray:
        """Per-node push counts ``k_i`` (read-only)."""
        view = self._push_counts.view()
        view.flags.writeable = False
        return view

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        xi: float = 1e-4,
        extras: Optional[Dict[str, np.ndarray]] = None,
        max_steps: int = 10_000,
        track_history: bool = False,
        run_to_max: bool = False,
        patience: int = 3,
        warmup_steps: Optional[int] = None,
        num_channels: int = 1,
    ) -> GossipOutcome:
        """Execute one gossip round to the stopping condition.

        Parameters, semantics, return type and raised exceptions are
        identical to
        :meth:`repro.core.sparse_engine.SparseGossipEngine.run`. Each
        call replays the same per-shard seed streams, so repeated runs
        of one engine return identical outcomes.
        """
        graph = self._graph
        n = graph.num_nodes
        dtype = self._dtype
        names, columns = state_components(values, weights, extras, n, dtype, num_channels)
        d = columns[0].shape[1]
        slices = {name: slice(i * d, (i + 1) * d) for i, name in enumerate(names)}
        total_cols = len(names) * d

        views = self._partition.shards
        num_shards = len(views)
        offsets = np.zeros(num_shards + 1, dtype=np.int64)
        np.cumsum([view.local_size for view in views], out=offsets[1:])
        total_local = int(offsets[-1])

        use_shm = self._executor == "processes"
        itemsize = dtype.itemsize
        shms: List[shared_memory.SharedMemory] = []
        pool: Optional[_WorkerPool] = None
        thread_pool: Optional[ThreadPoolExecutor] = None

        def _shared(name: str, nbytes: int) -> shared_memory.SharedMemory:
            shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
            shms.append(shm)
            return shm

        try:
            if use_shm:
                state = _attach(
                    _shared("state", n * total_cols * itemsize), (n, total_cols), dtype
                )
                active = _attach(_shared("active", n), (n,), np.bool_)
                heard_global = _attach(_shared("heard", n), (n,), np.bool_)
                contrib_flat = _attach(
                    _shared("contrib", total_local * total_cols * itemsize),
                    (total_local, total_cols),
                    dtype,
                )
                heard_flat = _attach(
                    _shared("shard_heard", total_local), (total_local,), np.bool_
                )
                pushes = _attach(_shared("pushes", num_shards * 8), (num_shards,), np.int64)
                timings = _attach(
                    _shared("timings", num_shards * 2 * 8), (num_shards, 2), np.float64
                )
                shm_names = {
                    "state": shms[0].name,
                    "active": shms[1].name,
                    "heard": shms[2].name,
                    "contrib": shms[3].name,
                    "shard_heard": shms[4].name,
                    "pushes": shms[5].name,
                    "timings": shms[6].name,
                }
            else:
                state = np.empty((n, total_cols), dtype=dtype)
                active = np.empty(n, dtype=np.bool_)
                heard_global = np.empty(n, dtype=np.bool_)
                contrib_flat = np.empty((total_local, total_cols), dtype=dtype)
                heard_flat = np.empty(total_local, dtype=np.bool_)
                pushes = np.zeros(num_shards, dtype=np.int64)
            if not use_shm:
                timings = np.zeros((num_shards, 2), dtype=np.float64)

            np.concatenate(columns, axis=1, out=state)
            contribs = [contrib_flat[offsets[s] : offsets[s + 1]] for s in range(num_shards)]
            heards = [heard_flat[offsets[s] : offsets[s + 1]] for s in range(num_shards)]

            inv_k_plus_one = self._inv_k_plus_one
            if dtype != np.float64:
                # Share arithmetic and merge scaling run at state
                # precision: float64 inverse divisors would silently
                # upcast every share multiply back to float64.
                inv_k_plus_one = inv_k_plus_one.astype(dtype)

            if use_shm:
                context = multiprocessing.get_context(self._start_method)
                graph_arrays = (graph.indptr, graph.indices, graph.degrees)
                pool = _WorkerPool(
                    context,
                    [
                        (
                            worker,
                            self._num_workers,
                            views,
                            graph_arrays,
                            self._push_counts,
                            inv_k_plus_one,
                            self._seed_root,
                            self._loss_probability,
                            total_cols,
                            n,
                            offsets,
                            shm_names,
                            self._start_method,
                            dtype.name,
                        )
                        for worker in range(self._num_workers)
                    ],
                )

                def phase_a() -> None:
                    pool.phase("A")

                def phase_b() -> None:
                    pool.phase("B")

            else:
                samplers = [
                    _ShardSampler(
                        view,
                        graph.indptr,
                        graph.indices,
                        graph.degrees,
                        self._push_counts,
                        inv_k_plus_one,
                        self._seed_root,
                        self._loss_probability,
                        total_cols,
                        dtype,
                    )
                    for view in views
                ]

                def compute_shard(s: int) -> None:
                    sampler = samplers[s]
                    pushes[s] = sampler.compute(state, active, contribs[s], heards[s])
                    timings[s, 0] = sampler.last_sample_seconds
                    timings[s, 1] = sampler.last_build_seconds

                def merge_shard(destination: int) -> None:
                    _merge_destination(
                        destination,
                        views,
                        state,
                        active,
                        inv_k_plus_one,
                        contribs,
                        heards,
                        heard_global,
                    )

                if self._executor == "threads":
                    # Same shard→worker assignment as the process pool
                    # (round-robin by shard index). Phase A tasks write
                    # disjoint contribution buffers; phase B tasks write
                    # disjoint owned row ranges — no locks needed, and
                    # the fixed per-shard merge order makes the result
                    # byte-identical to the inline schedule.
                    thread_pool = ThreadPoolExecutor(
                        max_workers=self._num_workers, thread_name_prefix="repro-shard"
                    )
                    assignments = [
                        range(worker, num_shards, self._num_workers)
                        for worker in range(self._num_workers)
                    ]

                    def _run_assignment(task: Callable[[int], None], mine) -> None:
                        for s in mine:
                            task(s)

                    def _scatter(task: Callable[[int], None]) -> None:
                        futures = [
                            thread_pool.submit(_run_assignment, task, mine)
                            for mine in assignments
                        ]
                        for future in futures:
                            future.result()

                    def phase_a() -> None:
                        _scatter(compute_shard)

                    def phase_b() -> None:
                        _scatter(merge_shard)

                else:

                    def phase_a() -> None:
                        for s in range(num_shards):
                            compute_shard(s)

                    def phase_b() -> None:
                        for destination in range(num_shards):
                            merge_shard(destination)

            return self._run_loop(
                state=state,
                active=active,
                heard_global=heard_global,
                pushes=pushes,
                timings=timings,
                phase_a=phase_a,
                phase_b=phase_b,
                names=names,
                slices=slices,
                d=d,
                xi=xi,
                max_steps=max_steps,
                track_history=track_history,
                run_to_max=run_to_max,
                patience=patience,
                warmup_steps=warmup_steps,
                num_channels=num_channels,
            )
        finally:
            if thread_pool is not None:
                thread_pool.shutdown(wait=True)
            if pool is not None:
                pool.shutdown()
            for shm in shms:
                shm.close()
                shm.unlink()

    def _run_loop(
        self,
        *,
        state: np.ndarray,
        active: np.ndarray,
        heard_global: np.ndarray,
        pushes: np.ndarray,
        timings: np.ndarray,
        phase_a: Callable[[], None],
        phase_b: Callable[[], None],
        names: List[str],
        slices: Dict[str, slice],
        d: int,
        xi: float,
        max_steps: int,
        track_history: bool,
        run_to_max: bool,
        patience: int,
        warmup_steps: Optional[int],
        num_channels: int = 1,
    ) -> GossipOutcome:
        """The engine main loop, identical in semantics to the sparse engine."""
        graph = self._graph
        n = graph.num_nodes
        degrees = graph.degrees
        mass_rtol = mass_rtol_for(self._dtype)

        initial_mass = {
            name: float(state[:, sl].sum(dtype=np.float64)) for name, sl in slices.items()
        }
        live_components = state[:, slices["weight"]].sum(axis=0, dtype=np.float64) != 0.0
        if warmup_steps is None:
            warmup_steps = int(np.ceil(np.log2(max(2, n)))) + 1
        protocol = ConvergenceProtocol(
            graph,
            xi,
            num_components=d,
            num_channels=num_channels,
            patience=patience,
            warmup_steps=warmup_steps,
        )
        previous_ratios = ratios(state[:, slices["value"]], state[:, slices["weight"]])
        ever_defined = state[:, slices["weight"]] != 0.0
        history: Optional[List[np.ndarray]] = [] if track_history else None

        push_messages = 0
        protocol_messages = int(degrees.sum()) if self._degree_announcements else 0
        active_node_steps = 0
        steps = 0
        sample_seconds = 0.0
        build_seconds = 0.0
        phase_a_wall = 0.0
        halo_merge_seconds = 0.0
        convergence_seconds = 0.0
        loop_start = time.perf_counter()

        while not protocol.all_stopped or (run_to_max and steps < max_steps):
            if steps >= max_steps:
                if run_to_max:
                    break
                raise ConvergenceError(steps, protocol.num_unconverged)
            if run_to_max:
                np.greater(degrees, 0, out=active)
            else:
                np.greater(degrees, 0, out=active)
                active &= ~protocol.stopped

            tick = time.perf_counter()
            phase_a()
            tock = time.perf_counter()
            phase_b()
            conv_start = time.perf_counter()
            phase_a_wall += tock - tick
            halo_merge_seconds += conv_start - tock
            # Per-shard sample/build splits, summed over shards (CPU
            # time, not wall — they can exceed phase_a_wall under a
            # parallel executor).
            sample_seconds += float(timings[:, 0].sum())
            build_seconds += float(timings[:, 1].sum())
            push_messages += int(pushes.sum())
            active_node_steps += int(active.sum())

            defined_now = state[:, slices["weight"]] != 0.0
            ever_defined |= defined_now
            new_ratios = ratios(state[:, slices["value"]], state[:, slices["weight"]])
            drained = ever_defined & ~defined_now
            if drained.any():
                new_ratios[drained] = previous_ratios[drained]
            if num_channels == 1:
                if live_components.all():
                    ratio_defined = ever_defined.all(axis=1)
                else:
                    ratio_defined = ever_defined[:, live_components].all(axis=1)
                step_deviations = deviation_vector(new_ratios, previous_ratios)
            else:
                # Per-channel defined mask and eq.-7 movement (dead
                # columns are vacuously defined, as in the scalar rule).
                if live_components.all():
                    defined_full = ever_defined
                else:
                    defined_full = ever_defined | ~live_components[None, :]
                ratio_defined = defined_full.reshape(
                    n, num_channels, d // num_channels
                ).all(axis=2)
                step_deviations = channel_deviations(
                    new_ratios, previous_ratios, num_channels
                )
            newly_converged = protocol.observe(
                step_deviations,
                heard_global.copy(),
                ratio_defined,
            )
            if newly_converged.size:
                protocol_messages += int(degrees[newly_converged].sum())
            previous_ratios = new_ratios
            if history is not None:
                history.append(new_ratios.copy())
            steps += 1

            for name, sl in slices.items():
                total = float(state[:, sl].sum(dtype=np.float64))
                mass_scale = max(abs(initial_mass[name]), 1.0)
                if abs(total - initial_mass[name]) > mass_rtol * mass_scale * max(
                    1.0, np.sqrt(n * d)
                ):
                    raise MassConservationError(
                        f"component {name!r} mass drifted from {initial_mass[name]!r} "
                        f"to {total!r} at step {steps}"
                    )
            convergence_seconds += time.perf_counter() - conv_start

        self._last_phase_timings = {
            "sample_seconds": sample_seconds,
            "build_contributions_seconds": build_seconds,
            "phase_a_wall_seconds": phase_a_wall,
            "halo_merge_seconds": halo_merge_seconds,
            "convergence_seconds": convergence_seconds,
            "total_seconds": time.perf_counter() - loop_start,
            "steps": steps,
        }
        extra_names = [name for name in names if name not in ("value", "weight")]
        return GossipOutcome(
            values=state[:, slices["value"]].copy(),
            weights=state[:, slices["weight"]].copy(),
            extras={name: state[:, slices[name]].copy() for name in extra_names},
            steps=steps,
            push_messages=push_messages,
            protocol_messages=protocol_messages,
            active_node_steps=active_node_steps,
            converged=protocol.converged.copy(),
            ratio_history=history,
            num_channels=num_channels,
            channel_converged=(
                protocol.channel_converged.copy() if num_channels > 1 else None
            ),
        )
