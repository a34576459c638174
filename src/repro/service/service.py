"""The reputation service: ingest queue → report fold → epoch → snapshot swap.

:class:`ReputationService` turns the library into a long-running
reputation process with the manager/ingest/query split of a production
trust system (Golem's ranking service is the shape exemplar): trust
reports stream into a bounded :class:`~repro.service.queue.ReportQueue`;
each :meth:`ReputationService.tick` drains one batch, folds it into the
:class:`~repro.trust.matrix.TrustMatrix` (direct trust is pure state, so
any batching of the same stream folds to the same matrix), re-announces
every changed column aggregate into the
:class:`~repro.runtime.dynamics.DynamicReputationRuntime` (Algorithm 2's
re-push, via :meth:`~repro.runtime.dynamics.DynamicReputationRuntime.republish_opinion`),
advances the runtime one warm-start gossip epoch on any registered
backend, and atomically swaps in a fresh immutable
:class:`~repro.service.snapshot.ReputationSnapshot`.

Reads never block the fold: queries are answered from the current
snapshot reference (an atomic load), and every snapshot carries its own
staleness bound — reports accepted but not yet folded at publication.

>>> service = ReputationService(12, seed=5, attachment_m=2)
>>> service.submit_report(0, 3, 0.9)
>>> service.submit_report(1, 3, 0.7)
>>> record = service.tick()
>>> record.reports_folded, service.snapshot_info()["version"]
(2, 1)
>>> round(service.get_reputation(3), 6)
0.133333
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import GossipConfig
from repro.network.mutable import MutableOverlay
from repro.runtime.dynamics import DynamicReputationRuntime
from repro.service.queue import BackpressureError, ReportQueue, ServiceError
from repro.service.reports import TrustReport
from repro.service.snapshot import ReputationSnapshot
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import stateless_child_sequence

#: Child key of the topology stream (clear of runtime epoch keys).
TOPOLOGY_STREAM_KEY = 0x5E21CE00
#: Child key of the runtime replay root.
RUNTIME_STREAM_KEY = 0x5E21CE01

ReportLike = Union[TrustReport, Tuple[int, int, float]]


class UnknownPeerError(ServiceError, KeyError):
    """A report referenced a peer id outside the service's overlay."""

    def __init__(self, peer_id: int):
        self.peer_id = peer_id
        ServiceError.__init__(self, f"peer id {peer_id} is not in the service overlay")

    # KeyError.__str__ reprs the message (adds quotes); keep the plain text.
    __str__ = Exception.__str__


@dataclass(frozen=True)
class TickRecord:
    """What one service tick did."""

    tick: int
    version: int
    reports_folded: int
    targets_republished: int
    staleness: int
    epoch_steps: int
    push_messages: int
    converged_fraction: float
    elapsed_seconds: float

    def to_dict(self) -> Dict:
        """JSON-friendly record."""
        return {
            "tick": self.tick,
            "version": self.version,
            "reports_folded": self.reports_folded,
            "targets_republished": self.targets_republished,
            "staleness": self.staleness,
            "epoch_steps": self.epoch_steps,
            "push_messages": self.push_messages,
            "converged_fraction": self.converged_fraction,
            "elapsed_seconds": self.elapsed_seconds,
        }


class ReputationService:
    """Long-running reputation aggregation behind an ingest/query split.

    Parameters
    ----------
    overlay:
        The peer topology: an existing
        :class:`~repro.network.mutable.MutableOverlay`, or an ``int`` to
        grow a fresh preferential-attachment overlay of that many peers
        from the service seed.
    config:
        Gossip knobs for the per-tick epoch
        (:class:`~repro.core.backend.GossipConfig`); ``config.rng`` is
        ignored — every stream derives from ``seed``.
    backend:
        Registered gossip backend name or ``"auto"`` (sparse at
        scale; the runtime steers ``"auto"`` to a fixed-budget-capable
        engine for the accuracy stop rule).
    seed:
        Single replay root: topology growth, epoch streams, everything.
    high_watermark:
        Ingest-queue shed threshold (see
        :class:`~repro.service.queue.ReportQueue`).
    batch_size:
        Maximum reports folded per tick.
    epoch_tol, block_steps:
        Accuracy stop rule of the per-tick epoch (see
        :class:`~repro.runtime.dynamics.DynamicReputationRuntime`).
    attachment_m:
        Edges per peer when growing an overlay from an ``int``.

    Examples
    --------
    >>> from repro.service import ReputationService, TrustReport
    >>> service = ReputationService(40, seed=5, batch_size=8)
    >>> service.submit_batch([TrustReport(0, 3, 0.9), TrustReport(1, 3, 0.7)])
    2
    >>> service.tick().reports_folded
    2
    >>> service.snapshot().version
    1
    """

    def __init__(
        self,
        overlay: Union[MutableOverlay, int],
        *,
        config: Optional[GossipConfig] = None,
        backend: str = "auto",
        seed: int = 0,
        high_watermark: int = 50_000,
        batch_size: int = 1024,
        epoch_tol: float = 1e-3,
        block_steps: int = 4,
        attachment_m: int = 2,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._seed = int(seed)
        root = np.random.SeedSequence(self._seed)
        if isinstance(overlay, int):
            overlay = MutableOverlay.grow_preferential(
                overlay,
                m=attachment_m,
                rng=np.random.default_rng(
                    stateless_child_sequence(root, TOPOLOGY_STREAM_KEY)
                ),
            )
        self._overlay = overlay
        self._trust = TrustMatrix(overlay.max_peer_id + 1)
        self._runtime = DynamicReputationRuntime(
            overlay,
            config=config,
            backend=backend,
            warm_start=True,
            stop_rule="accuracy",
            epoch_tol=epoch_tol,
            block_steps=block_steps,
            attachment_m=attachment_m,
        )
        # Zero initial trust: before any report arrives every published
        # opinion is 0 (the paper's stranger default).
        self._runtime.initialize(
            stateless_child_sequence(root, RUNTIME_STREAM_KEY), opinions=0.0
        )
        self._queue = ReportQueue(high_watermark=high_watermark)
        self._batch_size = int(batch_size)
        self._live = np.zeros(overlay.max_peer_id + 1, dtype=bool)
        self._live[overlay.peer_ids()] = True
        self._tick_count = 0
        self._reports_folded = 0
        self._version = -1
        # Single-consumer fold lock: tick() is serialized; queries never
        # take it (they read the snapshot reference, an atomic load).
        self._fold_lock = threading.Lock()
        self._snapshot = self._build_snapshot(staleness=0)

    # -- ingest (producers, thread-safe) -------------------------------------

    @property
    def queue(self) -> ReportQueue:
        """The ingest queue (exposed for stats and tests)."""
        return self._queue

    @property
    def overlay(self) -> MutableOverlay:
        """The peer topology the service gossips over."""
        return self._overlay

    @property
    def backend(self) -> str:
        """Resolved gossip backend every epoch runs on."""
        return self._runtime.backend

    @property
    def num_peers(self) -> int:
        """Peers in the service overlay."""
        return self._overlay.num_peers

    def _coerce(self, report: ReportLike) -> TrustReport:
        if not isinstance(report, TrustReport):
            report = TrustReport(int(report[0]), int(report[1]), float(report[2]))
        for pid in (report.observer, report.target):
            if pid >= self._live.shape[0] or not self._live[pid]:
                raise UnknownPeerError(pid)
        return report

    def submit_report(self, observer: int, target: int, value: float) -> None:
        """Queue one trust report.

        Raises
        ------
        UnknownPeerError
            ``observer`` or ``target`` is not a live overlay peer.
        BackpressureError
            The ingest queue is at its high watermark; the report is
            shed and the caller should retry after a tick.
        """
        self._queue.put(self._coerce(TrustReport(int(observer), int(target), float(value))))

    def submit_batch(self, reports: Iterable[ReportLike]) -> int:
        """Queue many reports; return how many were accepted.

        Validation failures raise; watermark shedding does not — the
        accepted count is always a prefix of the submitted batch (see
        :meth:`~repro.service.queue.ReportQueue.put_many`), and shed
        reports are visible in ``queue.rejected_total``.
        """
        return self._queue.put_many(self._coerce(r) for r in reports)

    # -- queries (lock-free) -------------------------------------------------

    def snapshot(self) -> ReputationSnapshot:
        """The current immutable snapshot (atomic reference read)."""
        return self._snapshot

    def get_reputation(self, peer_id: int) -> float:
        """Serve ``peer_id``'s reputation from the current snapshot."""
        return self._snapshot.get(peer_id)

    def top_k(self, k: int = 10) -> List[Tuple[int, float]]:
        """The current top-``k`` peers by reputation."""
        return self._snapshot.top_k(k)

    def snapshot_info(self) -> Dict:
        """Metadata of the current snapshot plus queue stats."""
        info = self._snapshot.info()
        info["queue"] = self._queue.stats()
        info["backend"] = self.backend
        return info

    # -- the fold loop (single consumer) -------------------------------------

    def tick(self) -> TickRecord:
        """Drain one batch, fold it, run one warm epoch, swap the snapshot.

        Must be driven by one consumer at a time (the
        :class:`ServiceLoop` thread, a replay driver, or a test); a
        second concurrent caller blocks on the fold lock.
        """
        with self._fold_lock:
            started = time.perf_counter()
            batch = self._queue.drain(self._batch_size)
            changed = self._fold(batch)
            epoch_record = self._runtime.step()
            self._tick_count += 1
            self._reports_folded += len(batch)
            # Staleness is measured at publication: everything accepted
            # after the drain above is visible here and correctly
            # counted against the snapshot being swapped in.
            snapshot = self._build_snapshot(staleness=self._queue.pending)
            self._snapshot = snapshot
            return TickRecord(
                tick=self._tick_count,
                version=snapshot.version,
                reports_folded=len(batch),
                targets_republished=len(changed),
                staleness=snapshot.staleness,
                epoch_steps=epoch_record.steps,
                push_messages=epoch_record.push_messages,
                converged_fraction=epoch_record.converged_fraction,
                elapsed_seconds=time.perf_counter() - started,
            )

    def drain_pending(self, *, max_ticks: Optional[int] = None) -> List[TickRecord]:
        """Tick until the ingest queue is empty; return the tick records.

        Runs at least one tick (an idle tick still advances the epoch
        and publishes a fresh snapshot version).
        """
        records = [self.tick()]
        while self._queue.pending and (max_ticks is None or len(records) < max_ticks):
            records.append(self.tick())
        return records

    def _fold(self, batch: Sequence[TrustReport]) -> List[int]:
        """Apply one drained batch; re-announce changed column aggregates.

        Returns the (sorted) re-published target ids. The fold is pure
        matrix state application, so the *final* published opinions
        after a stream is fully folded do not depend on how the stream
        was batched — the replay byte-identity guarantee.
        """
        changed = set()
        for report in batch:
            self._trust.set(report.observer, report.target, report.value)
            changed.add(report.target)
        republished = sorted(changed)
        for target in republished:
            self._runtime.republish_opinion(
                target, self._trust.column_mean_over_all(target)
            )
        return republished

    def _build_snapshot(self, *, staleness: int) -> ReputationSnapshot:
        pids = self._overlay.peer_ids()
        reputations = self._runtime.opinions()
        estimates = self._runtime.estimates() if self._tick_count else np.zeros_like(reputations)
        self._version += 1
        return ReputationSnapshot(
            version=self._version,
            epoch=self._tick_count,
            created_at=self._tick_count,
            peer_ids=pids,
            reputations=reputations,
            network_estimate=float(np.mean(estimates)),
            staleness=int(staleness),
            reports_folded=self._reports_folded,
        )


class ServiceLoop:
    """Background thread that keeps draining the queue, one tick at a time.

    The serving deployment shape: producers submit concurrently, the
    loop folds and swaps snapshots, readers query lock-free. ``interval``
    throttles the epoch rate (seconds between tick starts, 0 = fold as
    fast as reports arrive); a lower epoch rate trades staleness for
    fold/gossip work — the curve ``benchmarks/bench_service.py``
    records.

    Examples
    --------
    >>> from repro.service import ReputationService, ServiceLoop
    >>> service = ReputationService(40, seed=5)
    >>> loop = ServiceLoop(service)
    >>> _ = loop.start()
    >>> service.submit_report(0, 3, 0.9)
    >>> loop.stop()
    >>> _ = service.drain_pending()
    >>> service.snapshot().reports_folded
    1
    """

    def __init__(
        self,
        service: ReputationService,
        *,
        interval: float = 0.0,
        idle_sleep: float = 0.005,
    ):
        if interval < 0 or idle_sleep <= 0:
            raise ValueError("interval must be >= 0 and idle_sleep > 0")
        self._service = service
        self._interval = float(interval)
        self._idle_sleep = float(idle_sleep)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._ticks = 0
        self._error: Optional[BaseException] = None

    @property
    def ticks(self) -> int:
        """Ticks completed so far."""
        return self._ticks

    @property
    def running(self) -> bool:
        """Whether the loop thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def error(self) -> Optional[BaseException]:
        """The exception that killed the loop, if any."""
        return self._error

    def start(self) -> "ServiceLoop":
        """Start the consumer thread (idempotent while running)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, timeout: float = 10.0) -> None:
        """Signal the loop to stop and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        if self._error is not None:
            raise self._error

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                started = time.perf_counter()
                record = self._service.tick()
                self._ticks += 1
                if self._interval:
                    remaining = self._interval - (time.perf_counter() - started)
                    if remaining > 0:
                        self._stop.wait(remaining)
                elif record.reports_folded == 0:
                    # Idle: nothing arrived since the last fold.
                    self._stop.wait(self._idle_sleep)
        except BaseException as error:  # pragma: no cover - surfaced via stop()
            self._error = error


__all__ = [
    "BackpressureError",
    "ReputationService",
    "ServiceLoop",
    "TickRecord",
    "UnknownPeerError",
]
