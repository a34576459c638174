"""Service-layer contract tests.

Covers the four serving guarantees ``docs/service.md`` documents:
explicit backpressure at ingest, immutable versioned snapshots,
lock-free monotonic reads under a live fold loop, and byte-identical
deterministic replay regardless of batch size.
"""

import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.service import (
    BackpressureError,
    ReportQueue,
    ReputationService,
    ReputationSnapshot,
    ServiceLoop,
    TrustReport,
    UnknownPeerError,
    canonical_json,
    read_trace,
    replay_trace,
)
from repro.service.httpd import make_server, start_background
from repro.trust.matrix import TrustMatrix

DATA_DIR = Path(__file__).parent / "data"
TRACE_PATH = DATA_DIR / "service_trace.jsonl"
GOLDEN_REPLAY = DATA_DIR / "golden" / "service_replay.json"


# -- queue ------------------------------------------------------------------


def test_queue_sheds_at_watermark_then_resumes():
    queue = ReportQueue(high_watermark=3)
    for i in range(3):
        queue.put(TrustReport(0, i + 1, 0.5))
    with pytest.raises(BackpressureError) as excinfo:
        queue.put(TrustReport(0, 9, 0.5))
    assert excinfo.value.pending == 3
    assert excinfo.value.high_watermark == 3
    assert queue.rejected_total == 1

    drained = queue.drain(2)
    assert [r.target for r in drained] == [1, 2]  # FIFO
    queue.put(TrustReport(0, 9, 0.5))  # below the mark again -> accepted
    assert queue.pending == 2
    assert queue.accepted_total == 4


def test_queue_put_many_is_prefix_greedy():
    queue = ReportQueue(high_watermark=4)
    batch = [TrustReport(0, t, 0.5) for t in range(1, 7)]
    assert queue.put_many(batch) == 4
    assert queue.pending == 4
    assert queue.rejected_total == 2
    # The accepted reports are exactly the batch prefix, in order.
    assert [r.target for r in queue.drain(10)] == [1, 2, 3, 4]


# -- snapshot immutability ---------------------------------------------------


def _example_snapshot():
    return ReputationSnapshot(
        version=1,
        epoch=1,
        created_at=1,
        peer_ids=np.array([0, 1, 4]),
        reputations=np.array([0.2, 0.9, 0.5]),
        network_estimate=0.5,
        staleness=0,
        reports_folded=3,
    )


def test_snapshot_arrays_are_read_only():
    snap = _example_snapshot()
    with pytest.raises(ValueError):
        snap.reputations[0] = 1.0
    with pytest.raises(ValueError):
        snap.peer_ids[0] = 7


def test_snapshot_dataclass_is_frozen():
    snap = _example_snapshot()
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.version = 2


def test_snapshot_constructor_copies_its_inputs():
    reps = np.array([0.2, 0.9, 0.5])
    snap = ReputationSnapshot(
        version=1, epoch=1, created_at=1,
        peer_ids=np.array([0, 1, 4]), reputations=reps,
        network_estimate=0.5, staleness=0, reports_folded=3,
    )
    reps[0] = 123.0  # mutating the caller's array must not leak in
    assert snap.get(0) == 0.2


# -- service semantics -------------------------------------------------------


def test_staleness_is_pending_at_publication():
    service = ReputationService(40, seed=3, batch_size=30, high_watermark=1_000)
    service.submit_batch([TrustReport(0, 1 + (i % 30), 0.5) for i in range(100)])
    record = service.tick()
    assert record.reports_folded == 30
    assert record.staleness == 70
    assert service.snapshot().staleness == 70


def test_versions_increment_by_one_per_tick():
    service = ReputationService(40, seed=3)
    assert service.snapshot().version == 0
    versions = [service.tick().version for _ in range(4)]
    assert versions == [1, 2, 3, 4]


def test_unknown_peer_rejected_with_plain_message():
    service = ReputationService(40, seed=3)
    with pytest.raises(UnknownPeerError) as excinfo:
        service.submit_report(0, 10_000, 0.5)
    assert "10000" in str(excinfo.value)
    assert not str(excinfo.value).startswith("'")  # KeyError repr-quoting defeated


def test_fold_reads_hot_columns_without_rebuilding_them(monkeypatch):
    # A hot target's aggregate comes from its O(1) column accumulator;
    # the fold must never rebuild the {observer: value} column.
    peers = 3000
    service = ReputationService(peers, seed=3, batch_size=peers, high_watermark=2 * peers)
    service.submit_batch([TrustReport(observer, 0, 0.5) for observer in range(1, peers)])
    service.tick()

    def rebuild(self, target):
        raise AssertionError(f"the fold rebuilt column {target}")

    monkeypatch.setattr(TrustMatrix, "column", rebuild)
    service.submit_batch([TrustReport(1, 0, 1.0), TrustReport(2, 0, 0.0)])
    record = service.tick()
    assert (record.reports_folded, record.targets_republished) == (2, 1)
    assert service.get_reputation(0) == (0.5 * (peers - 3) + 1.0) / peers


def test_monotonic_versions_under_concurrent_readers():
    service = ReputationService(60, seed=5, batch_size=64)
    loop = ServiceLoop(service)
    errors = []
    stop = threading.Event()

    def reader():
        last = -1
        while not stop.is_set():
            snap = service.snapshot()
            if snap.version < last:
                errors.append((last, snap.version))
                return
            last = snap.version
            # The snapshot an earlier read returned must stay coherent
            # even while the loop swaps new ones in.
            if snap.num_peers and not np.all(np.isfinite(snap.reputations)):
                errors.append(("non-finite", snap.version))
                return

    readers = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
    loop.start()
    for thread in readers:
        thread.start()
    deadline = time.monotonic() + 5.0
    try:
        while service.snapshot().version < 20 and time.monotonic() < deadline:
            service.submit_batch(
                [TrustReport(i % 60, (i + 1) % 60, 0.5) for i in range(32)]
            )
            time.sleep(0.005)
    finally:
        stop.set()
        loop.stop()
        for thread in readers:
            thread.join(timeout=5.0)
    assert not errors
    assert service.snapshot().version >= 20


# -- deterministic replay ----------------------------------------------------


def test_replay_byte_identical_across_batch_sizes():
    reports = read_trace(TRACE_PATH)
    small = canonical_json(replay_trace(reports, seed=7, batch_size=5))
    large = canonical_json(replay_trace(reports, seed=7, batch_size=64))
    assert small == large


def test_replay_matches_committed_golden_record():
    reports = read_trace(TRACE_PATH)
    record = canonical_json(replay_trace(reports, seed=7, batch_size=64))
    assert record == GOLDEN_REPLAY.read_text()


def test_replay_seed_changes_verification_stream():
    # Served opinions are a pure fold of the stream (seed-invariant by
    # design); the seed drives topology growth and the gossip
    # verification round, so those must move with it.
    reports = read_trace(TRACE_PATH)[:50]
    a = replay_trace(reports, seed=7, batch_size=16)
    b = replay_trace(reports, seed=8, batch_size=16)
    assert a["snapshot"]["digest"] == b["snapshot"]["digest"]
    assert a["verify"]["estimates_sha256"] != b["verify"]["estimates_sha256"]


# -- HTTP frontend -----------------------------------------------------------


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_frontend_smoke():
    service = ReputationService(40, seed=5, batch_size=64, high_watermark=8)
    server, loop, _thread = start_background(service)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        status, health = _get(base, "/healthz")
        assert status == 200 and health["status"] == "ok"

        status, body = _post(base, "/reports", {"o": 0, "t": 3, "v": 0.9})
        assert status == 202 and body["accepted"] == 1

        status, body = _post(base, "/reports", {"o": 0, "t": 9_999, "v": 0.9})
        assert status == 404

        deadline = time.monotonic() + 5.0
        while service.snapshot().reports_folded < 1 and time.monotonic() < deadline:
            time.sleep(0.01)

        status, info = _get(base, "/snapshot")
        assert status == 200 and info["reports_folded"] >= 1

        status, body = _get(base, "/reputation/3")
        assert status == 200 and body["reputation"] > 0.0

        status, _ = _get(base, "/top?k=3")
        assert status == 200
    finally:
        server.shutdown()
        loop.stop()


def test_http_backpressure_returns_429():
    # No loop draining: the queue fills to its tiny watermark and sheds.
    service = ReputationService(40, seed=5, high_watermark=4)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        batch = [{"o": 0, "t": 1 + (i % 30), "v": 0.5} for i in range(6)]
        status, body = _post(base, "/reports", batch)
        assert status == 429
        assert body["accepted"] == 4 and body["submitted"] == 6
    finally:
        server.shutdown()
