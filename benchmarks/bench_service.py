"""Benchmark: the serving layer — contended query QPS and staleness.

Two measurements against a live :class:`repro.service.ReputationService`,
the two that perfbench's ``service-stream`` workload does not take (it
times ingest and single-threaded reads):

1. **Query QPS** — lock-free ``get_reputation`` reads from the current
   immutable snapshot under reader threads while the service loop keeps
   swapping snapshots, next to the single-threaded rate on the same
   world.
2. **Staleness vs epoch rate** — the operational trade-off: throttling
   the tick interval (fewer, larger folds) raises the staleness bound
   of every published snapshot; the curve records max/mean staleness
   and effective fold cost at each simulated interval.

Writes ``BENCH_service.json``. Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        [--peers 2000] [--reports 50000] [--backend auto] [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.service.reports import generate_reports
from repro.service.service import ReputationService, ServiceLoop
from repro.utils.hardware import host_metadata


def _fresh_service(args, *, batch_size: int, high_watermark: int) -> ReputationService:
    return ReputationService(
        args.peers,
        backend=args.backend,
        seed=args.seed,
        batch_size=batch_size,
        high_watermark=high_watermark,
        attachment_m=2,
    )


def bench_query_qps(args) -> Tuple[str, Dict[str, object]]:
    """The resolved backend, and the snapshot read rate idle and under
    concurrent snapshot swaps."""
    service = _fresh_service(args, batch_size=512, high_watermark=1 << 20)
    reports = generate_reports(min(args.reports, 20_000), args.peers, rng=args.seed)
    service.submit_batch(reports)
    service.drain_pending()

    # Single-threaded reads against a quiescent snapshot.
    samples = args.query_samples
    start = time.perf_counter()
    for i in range(samples):
        service.get_reputation(i % args.peers)
    idle_qps = samples / (time.perf_counter() - start)

    # Reads while the loop swaps snapshots (writer active).
    loop = ServiceLoop(service, idle_sleep=0.0005).start()
    counts: List[int] = []

    def reader() -> None:
        count = 0
        deadline = time.perf_counter() + args.contended_seconds
        while time.perf_counter() < deadline:
            service.get_reputation(count % args.peers)
            count += 1
        counts.append(count)

    threads = [threading.Thread(target=reader) for _ in range(args.readers)]
    start_version = service.snapshot().version
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loop.stop()
    swapped = service.snapshot().version - start_version
    return service.backend, {
        "idle_qps": round(idle_qps, 1),
        "contended_qps_total": round(sum(counts) / args.contended_seconds, 1),
        "reader_threads": args.readers,
        "snapshot_swaps_during_read": int(swapped),
        "query_samples": samples,
    }


def bench_staleness_curve(args) -> List[Dict[str, object]]:
    """Staleness bound vs epoch (tick) rate, one point per arrival cadence.

    Fold capacity is fixed (``--batch-size`` reports per tick); the
    arrival rate between consecutive ticks sweeps ``--curve``. A tick
    rate above the arrival rate keeps every snapshot's staleness bound
    at ~0; once arrivals outpace the fold, the backlog — and with it the
    published staleness bound — grows with every tick until the stream
    ends and trailing ticks drain it. That backlog-vs-epoch-rate knee is
    the operational quantity ``docs/service.md`` discusses.
    """
    curve: List[Dict[str, object]] = []
    stream = generate_reports(args.reports, args.peers, rng=args.seed + 2)
    for arrivals_per_tick in args.curve:
        service = _fresh_service(
            args, batch_size=args.batch_size, high_watermark=len(stream) + 1
        )
        staleness: List[int] = []
        epoch_steps: List[int] = []
        cursor = 0
        while cursor < len(stream):
            cursor += service.submit_batch(stream[cursor : cursor + arrivals_per_tick])
            record = service.tick()
            staleness.append(record.staleness)
            epoch_steps.append(record.epoch_steps)
        for record in service.drain_pending():
            staleness.append(record.staleness)
            epoch_steps.append(record.epoch_steps)
        curve.append({
            "arrivals_per_tick": arrivals_per_tick,
            "fold_capacity_per_tick": args.batch_size,
            "ticks": len(staleness),
            "max_staleness": max(staleness),
            "mean_staleness": round(sum(staleness) / len(staleness), 1),
            "mean_epoch_steps": round(sum(epoch_steps) / len(epoch_steps), 2),
            "total_epoch_steps": sum(epoch_steps),
        })
    return curve


def run_benchmark(args) -> Dict[str, object]:
    """Both measurements; returns the JSON-friendly record."""
    backend, query = bench_query_qps(args)
    return {
        "benchmark": "service",
        "peers": args.peers,
        "reports": args.reports,
        "backend": backend,
        "seed": args.seed,
        "query": query,
        "staleness_vs_epoch_rate": bench_staleness_curve(args),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=2000)
    parser.add_argument("--reports", type=int, default=50_000)
    parser.add_argument("--backend", default="auto")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--query-samples", type=int, default=200_000)
    parser.add_argument("--readers", type=int, default=4)
    parser.add_argument("--contended-seconds", type=float, default=1.0)
    parser.add_argument("--batch-size", type=int, default=512,
                        help="fold capacity per tick in the staleness curve")
    parser.add_argument(
        "--curve",
        type=int,
        nargs="+",
        default=[128, 512, 2048, 8192],
        help="arrivals between ticks, one staleness-curve point each",
    )
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    record = run_benchmark(args)
    record.update(host_metadata(required_workers=args.readers))
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    query = record["query"]
    print(
        f"peers={record['peers']} backend={record['backend']}: "
        f"query {query['idle_qps']:.0f} qps idle / "
        f"{query['contended_qps_total']:.0f} qps with {query['reader_threads']} readers "
        f"({query['snapshot_swaps_during_read']} snapshot swaps)"
    )
    for point in record["staleness_vs_epoch_rate"]:
        print(
            f"  {point['arrivals_per_tick']:>6} arrivals/tick "
            f"(fold capacity {point['fold_capacity_per_tick']}) -> "
            f"max staleness {point['max_staleness']}, "
            f"mean epoch steps {point['mean_epoch_steps']}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
