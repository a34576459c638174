"""The four benchmark workloads, each measured end to end and, when traced, layer by layer.

Every workload follows the same shape:

- its inputs (values, report streams, churn schedules, gossip seeds) are
  made by the benchmark from ``seed`` and are never timed;
- ``setup_s`` times the program-side world construction (graph,
  overlay, trust matrix, service), built several times and reported as
  the median;
- the untraced run (``trace=False``) measures the end-to-end metrics
  for ``seconds`` seconds with every public call left alone;
- the traced run (``trace=True``) runs the same first operations twice
  from the same seed — once untraced, once with timing wrappers around
  the layer calls — checks that both produce byte-identical outputs,
  and reports the per-layer metrics plus the tracing overhead.

Every output is checked; each miss counts as one failed operation.
Every workload calls the program with ``backend="auto"``, so a routing
change shows up as a number.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro
from repro.core.backend import GossipConfig, choose_backend_name
from repro.core.vector_gclr import gclr_reputations, true_vector_gclr
from repro.core.weights import WeightParams
from repro.network.mutable import MutableOverlay
from repro.network.preferential_attachment import preferential_attachment_graph_fast
from repro.runtime.dynamics import DynamicReputationRuntime
from repro.runtime.trace import ChurnTrace
from repro.service import ReputationService
from repro.service.reports import generate_reports
from repro.trust.matrix import TrustMatrix, random_trust_matrix

from tracing import (
    Recorder,
    engine_patches,
    global_patch,
    median,
    median_setup,
    method_patch,
    optional_attr,
    overhead_pct,
    patched,
    percentile,
    ratio,
    timed_call,
    untraced,
)

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units. A layer that is not
#: on a workload's path reads 0 there.
LAYER_UNITS = {
    "network.pa_build_s": "s",
    "network.churn_ms": "ms",
    "network.snapshot_ms": "ms",
    "trust.build_s": "s",
    "trust.fold_ms": "ms",
    "facade.initial_state_ms": "ms",
    "engine.construct_ms": "ms",
    "engine.run_s": "s",
    "engine.steps": "count",
    "engine.active_fraction": "ratio",
    "engine.push_messages_per_node": "count",
    "kernels.sample_ms": "ms",
    "kernels.step_ms": "ms",
    "convergence.observe_ms": "ms",
    "runtime.gossip_ms": "ms",
    "runtime.blocks_per_epoch": "count",
    "runtime.steps_per_epoch": "count",
    "service.submit_us": "us",
    "service.tick_ms": "ms",
    "service.epoch_ms": "ms",
    "service.publish_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.republish_ratio": "ratio",
    "service.shed_fraction": "ratio",
    "loadgen.lag_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Sizes the benchmark runs at; ``tiny`` keeps the self-tests fast while
#: still taking the same code paths (``tiny`` powerlaw stays above auto's
#: dense limit so the sparse path and the kernel replay run).
SIZES = {
    "full": {
        "powerlaw-200k": {"nodes": 200_000, "m": 8, "setup_repeats": 2},
        "gclr-20k": {"nodes": 20_000, "m": 4, "targets": 8, "setup_repeats": 5},
        "service-stream": {
            "peers": 20_000, "m": 2, "history": 150_000, "rate": 6_000,
            "burst": 60_000, "batch": 4096, "reads": 256, "setup_repeats": 2,
        },
        "churn-20k": {"peers": 20_000, "m": 2, "churn_rate": 0.01, "setup_repeats": 9},
    },
    "tiny": {
        "powerlaw-200k": {"nodes": 21_000, "m": 4, "setup_repeats": 2},
        "gclr-20k": {"nodes": 400, "m": 3, "targets": 4, "setup_repeats": 2},
        "service-stream": {
            "peers": 300, "m": 2, "history": 2_000, "rate": 2_000,
            "burst": 1_000, "batch": 256, "reads": 16, "setup_repeats": 2,
        },
        "churn-20k": {"peers": 400, "m": 2, "churn_rate": 0.02, "setup_repeats": 2},
    },
}

#: Fewest measured operations per untraced run, however short ``seconds``.
MIN_OPS = 3
#: Operations replayed untraced and traced in a traced run.
TRACED_OPS = 2
#: Epochs replayed in a traced churn run (the cold epoch plus warm ones).
TRACED_EPOCHS = 4
#: Epochs in the churn schedule: more than any run steps through.
SCHEDULE_EPOCHS = 10_000
#: Full-active push rounds replayed per kernel measurement.
KERNEL_REPLAY_STEPS = 10

#: powerlaw-200k: every node's estimate must sit this close to the exact
#: mean of the values (50x the default convergence tolerance xi = 1e-4).
MEAN_TOL = 5e-3
#: gclr-20k: every eq.-6 reputation must sit this close to true_vector_gclr.
GCLR_TOL = 1e-3
#: churn-20k: the accuracy stop rule's tolerance; every epoch must meet it.
EPOCH_TOL = 1e-3
#: service-stream: ingest queue watermark, far above the bounded backlog,
#: so any shed report means the offered rate outran capacity.
HIGH_WATERMARK = 1 << 18


@dataclass
class Result:
    """One workload run: metrics by name as ``(value, unit)``, checks, and context."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    info: Dict = field(default_factory=dict)
    report: List[str] = field(default_factory=list)


def inputs_ready() -> None:
    """Move the benchmark's own inputs out of the collector's way before timing.

    The report stream alone is hundreds of thousands of objects; frozen,
    the program's garbage collections no longer walk them.
    """
    gc.collect()
    gc.freeze()


def _seq(seed: int, *keys: int) -> np.random.SeedSequence:
    """The input stream for ``keys`` under the workload seed."""
    return np.random.SeedSequence([int(seed), *keys])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_name() -> str:
    _, select_kernel = optional_attr("repro.core.kernels", "select_kernel")
    return select_kernel().name if select_kernel is not None else "n/a"


def outcome_digest(outcome) -> str:
    """SHA-256 over a GossipOutcome's arrays and message counts."""
    digest = hashlib.sha256()
    for array in (outcome.values, outcome.weights, *(outcome.extras[k] for k in sorted(outcome.extras))):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(f"{outcome.steps}/{outcome.push_messages}".encode())
    return digest.hexdigest()


def _e2e(setup_s: float, latency_s: float, throughput: float) -> Dict[str, Tuple[float, str]]:
    values = {
        "setup_s": setup_s,
        "latency_p50_ms": 1000.0 * latency_s,
        "throughput_per_s": throughput,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: (float(values[name]), unit) for name, unit in E2E_UNITS.items()}


def _layers(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    unknown = set(values) - set(LAYER_UNITS)
    if unknown:
        raise KeyError(f"undeclared layer metrics: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in LAYER_UNITS.items()}


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


# -- correctness checks ---------------------------------------------------------
# Each returns the number of failed operations in what it was given.


def mean_failures(outcome, truth: float, tol: float = MEAN_TOL) -> int:
    """1 unless every node converged to within ``tol`` of the exact mean."""
    estimates = outcome.estimates
    ok = bool(np.all(outcome.converged)) and float(np.max(np.abs(estimates - truth))) <= tol
    return 0 if ok else 1


def gclr_failures(reputations: np.ndarray, truth: np.ndarray, converged, tol: float = GCLR_TOL) -> int:
    """1 unless every eq.-6 reputation is within ``tol`` of the exact one."""
    ok = bool(np.all(converged)) and float(np.max(np.abs(reputations - truth))) <= tol
    return 0 if ok else 1


def epoch_failures(record, tol: float = EPOCH_TOL) -> int:
    """1 unless the epoch met the accuracy stop rule's tolerance."""
    ok = record.converged_fraction == 1.0 and record.mean_abs_error <= tol
    return 0 if ok else 1


def independent_fold(num_peers: int, peer_ids: np.ndarray, reports) -> np.ndarray:
    """Served reputations recomputed from the report stream alone (eq. 1 column means)."""
    matrix = TrustMatrix(num_peers)
    for report in reports:
        matrix.set(report.observer, report.target, report.value)
    expected = np.zeros(peer_ids.shape[0], dtype=np.float64)
    for target in {report.target for report in reports}:
        expected[int(np.searchsorted(peer_ids, target))] = matrix.column_mean_over_all(target)
    return expected


def served_failures(snapshot, expected: np.ndarray) -> int:
    """1 unless the served reputations are byte-equal to ``expected``."""
    served = np.ascontiguousarray(snapshot.reputations, dtype=np.float64)
    return 0 if served.tobytes() == np.ascontiguousarray(expected).tobytes() else 1


# -- kernel replay ----------------------------------------------------------------


def replay_kernels(graph, state: np.ndarray, seed) -> Dict[str, float]:
    """Per-step ``PushPlan.sample`` and kernel ``step`` time on ``graph`` at ``state``'s width.

    Replays full-active rounds of the sparse engine's own sampling plan
    and push kernel. Returns ``{}`` when the kernel layer's public names
    are gone.
    """
    _, PushPlan = optional_attr("repro.core.kernels", "PushPlan")
    _, create_kernel = optional_attr("repro.core.kernels", "create_kernel")
    _, resolve_push_counts = optional_attr("repro.core.differential", "resolve_push_counts")
    if PushPlan is None or create_kernel is None or resolve_push_counts is None:
        return {}
    counts = resolve_push_counts(graph, None)
    plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
    kernel = create_kernel(None, plan, 1.0 / (counts + 1.0), state.shape[1], np.float64)
    active = graph.degrees > 0
    rng = np.random.default_rng(seed)
    targets = np.empty(plan.max_pushes, dtype=np.int64)
    sample = [
        timed_call(plan.sample, rng, active, all_active=True, targets_out=targets)[1]
        for _ in range(KERNEL_REPLAY_STEPS)
    ]
    heard = np.empty(graph.num_nodes, dtype=bool)
    state = np.array(state, dtype=np.float64)
    step = []
    for _ in range(KERNEL_REPLAY_STEPS):
        (state, _), seconds = timed_call(
            kernel.step, state, active, all_active=True, rng=rng, loss_model=None, heard_out=heard
        )
        step.append(seconds)
    return {"kernels.sample_ms": 1000.0 * median(sample), "kernels.step_ms": 1000.0 * median(step)}


def _engine_layers(rec: Recorder, intervals: List[Tuple[float, float]]) -> Dict[str, float]:
    """Engine and convergence layer metrics, one sample per operation interval.

    An operation is an aggregate call, an epoch or a service tick; it may
    run several engines (the runtime builds one per fixed-budget block).
    """

    per_op = [[run for run in rec.engine_runs if run.start >= s and run.end <= e] for s, e in intervals]
    runs = [run for op in per_op for run in op]
    node_steps = sum(run.steps * run.num_nodes for run in runs)
    return {
        "engine.construct_ms": 1000.0 * median(
            [e - s for start, end in intervals for s, e in rec.within("engine.construct", start, end)]
        ),
        "engine.run_s": median([rec.total_within("engine.run", s, e) for s, e in intervals]),
        "engine.steps": median([sum(run.steps for run in op) for op in per_op]),
        "engine.active_fraction": ratio(sum(run.active_node_steps for run in runs), node_steps),
        "engine.push_messages_per_node": median(
            [sum(run.push_messages for run in op) / op[0].num_nodes for op in per_op if op]
        ),
        "convergence.observe_ms": 1000.0 * median(
            [e - s for start, end in intervals for s, e in rec.within("convergence.observe", start, end)]
        ),
    }


# -- powerlaw-200k and gclr-20k: one repro.aggregate call per operation -----------


def _run_aggregate(
    *,
    seed: int,
    seconds: float,
    trace: bool,
    size: dict,
    build: Callable,
    call: Callable,
    failures: Callable,
) -> Result:
    """Run an aggregate workload: ``build(stage)`` makes the world, ``call(world, i)`` is operation ``i``."""
    if not trace:
        world, setup_s = median_setup(lambda: build(untraced), size["setup_repeats"])
        backend = choose_backend_name(world.graph, GossipConfig())
        seconds_per_op, messages, failed = [], [], 0
        started = time.perf_counter()
        while len(seconds_per_op) < MIN_OPS or time.perf_counter() - started < seconds:
            outcome, elapsed = timed_call(call, world, len(seconds_per_op))
            seconds_per_op.append(elapsed)
            messages.append(outcome.push_messages)
            failed += failures(world, outcome)
        n = world.graph.num_nodes
        latency = median(seconds_per_op)
        return Result(
            metrics=_e2e(setup_s, latency, ratio(sum(messages), sum(seconds_per_op))),
            attempted=len(seconds_per_op),
            failed=failed,
            info={"backend": backend, "kernel": kernel_name(), "ops": len(seconds_per_op)},
            report=[
                _line("setup_s", setup_s, "s", f"median of {size['setup_repeats']} builds"),
                _line("aggregate_s", latency, "s", f"median of {len(seconds_per_op)} calls"),
                _line("push_messages_per_node", median(messages) / n, "count", "median call"),
                _line("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
        )

    rec = Recorder()
    world = build(rec.call)
    backend = choose_backend_name(world.graph, GossipConfig())
    call(world, TRACED_OPS)  # warm-up, so neither pass pays first-call costs
    patches = engine_patches(rec) + global_patch(rec, "repro.facade", "run_backend", "backend.run")
    plain, traced, per_op = [], [], []
    for i in range(TRACED_OPS):
        plain.append(timed_call(call, world, i))
        with patched(patches), rec.span("aggregate"):
            traced.append(timed_call(call, world, i))
        per_op.append(rec.intervals("aggregate")[-1])
    mismatched = sum(outcome_digest(a) != outcome_digest(b) for (a, _), (b, _) in zip(plain, traced))
    failed = mismatched + sum(failures(world, outcome) for outcome, _ in plain + traced)
    layers = {
        "network.pa_build_s": sum(rec.durations("network.pa_build")),
        "trust.build_s": sum(rec.durations("trust.build")),
        # The facade's own time: the call minus the backend run it makes.
        "facade.initial_state_ms": 1000.0 * median(
            [(e - s) - rec.total_within("backend.run", s, e) for s, e in per_op]
        ),
        "trace.overhead_pct": overhead_pct(sum(t for _, t in traced), sum(t for _, t in plain)),
        **_engine_layers(rec, per_op),
    }
    if backend == "sparse":
        last = traced[-1][0]
        state = np.hstack([last.values, last.weights, *(last.extras[k] for k in sorted(last.extras))])
        layers.update(replay_kernels(world.graph, state, _seq(seed, 9)))
    return Result(
        metrics=_layers(layers),
        attempted=2 * TRACED_OPS,
        failed=failed,
        info={
            "backend": backend,
            "kernel": kernel_name(),
            "identical": mismatched == 0,
            "digests": [outcome_digest(outcome) for outcome, _ in traced],
            "recorder": rec,
        },
    )


def powerlaw_200k(seed: int, seconds: float, trace: bool, size: dict) -> Result:
    """PA graph build, then one mean-value aggregate per operation (auto → sparse)."""
    n, m = size["nodes"], size["m"]
    values = np.random.default_rng(_seq(seed, 2)).random(n)
    truth = float(np.mean(values))
    inputs_ready()

    def build(stage):
        graph = stage("network.pa_build", preferential_attachment_graph_fast, n, m=m, rng=_seq(seed, 1))
        return SimpleNamespace(graph=graph)

    def call(world, i):
        return repro.aggregate(world.graph, values, GossipConfig(rng=_seq(seed, 3, i)))

    return _run_aggregate(
        seed=seed, seconds=seconds, trace=trace, size=size, build=build, call=call,
        failures=lambda world, outcome: mean_failures(outcome, truth),
    )


def gclr_20k(seed: int, seconds: float, trace: bool, size: dict) -> Result:
    """The paper's per-target GCLR reputation over 8 spread targets, one aggregate per gossip seed."""
    n, m = size["nodes"], size["m"]
    targets = np.sort(np.random.default_rng(_seq(seed, 2)).choice(n, size=size["targets"], replace=False))
    params = WeightParams()
    inputs_ready()

    def build(stage):
        graph = stage("network.pa_build", preferential_attachment_graph_fast, n, m=m, rng=_seq(seed, 1))
        trust = stage("trust.build", random_trust_matrix, graph, rng=_seq(seed, 4))
        return SimpleNamespace(graph=graph, trust=trust)

    def call(world, i):
        return repro.aggregate(
            world.graph, world.trust, GossipConfig(rng=_seq(seed, 3, i)),
            variant="vector-gclr", targets=targets.tolist(),
        )

    def failures(world, outcome):
        if not hasattr(world, "truth"):  # the benchmark's reference, computed once per world
            world.truth = true_vector_gclr(world.graph, world.trust, targets.tolist(), params)
        reputations = gclr_reputations(world.graph, world.trust, targets, outcome, params)
        return gclr_failures(reputations, world.truth, outcome.converged)

    return _run_aggregate(
        seed=seed, seconds=seconds, trace=trace, size=size, build=build, call=call, failures=failures,
    )


# -- churn-20k: one warm epoch of the dynamic runtime per operation ---------------


def _churn_world(stage, seed: int, size: dict, schedule: ChurnTrace) -> DynamicReputationRuntime:
    overlay = stage(
        "network.pa_build", MutableOverlay.grow_preferential, size["peers"], m=size["m"], rng=_seq(seed, 1)
    )
    runtime = stage(
        "runtime.construct", DynamicReputationRuntime, overlay,
        backend="auto", warm_start=True, stop_rule="accuracy", epoch_tol=EPOCH_TOL, attachment_m=size["m"],
    )
    runtime.initialize(schedule.seed)
    return runtime


def _epoch_digest(runtime, record) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(runtime.estimates()).tobytes())
    digest.update(f"{record.steps}/{record.push_messages}/{record.num_edges}".encode())
    return digest.hexdigest()


def churn_20k(seed: int, seconds: float, trace: bool, size: dict) -> Result:
    """Steady 1%/1% churn on a PA overlay, accuracy stop rule, warm starts."""
    peers = size["peers"]
    schedule = ChurnTrace.steady(
        SCHEDULE_EPOCHS, population=peers, join_rate=size["churn_rate"], leave_rate=size["churn_rate"], seed=seed
    )
    entries = list(schedule)
    inputs_ready()

    def epoch(runtime, index):
        churn = entries[index]
        return timed_call(runtime.step, arrivals=churn.arrivals, departures=churn.departures)

    if not trace:
        runtime, setup_s = median_setup(lambda: _churn_world(untraced, seed, size, schedule), size["setup_repeats"])
        cold, _ = epoch(runtime, 0)  # epoch 0 is the cold bootstrap, not a steady epoch
        failed = epoch_failures(cold)
        warm: List[Tuple[object, float]] = []
        started = time.perf_counter()
        while len(warm) < MIN_OPS or time.perf_counter() - started < seconds:
            record, elapsed = epoch(runtime, len(warm) + 1)
            warm.append((record, elapsed))
            failed += epoch_failures(record)
        latency = median([t for _, t in warm])
        messages = [r.push_messages / r.num_peers for r, _ in warm]
        return Result(
            metrics=_e2e(setup_s, latency, ratio(sum(r.push_messages for r, _ in warm), sum(t for _, t in warm))),
            attempted=len(warm) + 1,
            failed=failed,
            info={"backend": runtime.backend, "kernel": kernel_name(), "ops": len(warm)},
            report=[
                _line("setup_s", setup_s, "s", f"median of {size['setup_repeats']} builds"),
                _line("epoch_p50_ms", 1000.0 * latency, "ms", f"median of {len(warm)} warm epochs"),
                _line("push_messages_per_node", median(messages), "count", "median warm epoch"),
                _line("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
        )

    # The untraced and traced worlds step alternately, so both see the
    # same cache and clock conditions.
    plain_runtime = _churn_world(untraced, seed, size, schedule)
    rec = Recorder()
    runtime = _churn_world(rec.call, seed, size, schedule)
    overlay = runtime.overlay
    patches = engine_patches(rec) + global_patch(rec, "repro.runtime.dynamics", "run_backend", "runtime.gossip")
    for attr in ("add_peer", "remove_peer", "bridge_components"):
        patches += method_patch(rec, overlay, attr, "network.churn")
    patches += method_patch(rec, overlay, "snapshot", "network.snapshot")
    plain, traced, per_epoch = [], [], []
    for index in range(TRACED_EPOCHS):
        record, elapsed = epoch(plain_runtime, index)
        plain.append((record, elapsed, _epoch_digest(plain_runtime, record)))
        with patched(patches), rec.span("runtime.epoch"):
            record, elapsed = epoch(runtime, index)
        traced.append((record, elapsed, _epoch_digest(runtime, record)))
        per_epoch.append(rec.intervals("runtime.epoch")[-1])
    mismatched = sum(a[2] != b[2] for a, b in zip(plain, traced))
    failed = mismatched + sum(epoch_failures(r) for r, _, _ in plain + traced)
    warm_epochs = per_epoch[1:]
    warm_records = [r for r, _, _ in traced[1:]]
    layers = {
        "network.pa_build_s": sum(rec.durations("network.pa_build")),
        "network.churn_ms": 1000.0 * median([rec.total_within("network.churn", s, e) for s, e in warm_epochs]),
        "network.snapshot_ms": 1000.0 * median(
            [rec.total_within("network.snapshot", s, e, outside=("network.churn",)) for s, e in warm_epochs]
        ),
        "runtime.gossip_ms": 1000.0 * median([rec.total_within("runtime.gossip", s, e) for s, e in warm_epochs]),
        "runtime.blocks_per_epoch": median([len(rec.within("runtime.gossip", s, e)) for s, e in warm_epochs]),
        "runtime.steps_per_epoch": median([r.steps for r in warm_records]),
        "trace.overhead_pct": overhead_pct(sum(t for _, t, _ in traced[1:]), sum(t for _, t, _ in plain[1:])),
        **_engine_layers(rec, warm_epochs),
    }
    return Result(
        metrics=_layers(layers),
        attempted=2 * TRACED_EPOCHS,
        failed=failed,
        info={
            "backend": runtime.backend,
            "kernel": kernel_name(),
            "identical": mismatched == 0,
            "digests": [d for _, _, d in traced],
            "recorder": rec,
        },
    )


# -- service-stream: open-loop ingest with interleaved reads, then a closed-loop burst --


def _service_world(stage, seed: int, size: dict, history) -> ReputationService:
    overlay = stage(
        "network.pa_build", MutableOverlay.grow_preferential, size["peers"], m=size["m"], rng=_seq(seed, 3)
    )
    service = stage(
        "service.construct", ReputationService, overlay,
        seed=seed, batch_size=size["batch"], high_watermark=HIGH_WATERMARK, attachment_m=size["m"],
    )

    def fold_history():
        service.submit_batch(history)
        while service.queue.pending:
            service.tick()

    stage("trust.build", fold_history)
    return service


def _open_loop(service, stream, rate: float, read_ids: List[int], rec=None) -> SimpleNamespace:
    """Offer ``stream`` at ``rate`` reports/s from one thread; tick and read in between.

    A report's visible latency runs from its due time — not its send
    time — to the return of the tick whose snapshot folds it, so a stall
    also charges the reports that were due meanwhile.
    """
    n = len(stream)
    accepted_idx = np.empty(n, dtype=np.int64)
    submitted_at = np.empty(n, dtype=np.float64)
    tick = rec.wrap("service.tick", service.tick) if rec is not None else service.tick
    n_accepted = sent = shed = reads = 0
    read_s = 0.0
    lags, submit_us, tick_s, folded, published, republished, steps = [], [], [], [], [], [], []
    t0 = time.perf_counter()
    while sent < n or service.queue.pending:
        now = time.perf_counter()
        ready = min(n, int((now - t0) * rate) + 1)
        if ready > sent:
            lags.append(now - (t0 + sent / rate))
            batch = stream[sent:ready]
            start = time.perf_counter()
            accepted = service.submit_batch(batch)
            end = time.perf_counter()
            submit_us.append(1e6 * (end - start) / len(batch))
            accepted_idx[n_accepted : n_accepted + accepted] = np.arange(sent, sent + accepted)
            submitted_at[n_accepted : n_accepted + accepted] = end
            n_accepted += accepted
            shed += len(batch) - accepted
            sent = ready
        start = time.perf_counter()
        record = tick()
        published.append(time.perf_counter())
        tick_s.append(published[-1] - start)
        folded.append(record.reports_folded)
        republished.append(record.targets_republished)
        steps.append(record.epoch_steps)
        start = time.perf_counter()
        for pid in read_ids:
            service.get_reputation(pid)
        service.top_k(10)
        read_s += time.perf_counter() - start
        reads += len(read_ids) + 1
    due = t0 + accepted_idx[:n_accepted] / rate
    ends = np.cumsum(folded)
    visible = np.concatenate(
        [published[k] - due[ends[k] - folded[k] : ends[k]] for k in range(len(folded))]
    ) if n_accepted else np.zeros(0)
    return SimpleNamespace(
        visible_s=visible, lags_s=lags, submit_us=submit_us, tick_s=tick_s, folded=folded,
        republished=republished, steps=steps, submitted_at=submitted_at[:n_accepted], shed=shed,
        reads=reads, read_s=read_s, offered=n,
    )


def _closed_loop(service, burst, batch: int) -> Tuple[float, int]:
    """Submit a batch, tick, repeat; return ``(reports/s, shed)``."""
    shed = 0
    started = time.perf_counter()
    for i in range(0, len(burst), batch):
        chunk = burst[i : i + batch]
        shed += len(chunk) - service.submit_batch(chunk)
        service.tick()
    while service.queue.pending:
        service.tick()
    return ratio(len(burst), time.perf_counter() - started), shed


def service_stream(seed: int, seconds: float, trace: bool, size: dict) -> Result:
    """ReputationService over a 20k-peer overlay: reports in, snapshots out, reads between ticks."""
    peers, rate = size["peers"], size["rate"]
    open_count = int(rate * max(1.0, seconds))
    reports = generate_reports(size["history"] + open_count + size["burst"], peers, rng=_seq(seed, 1))
    history = reports[: size["history"]]
    stream = reports[size["history"] : size["history"] + open_count]
    burst = reports[size["history"] + open_count :]
    read_ids = [int(p) for p in np.random.default_rng(_seq(seed, 2)).integers(0, peers, size=size["reads"])]
    inputs_ready()

    def finish(service, loop, burst_shed):
        expected = independent_fold(service.overlay.max_peer_id + 1, service.snapshot().peer_ids, reports)
        failed = loop.shed + burst_shed + served_failures(service.snapshot(), expected)
        return failed, loop.offered + len(burst) + 1

    if not trace:
        service, setup_s = median_setup(
            lambda: _service_world(untraced, seed, size, history), size["setup_repeats"]
        )
        loop = _open_loop(service, stream, rate, read_ids)
        ingest, burst_shed = _closed_loop(service, burst, size["batch"])
        failed, attempted = finish(service, loop, burst_shed)
        visible = loop.visible_s
        return Result(
            metrics=_e2e(setup_s, median(visible), ingest),
            attempted=attempted,
            failed=failed,
            info={
                "backend": service.backend, "kernel": kernel_name(),
                "ops": int(visible.shape[0]), "digest": service.snapshot().digest(),
            },
            report=[
                _line("setup_s", setup_s, "s", f"median of {size['setup_repeats']} builds"),
                _line("report_visible_p50_ms", 1000.0 * median(visible), "ms", f"{visible.shape[0]} reports"),
                _line("report_visible_p95_ms", 1000.0 * percentile(visible, 95), "ms", f"{visible.shape[0]} reports"),
                _line("ingest_reports_per_s", ingest, "1/s", f"closed loop, {len(burst)} reports"),
                _line("reads_per_s", ratio(loop.reads, loop.read_s), "1/s", f"{loop.reads} reads"),
                _line("offered_reports_per_s", rate, "1/s", f"open loop, {loop.offered} reports"),
                _line("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
        )

    plain_service = _service_world(untraced, seed, size, history)
    plain_loop = _open_loop(plain_service, stream, rate, read_ids)
    _, plain_burst_shed = _closed_loop(plain_service, burst, size["batch"])
    plain_failed, plain_attempted = finish(plain_service, plain_loop, plain_burst_shed)
    plain_digest = plain_service.snapshot().digest()
    plain_service = None

    rec = Recorder()
    service = _service_world(rec.call, seed, size, history)
    patches = engine_patches(rec)
    patches += global_patch(rec, "repro.runtime.dynamics", "run_backend", "runtime.gossip")
    patches += method_patch(rec, service.queue, "drain", "service.drain")
    patches += method_patch(rec, service.overlay, "snapshot", "network.snapshot")
    patches += [(DynamicReputationRuntime, "step", rec.wrap("service.epoch", DynamicReputationRuntime.step))]
    with patched(patches):
        loop = _open_loop(service, stream, rate, read_ids, rec)
    ingest, burst_shed = _closed_loop(service, burst, size["batch"])
    failed, attempted = finish(service, loop, burst_shed)
    digest = service.snapshot().digest()
    mismatched = int(digest != plain_digest)

    # Per tick: drain → fold → epoch → publish. The fold is what runs
    # between the drain's return and the epoch's start, the publish what
    # runs after the epoch returns until the tick does.
    fold_s, publish_s, epoch_s, waits, gossip_s, blocks, snapshot_s = [], [], [], [], [], [], []
    ends = np.cumsum(loop.folded)
    ticks = rec.intervals("service.tick")
    for k, (start, end) in enumerate(ticks):
        drain = rec.within("service.drain", start, end)
        step = rec.within("service.epoch", start, end)
        if not drain or not step:
            continue
        fold_s.append(step[0][0] - drain[0][1])
        publish_s.append(end - step[0][1])
        epoch_s.append(step[0][1] - step[0][0])
        gossip_s.append(rec.total_within("runtime.gossip", start, end))
        blocks.append(len(rec.within("runtime.gossip", start, end)))
        snapshot_s.append(rec.total_within("network.snapshot", start, end))
        if loop.folded[k]:
            waits.append(drain[0][1] - loop.submitted_at[ends[k] - loop.folded[k] : ends[k]])
    waits = np.concatenate(waits) if waits else np.zeros(0)
    layers = {
        "network.pa_build_s": sum(rec.durations("network.pa_build")),
        "network.snapshot_ms": 1000.0 * median(snapshot_s),
        "trust.build_s": sum(rec.durations("trust.build")),
        "trust.fold_ms": 1000.0 * median(fold_s),
        "runtime.gossip_ms": 1000.0 * median(gossip_s),
        "runtime.blocks_per_epoch": median(blocks),
        "runtime.steps_per_epoch": median(loop.steps),
        "service.submit_us": median(loop.submit_us),
        "service.tick_ms": 1000.0 * median(loop.tick_s),
        "service.epoch_ms": 1000.0 * median(epoch_s),
        "service.publish_ms": 1000.0 * median(publish_s),
        "service.queue_wait_ms": 1000.0 * median(waits),
        "service.republish_ratio": ratio(sum(loop.republished), sum(loop.folded)),
        "service.shed_fraction": ratio(loop.shed, loop.offered),
        "loadgen.lag_ms": 1000.0 * median(loop.lags_s),
        "trace.overhead_pct": overhead_pct(sum(loop.tick_s), sum(plain_loop.tick_s)),
        **_engine_layers(rec, ticks),
    }
    return Result(
        metrics=_layers(layers),
        attempted=attempted + plain_attempted,
        failed=failed + plain_failed + mismatched,
        info={
            "backend": service.backend,
            "kernel": kernel_name(),
            "identical": mismatched == 0,
            "digests": [digest],
            "recorder": rec,
        },
    )


WORKLOADS = {
    "powerlaw-200k": powerlaw_200k,
    "gclr-20k": gclr_20k,
    "service-stream": service_stream,
    "churn-20k": churn_20k,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Result:
    return WORKLOADS[name](seed, seconds, trace, SIZES[size][name])
