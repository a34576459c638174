"""Self-tests of the benchmark at tiny world sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from repro import GossipConfig, aggregate  # noqa: E402
from repro.network.topology_example import example_network  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 5


@pytest.fixture(scope="module")
def runs():
    """Each workload's tiny untraced run and two traced runs of the same seed."""
    return {
        name: {
            "untraced": workloads.run_workload(name, SEED, 0, False, "tiny"),
            "traced": workloads.run_workload(name, SEED, 0, True, "tiny"),
            "traced_again": workloads.run_workload(name, SEED, 0, True, "tiny"),
        }
        for name in NAMES
    }


def test_workloads_match_the_benchmark_file():
    import run

    assert NAMES == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("kind, section", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, name, kind, section):
    result = runs[name][kind]
    declared = {m["name"]: m for m in BENCHMARK[section]}
    assert set(result.metrics) == set(declared)
    for metric, (value, unit) in result.metrics.items():
        assert unit == declared[metric]["unit"]
        assert declared[metric]["better"] in ("lower", "higher")
        assert np.isfinite(value)
    assert result.attempted >= 1 and result.failed == 0


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_never_zero(runs, name):
    assert all(value > 0 for value, _ in runs[name]["untraced"].metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_equal_untraced_outputs(runs, name):
    assert runs[name]["traced"].info["identical"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_counts(runs, name):
    first, second = runs[name]["traced"], runs[name]["traced_again"]
    assert first.info["digests"] == second.info["digests"]
    for metric in ("engine.steps", "engine.push_messages_per_node", "runtime.steps_per_epoch"):
        assert first.metrics[metric] == second.metrics[metric]


def test_corrupted_mean_estimate_is_a_failure():
    values = np.linspace(0.0, 1.0, 10)
    outcome = aggregate(example_network(), values, GossipConfig(xi=1e-6, rng=1))
    assert workloads.mean_failures(outcome, float(values.mean())) == 0
    corrupted = dataclasses.replace(outcome, values=outcome.values.copy())
    corrupted.values[3, 0] += 0.1 * corrupted.weights[3, 0]
    assert workloads.mean_failures(corrupted, float(values.mean())) == 1


def test_corrupted_gclr_reputation_is_a_failure():
    truth = np.full((4, 2), 0.5)
    converged = np.ones(4, dtype=bool)
    assert workloads.gclr_failures(truth.copy(), truth, converged) == 0
    corrupted = truth.copy()
    corrupted[1, 1] += 2 * workloads.GCLR_TOL
    assert workloads.gclr_failures(corrupted, truth, converged) == 1
    assert workloads.gclr_failures(truth.copy(), truth, ~converged) == 1


def test_epoch_missing_its_tolerance_is_a_failure():
    from repro.runtime.dynamics import EpochRecord

    record = EpochRecord(
        epoch=1, num_peers=10, num_edges=20, arrivals=0, departures=0, warm=True, steps=4,
        push_messages=40, converged_fraction=1.0, true_mean=0.5, max_abs_error=1e-4,
        mean_abs_error=1e-4, elapsed_seconds=0.0,
    )
    assert workloads.epoch_failures(record) == 0
    assert workloads.epoch_failures(dataclasses.replace(record, mean_abs_error=2 * workloads.EPOCH_TOL)) == 1
    assert workloads.epoch_failures(dataclasses.replace(record, converged_fraction=0.0)) == 1


def test_served_reputation_off_by_one_ulp_is_a_failure():
    from repro.service import ReputationService
    from repro.service.reports import generate_reports

    reports = generate_reports(200, 30, rng=2)
    service = ReputationService(30, seed=4, batch_size=16)
    service.submit_batch(reports)
    service.drain_pending()
    snapshot = service.snapshot()
    expected = workloads.independent_fold(30, snapshot.peer_ids, reports)
    assert workloads.served_failures(snapshot, expected) == 0
    expected[int(np.argmax(expected))] = np.nextafter(expected.max(), 2.0)
    assert workloads.served_failures(snapshot, expected) == 1


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_cli_last_line_is_the_result_record():
    done = _run_cli(ROOT, "--workload", "gclr-20k", "--seed", "3", "--seconds", "0", "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(last["metrics"])
    assert all(set(entry) == {"value", "unit"} for entry in last["metrics"].values())


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    done = _run_cli(tmp_path, "--workload", "gclr-20k", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
