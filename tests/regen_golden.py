"""Golden-value fixtures for the experiment pipelines.

The experiment runners (fig3, fig4, table2, ...) are fully seeded, so a
small run's output table is a deterministic function of the code. The
JSON files under ``tests/data/golden/`` pin those tables; the
regression test (:mod:`tests.test_golden_regression`) re-runs the same
small configurations and diffs every cell, so a refactor that silently
shifts the numerics — a reordered reduction, a changed rng stream, an
off-by-one in the push rule — fails review instead of drifting into the
published tables.

When a change *intentionally* moves the numbers (a new rng layout, a
bugfix to the update rule), regenerate the fixtures and commit the diff
alongside the code so the review sees exactly which cells moved::

    PYTHONPATH=src python -m tests.regen_golden

Regeneration rewrites only the fixtures that moved: a file whose every
cell matches under :func:`cell_difference` (the regression test's own
comparison) is left as committed, so last-digit float noise from
another platform's reductions never shows up as a diff.

The configurations are deliberately tiny (a second or two in total):
golden fixtures guard against *drift*, not statistical quality — the
full-scale sweeps remain the experiments' own job.

``scenarios.json`` pins the scenario runner the same way: every
registered scenario at ``--small`` on its own seed, plus the
off-catalogue compositions of :func:`scenario_compositions`, each
result stored field by field (wall clock and free-text notes left out).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, Optional

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

#: Experiment id -> the exact small-run kwargs the fixture pins.
GOLDEN_SPECS: Dict[str, dict] = {
    "fig3": dict(sizes=(60, 120), xis=(1e-2, 1e-3), seed=11, backend="sparse"),
    "fig4": dict(
        num_nodes=150, loss_probabilities=(0.0, 0.2), xis=(1e-2, 1e-3), seed=13, backend="sparse"
    ),
    "table1": dict(xi=0.005, seed=2016, max_iterations=30),
    "table2": dict(sizes=(60, 120), xis=(1e-2, 1e-3), seed=7, backend="sparse"),
    "attack_slander": dict(
        num_nodes=80,
        fractions=(0.1, 0.3),
        victim_fraction=0.15,
        num_targets=20,
        xi=1e-3,
        seed=21,
        backend="sparse",
    ),
    "attack_sybil": dict(
        num_nodes=80,
        sybil_fractions=(0.1, 0.25),
        num_targets=20,
        xi=1e-3,
        seed=27,
        backend="sparse",
    ),
}


#: Float cells within these tolerances of their pinned value have not
#: moved (a reordered reduction changes the last digits, nothing more).
REL_TOL = 1e-9
ABS_TOL = 1e-12


def cell_difference(actual, expected, where: str = "") -> Optional[str]:
    """Where ``actual`` first differs from the pinned ``expected``, or
    ``None`` if every cell matches: floats within ``REL_TOL``/``ABS_TOL``,
    any other cell exactly, dicts and lists cell by cell."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(actual) != sorted(expected):
            return f"{where}: keys {sorted(actual)} != golden {sorted(expected)}"
        pairs = [(f"{where}[{key}]", actual[key], expected[key]) for key in sorted(expected)]
    elif isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(actual) != len(expected):
            return f"{where}: {len(actual)} cells != golden {len(expected)}"
        pairs = [(f"{where}[{i}]", a, e) for i, (a, e) in enumerate(zip(actual, expected))]
    else:
        if isinstance(expected, float) or isinstance(actual, float):
            same = math.isclose(float(actual), float(expected), rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            same = actual == expected
        return None if same else f"{where}: {actual!r} != golden {expected!r}"
    for path, a, e in pairs:
        diff = cell_difference(a, e, path)
        if diff is not None:
            return diff
    return None


def _plain(cell):
    """JSON-safe cell: numpy scalars to Python, everything else as-is."""
    if hasattr(cell, "item"):
        return cell.item()
    return cell


def run_golden(experiment_id: str):
    """Execute the pinned small configuration of one experiment."""
    from repro.experiments.registry import get_experiment

    return get_experiment(experiment_id)(**GOLDEN_SPECS[experiment_id])


def golden_payload(experiment_id: str) -> dict:
    """The JSON document a fixture stores for one experiment."""
    result = run_golden(experiment_id)
    return {
        "experiment_id": result.experiment_id,
        "spec": {key: list(v) if isinstance(v, tuple) else v for key, v in GOLDEN_SPECS[experiment_id].items()},
        "headers": list(result.headers),
        "rows": [[_plain(cell) for cell in row] for row in result.rows],
    }


def golden_path(experiment_id: str) -> Path:
    """Fixture file for one experiment."""
    return GOLDEN_DIR / f"{experiment_id}.json"


#: ``ScenarioResult`` fields the scenario fixture leaves out: the wall
#: clock, and the free-text notes.
SCENARIO_UNPINNED = ("elapsed_seconds", "notes", "timings")


def scenario_compositions() -> dict:
    """Off-catalogue scenarios, by name, that reach runner branches no
    registered scenario reaches."""
    from repro.scenarios import (
        AlgorithmSpec,
        AttackSpec,
        Scenario,
        TopologySpec,
        WorkloadSpec,
    )

    world = TopologySpec(kind="powerlaw", num_nodes=400, small_num_nodes=400, m=2)
    global_complete = WorkloadSpec(kind="trust-global", observations="complete")
    gclr = WorkloadSpec(kind="trust-gclr")
    dual = WorkloadSpec(kind="dual-rank")
    slander = dict(fraction=0.2, victim_fraction=0.05)
    axes = {
        "trust-global-complete": dict(workload=global_complete),
        "eigentrust-complete": dict(
            workload=global_complete, algorithm=AlgorithmSpec("eigentrust")
        ),
        "diff-gossip-algorithm": dict(
            workload=WorkloadSpec(kind="trust-global"), algorithm=AlgorithmSpec("diff-gossip")
        ),
        "dual-rank-clean": dict(workload=dual),
        "dual-rank-slandering-complete": dict(
            workload=WorkloadSpec(kind="dual-rank", observations="complete"),
            attack=AttackSpec(kind="slandering", **slander),
        ),
        "dual-rank-on-off": dict(workload=dual, attack=AttackSpec(kind="on-off", **slander)),
        "gclr-cross-channel-slander": dict(
            workload=gclr, attack=AttackSpec(kind="cross-channel-slander", **slander)
        ),
        "gclr-whitewashing": dict(
            workload=gclr, attack=AttackSpec(kind="whitewashing", fraction=0.2)
        ),
        # 0.3 of 400 nodes: far more victims than half the 20 targets.
        "gclr-many-victims": dict(
            workload=gclr,
            attack=AttackSpec(kind="slandering", fraction=0.2, victim_fraction=0.3),
        ),
        "gclr-on-off-no-off-phase": dict(
            workload=gclr, attack=AttackSpec(kind="on-off", period=1, **slander)
        ),
    }
    return {
        name: Scenario(name=name, description="golden composition", topology=world, **spec)
        for name, spec in axes.items()
    }


def scenario_cases() -> dict:
    """Every pinned scenario by name: the catalogue, then the compositions."""
    from repro.scenarios import available_scenarios, get_scenario

    cases = {name: get_scenario(name) for name in available_scenarios()}
    cases.update(scenario_compositions())
    return cases


def scenario_cell(scenario) -> dict:
    """One scenario's ``--small`` result as the fixture stores it."""
    from repro.scenarios import run_scenario

    result = run_scenario(scenario, small=True)
    return {
        f.name: _plain(getattr(result, f.name))
        for f in dataclasses.fields(result)
        if f.name not in SCENARIO_UNPINNED
    }


def scenario_payload() -> dict:
    """The JSON document ``scenarios.json`` stores."""
    return {name: scenario_cell(scenario) for name, scenario in scenario_cases().items()}


def _write_if_moved(path: Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` unless the committed fixture already
    pins it cell for cell."""
    if path.exists():
        with path.open() as handle:
            if cell_difference(payload, json.load(handle)) is None:
                print(f"unchanged {path}")
                return
    with path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for experiment_id in sorted(GOLDEN_SPECS):
        _write_if_moved(golden_path(experiment_id), golden_payload(experiment_id))
    _write_if_moved(golden_path("scenarios"), scenario_payload())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
