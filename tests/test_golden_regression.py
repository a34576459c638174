"""Diff small experiment and scenario runs against the committed golden fixtures.

A failure here means the numerics of an experiment pipeline or of the
scenario runner moved. If the change is intentional, regenerate and
commit the fixtures so the diff is visible at review time::

    PYTHONPATH=src python -m tests.regen_golden
"""

import json

import pytest

from tests.regen_golden import (
    GOLDEN_SPECS,
    cell_difference,
    golden_path,
    golden_payload,
    scenario_cases,
    scenario_cell,
)

REGEN_HINT = (
    "golden fixture drift — if this numeric change is intentional, run "
    "`PYTHONPATH=src python -m tests.regen_golden` and commit the updated fixtures"
)


def load_fixture(experiment_id):
    path = golden_path(experiment_id)
    if not path.exists():
        pytest.fail(f"missing golden fixture {path}; run `PYTHONPATH=src python -m tests.regen_golden`")
    with path.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_SPECS))
def test_experiment_matches_golden_fixture(experiment_id):
    diff = cell_difference(golden_payload(experiment_id), load_fixture(experiment_id), experiment_id)
    assert diff is None, f"{diff}; {REGEN_HINT}"


def test_cell_tolerance_absorbs_only_last_digit_noise():
    pinned = {"rows": [[3, 0.04495898499765586]]}
    assert cell_difference({"rows": [[3, 0.04495898499765583]]}, pinned) is None
    moved = cell_difference({"rows": [[3, 0.04495898499765586 * (1 + 1e-6)]]}, pinned)
    assert moved is not None and moved.startswith("[rows][0][1]")


@pytest.fixture(scope="module")
def scenario_fixture():
    return load_fixture("scenarios")


SCENARIO_CASES = scenario_cases()


def test_scenario_fixture_pins_every_case(scenario_fixture):
    assert sorted(scenario_fixture) == sorted(SCENARIO_CASES), (
        f"the pinned scenario set changed; {REGEN_HINT}"
    )


@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_scenario_matches_golden_fixture(case, scenario_fixture):
    diff = cell_difference(scenario_cell(SCENARIO_CASES[case]), scenario_fixture[case], case)
    assert diff is None, f"{diff}; {REGEN_HINT}"
