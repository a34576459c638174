"""Diff small experiment and scenario runs against the committed golden fixtures.

A failure here means the numerics of an experiment pipeline or of the
scenario runner moved. If the change is intentional, regenerate and
commit the fixtures so the diff is visible at review time::

    PYTHONPATH=src python -m tests.regen_golden
"""

import json
import math

import pytest

from tests.regen_golden import (
    GOLDEN_SPECS,
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


def assert_cell_equal(actual, expected, *, where):
    if isinstance(expected, float) or isinstance(actual, float):
        assert math.isclose(float(actual), float(expected), rel_tol=1e-9, abs_tol=1e-12), (
            f"{where}: {actual!r} != golden {expected!r}; {REGEN_HINT}"
        )
    else:
        assert actual == expected, f"{where}: {actual!r} != golden {expected!r}; {REGEN_HINT}"


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_SPECS))
def test_experiment_matches_golden_fixture(experiment_id):
    fixture = load_fixture(experiment_id)
    fresh = golden_payload(experiment_id)

    assert fresh["spec"] == fixture["spec"], (
        f"{experiment_id}: the pinned spec changed; {REGEN_HINT}"
    )
    assert fresh["headers"] == fixture["headers"], (
        f"{experiment_id}: table headers changed; {REGEN_HINT}"
    )
    assert len(fresh["rows"]) == len(fixture["rows"]), (
        f"{experiment_id}: row count changed; {REGEN_HINT}"
    )
    for row_index, (actual_row, expected_row) in enumerate(zip(fresh["rows"], fixture["rows"])):
        assert len(actual_row) == len(expected_row), (
            f"{experiment_id} row {row_index}: cell count changed; {REGEN_HINT}"
        )
        for col, (actual, expected) in enumerate(zip(actual_row, expected_row)):
            header = fixture["headers"][col] if col < len(fixture["headers"]) else col
            assert_cell_equal(
                actual, expected, where=f"{experiment_id} row {row_index} [{header}]"
            )


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
    expected = scenario_fixture[case]
    fresh = scenario_cell(SCENARIO_CASES[case])
    assert sorted(fresh) == sorted(expected), f"{case}: pinned fields changed; {REGEN_HINT}"
    for key, value in expected.items():
        if isinstance(value, dict):
            assert sorted(fresh[key]) == sorted(value), f"{case}: {key} keys changed; {REGEN_HINT}"
            for name, cell in value.items():
                assert_cell_equal(fresh[key][name], cell, where=f"{case} {key}[{name}]")
        else:
            assert_cell_equal(fresh[key], value, where=f"{case} [{key}]")
