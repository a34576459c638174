"""The shared name-table contract of the five registries.

Backends, algorithms, attack families, scenarios and experiments each
keep one :class:`repro.utils.registry.Registry`. Every entry has one
name: a duplicate registration is refused without touching the table,
an unknown name raises the registry's typed error listing the
catalogue, and the names that used to be aliases of an entry resolve
to nothing.
"""

import pytest

from repro.algorithms import UnknownAlgorithmError, available_algorithms, get_algorithm
from repro.algorithms import registry as algorithm_registry
from repro.attacks import models as attack_models
from repro.attacks.models import UnknownAttackError, available_attacks, get_attack
from repro.core import backend as backend_mod
from repro.core.backend import UnknownBackendError, available_backends, get_backend
from repro.experiments import registry as experiment_registry
from repro.experiments.registry import available_experiments, get_experiment
from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios import spec as scenario_spec

REGISTRIES = {
    "backend": (
        backend_mod._BACKENDS, get_backend, available_backends, UnknownBackendError,
        ("csr",),
    ),
    "algorithm": (
        algorithm_registry._ALGORITHMS, get_algorithm, available_algorithms,
        UnknownAlgorithmError,
        (
            "dgt", "differential-gossip", "normal-push", "gossiptrust",
            "eigen-trust", "flood", "absolutetrust",
        ),
    ),
    "attack": (
        attack_models._ATTACKS, get_attack, available_attacks, UnknownAttackError,
        (
            "whitewash", "bad-mouthing", "badmouthing", "cross-slander",
            "oscillation", "oscillating", "sybil-flood",
        ),
    ),
    "scenario": (scenario_spec._SCENARIOS, get_scenario, available_scenarios, KeyError, ()),
    "experiment": (
        experiment_registry._EXPERIMENTS, get_experiment, available_experiments, KeyError, ()
    ),
}


@pytest.fixture(params=sorted(REGISTRIES))
def registry(request):
    return REGISTRIES[request.param]


class TestRegistryContract:
    def test_public_functions_read_the_table(self, registry):
        table, get, names, _, _ = registry
        assert names() == table.names() == tuple(sorted(table._entries))
        for name in names():
            assert get(name) is table._entries[name]

    def test_duplicate_name_raises_and_leaves_the_table_unchanged(self, registry):
        table, _, names, _, _ = registry
        before = dict(table._entries)
        for name in names():
            with pytest.raises(ValueError, match="already registered"):
                table.register(name, object())
        for bad in ("", None):
            with pytest.raises(ValueError, match="non-empty string"):
                table.register(bad, object())
        assert table._entries.keys() == before.keys()
        assert all(table._entries[name] is entry for name, entry in before.items())

    def test_unknown_name_raises_the_typed_error_listing_the_catalogue(self, registry):
        table, get, names, error, _ = registry
        with pytest.raises(error) as excinfo:
            get("no-such-entry")
        assert isinstance(excinfo.value, KeyError)
        if error is not KeyError:
            assert isinstance(excinfo.value, ValueError)
        message = excinfo.value.args[0]
        assert message.startswith(f"unknown {table.noun} 'no-such-entry'")
        assert message.split("; available: ")[1].split(", ") == list(names())

    def test_former_aliases_raise(self, registry):
        table, get, _, error, aliases = registry
        for alias in aliases:
            with pytest.raises(error):
                get(alias)
            with pytest.raises(error):
                table.resolve(alias)
