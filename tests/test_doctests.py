"""Run every module's doctests as part of the main suite.

Docstring examples are the first code a user copies; they must execute.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro
from repro.core.backend import available_backends


def _all_modules():
    names = ["repro"]
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if module_info.name.endswith("__main__"):
            continue  # argparse entry point; no doctests, imports sys.exit
        names.append(module_info.name)
    return names


def _run_doctests(module_name):
    results = doctest.testmod(importlib.import_module(module_name), verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_doctests(module_name):
    _run_doctests(module_name)


def test_backend_doctests_leave_the_registry_as_they_found_it():
    # The register_backend example registers "demo"; a later test in the
    # same process must still see only the built-in backends.
    _run_doctests("repro.core.backend")
    assert available_backends() == ("async", "message", "sparse")


@pytest.mark.parametrize(
    "module_name, listing, demo",
    [
        ("repro.attacks.models", "available_attacks", "demo-slander"),
        ("repro.algorithms.registry", "available_algorithms", "demo"),
    ],
)
def test_registry_doctests_do_not_leak(module_name, listing, demo):
    names = getattr(importlib.import_module(module_name), listing)
    before = names()
    _run_doctests(module_name)
    assert names() == before
    assert demo not in names()


@pytest.mark.parametrize("symbol", [name for name in repro.__all__ if not name.startswith("__")])
def test_public_symbol_has_runnable_example(symbol):
    """Every re-exported symbol documents itself with a doctest example."""
    import inspect

    obj = getattr(repro, symbol)
    doc = inspect.getdoc(obj) or ""
    assert doc, f"repro.{symbol} has no docstring"
    assert ">>>" in doc, f"repro.{symbol} docstring has no runnable example"
