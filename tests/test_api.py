"""The package's public surface: every exported name exists."""

import importlib

import pytest

MODULES = ("adversarial", "cli", "distances", "harness", "model", "rng",
           "serialize", "tester", "violation")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"subcube.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_root_exposes_no_test_functions():
    """A star import of the package must not hand pytest a test to collect."""
    subcube = importlib.import_module("subcube")
    assert [name for name in dir(subcube) if name.startswith("test_")
            and callable(getattr(subcube, name))] == []
