"""Every public name exists, and the package re-exports each from its home module."""

import importlib

import pytest

import qrafts

MODULES = ["qrafts", "qrafts.series", "qrafts.identities", "qrafts.partitions",
           "qrafts.rafts"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_package_reexports_home_objects():
    homes = [importlib.import_module(m) for m in MODULES[1:]]
    for name in qrafts.__all__:
        if name == "__version__":
            continue
        found = [mod for mod in homes if name in mod.__all__]
        assert len(found) == 1, f"{name} has {len(found)} home modules"
        assert getattr(qrafts, name) is getattr(found[0], name), name
