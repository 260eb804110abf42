"""Every ``repro`` module imports and every name in its ``__all__`` resolves.

A deletion that leaves a stale export behind (a removed class still listed
in a package's ``__all__``) breaks ``from repro.x import *`` and the lazy
top-level exports without failing any behavioural test; this walk catches it.
"""

import importlib
import pkgutil

import pytest

import repro


def all_modules():
    names = ["repro"]
    names.extend(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    )
    return sorted(names)


MODULES = all_modules()


def test_walk_finds_the_package_tree():
    assert "repro.peps.envs.base" in MODULES
    assert "repro.sim.serve" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
