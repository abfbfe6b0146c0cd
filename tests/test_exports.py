"""Every name a module exports in ``__all__`` resolves: no stale export
outlives the code it named."""

import importlib
import pkgutil

import pytest

import trisecant

# ``__main__`` is left out: importing it runs the command line.
MODULES = ["trisecant"] + [
    f"trisecant.{info.name}"
    for info in pkgutil.iter_modules(trisecant.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names what it lacks: {missing}"
