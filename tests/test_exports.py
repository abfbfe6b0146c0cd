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


# The package's public surface, pinned: a change that adds or drops a public
# name changes this list in the same commit.
PUBLIC = [
    "__version__",
    "RingMismatchError",
    "ThetaPoly",
    "AmbientClass",
    "UpstreamClass",
    "todd_from_chern",
    "pushforward_to_picard",
    "riemann_roch_pushforward",
    "line_bundle_character",
    "poincare_first_chern",
    "poincare_character",
    "bundle_characters",
    "METHODS",
    "chern_coefficients",
    "determinant_formula",
    "porteous_class",
    "binomial",
    "verify_binomial_identities",
    "degree_pairing",
    "secant3_degree",
    "class_degree",
    "berzolari",
]


def test_public_surface_is_pinned():
    assert trisecant.__all__ == PUBLIC
