"""Tests for the package's exported names."""

import types

import bellforge


def test_exports_resolve_once_each():
    names = bellforge.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bellforge, name), name


def test_every_public_binding_is_exported():
    # Catches a name dropped from one of `__init__`'s two lists (the
    # imports and `__all__`) but not the other.
    bound = {name for name, value in vars(bellforge).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert bound == set(bellforge.__all__) - {"__version__"}
