"""Export lists: every exported name exists and is listed once, so a
function deleted from a module cannot linger in an ``__all__``."""

import importlib
import pkgutil

import pytest

import schedkf

MODULES = [schedkf] + [
    importlib.import_module(f"schedkf.{info.name}")
    for info in pkgutil.iter_modules(schedkf.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve_once(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), sorted(
        name for name in set(names) if names.count(name) > 1)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, missing

