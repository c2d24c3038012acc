"""Export lists: every exported name exists and is listed once, so a
function deleted from a module cannot linger in an ``__all__``; every
package-level name is exported by its own module; every name the
README's Layout table gives for a module exists there; the README's
count of package-level names matches ``schedkf.__all__``; and the
README's list of accepted config keys is the one ``cli`` checks."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import schedkf
from schedkf import LinearSystem
from schedkf.cli import _KEYS

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


@pytest.mark.parametrize("name", [name for name in schedkf.__all__
                                  if name != "__version__"])
def test_package_names_are_module_exports(name):
    module = importlib.import_module(getattr(schedkf, name).__module__)
    assert name in getattr(module, "__all__", []), module.__name__


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def layout_rows():
    """(module, backticked identifiers) for each row of the README's
    Layout table."""
    section = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(schedkf\.\w+)` \|(.*)\|$", section, re.MULTILINE)
    assert rows, "no Layout table found"
    return [(module, re.findall(r"`(\w+)`", contents)) for module, contents in rows]


LAYOUT = layout_rows()


@pytest.mark.parametrize("module_name, names", LAYOUT,
                         ids=[module for module, _ in LAYOUT])
def test_readme_layout_names_resolve(module_name, names):
    module = importlib.import_module(module_name)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, missing


def test_readme_name_count_matches_exports():
    counts = re.findall(r"\((\d+) names, with\s+`__version__`\)", README)
    assert counts == [str(len(schedkf.__all__))]


def test_readme_config_keys_match_cli():
    paragraph = README.split("The accepted keys are", 1)[1].split("\n\n", 1)[0]
    system = {f.name for f in dataclasses.fields(LinearSystem)}
    accepted = system.union(*_KEYS.values())
    assert set(re.findall(r"`([^`]+)`", paragraph)) == accepted
