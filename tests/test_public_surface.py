"""The package's public surface: what the demos and the acceptance tests import, and one list of public names.

The scripts are parsed, not run, so a name they import that the package no
longer provides fails here, whatever the script would compute first.
"""
import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import fiberphase

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("demos/0*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _package_imports(script):
    """(module, name) for every name ``script`` imports from ``fiberphase`` or one of its submodules."""
    imports = []
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"), str(script))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "fiberphase":
            imports += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "fiberphase"]
    return imports


def test_every_script_is_found():
    assert len(SCRIPTS) >= 6  # the five demos and the acceptance tests
    assert all(script.is_file() for script in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda script: script.name)
def test_every_imported_name_resolves_in_its_module(script):
    imports = _package_imports(script)
    assert imports, f"{script.name} imports nothing from fiberphase"
    for module, name in imports:
        loaded = importlib.import_module(module)
        assert name is None or name == "*" or hasattr(loaded, name), f"{script.name}: {module}.{name}"


def test_package_names_are_the_union_of_the_modules_lists():
    public = {name for name in dir(fiberphase)
              if not name.startswith("_") and not isinstance(getattr(fiberphase, name), types.ModuleType)}
    modules = [importlib.import_module(f"fiberphase.{info.name}")
               for info in pkgutil.iter_modules(fiberphase.__path__) if not info.name.startswith("_")]
    listed = [name for module in modules for name in getattr(module, "__all__", ())]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert public == set(listed)
