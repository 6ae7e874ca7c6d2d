"""Export consistency: stale names left behind by a deletion fail here."""

import ast
import importlib
from pathlib import Path

import pytest

import vsmhl

PACKAGE_DIR = Path(vsmhl.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def exported(module) -> list[str]:
    """The module's __all__, or its public names when it has none (as `import *` reads it)."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name in vars(module) if not name.startswith("_")]


def package_imports() -> list[tuple[str, str]]:
    """(module, name) for every relative `from .module import name` in __init__.py."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"vsmhl.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    imports = package_imports()
    assert imports  # the parse found the import blocks
    stale = [
        (mod, name)
        for mod, name in imports
        if name not in exported(importlib.import_module(f"vsmhl.{mod}"))
    ]
    assert stale == []


def test_only_model_names_point_mass():
    # a point mass is the one-atom DiscreteAtoms: only model.py (which defines
    # it) and __init__.py (which exports it) may tell the two apart
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    naming = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name not in ("model.py", "__init__.py") and "PointMass" in names(ast.parse(path.read_text()))
    ]
    assert naming == []
