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


def names(path: Path):
    """Every name the module's source uses, binds or imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_model_names_point_mass():
    # a point mass is the one-atom DiscreteAtoms: only model.py (which defines
    # it) and __init__.py (which exports it) may tell the two apart
    naming = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name not in ("model.py", "__init__.py") and "PointMass" in names(path)
    ]
    assert naming == []


def test_weak_form_lives_in_pde():
    # the weak-form path, its analytic time rule and its builder are pde.py's:
    # pde.py imports nothing from measures, and neither measures.py nor
    # experiments.py names the path type or the time rule
    imported = []
    for node in ast.walk(ast.parse((PACKAGE_DIR / "pde.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [getattr(node, "module", None), *(alias.name for alias in node.names)]
    assert [m for m in imported if m and m.split(".")[-1] == "measures"] == []
    for module in ("measures.py", "experiments.py"):
        weak_form = {"WeakFormPath", "_analytic_time_rule"}
        named = {n for n in names(PACKAGE_DIR / module) if n in weak_form or n.startswith("TIME_NODES_")}
        assert named == set(), module



@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # flake8's F401 for the package: each name an import binds is read in the
    # module, or the import carries `# noqa: F401` on one of its lines
    source = (PACKAGE_DIR / f"{name}.py").read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        if not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]
    assert unused == []
