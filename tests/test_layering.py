"""The package layers: cli -> checkers -> families -> core, and pbij -> core.

The families are oracle bundles, and every verdict about them, the suites
and ``classify``, lives in ``checkers``; so no module of ``invsg.families``
imports ``checkers`` or ``cli``, at module level or inside a function.  The
families share nothing with the partial bijections of ``pbij``: the carrier
errors they raise live in ``core``.  And no module reads another's private
names: a helper that two modules use lives, public, in one of them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import invsg
import invsg.families

ABOVE_FAMILIES = {"checkers", "cli"}
FAMILY_MODULES = sorted(Path(invsg.families.__file__).parent.glob("*.py"))
ROOT = Path(invsg.__file__).parent
MODULES = sorted(ROOT.rglob("*.py"))


def _imported(tree) -> set:
    """Every dotted name part an import statement of the tree names."""
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        parts.update(part for name in names for part in name.split("."))
    return parts


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree, package: str) -> list:
    """``(line, name)`` for each private name of another invsg module that the
    tree imports, or reads as an attribute of an imported invsg module.
    ``package`` is the dotted package the tree's module sits in."""
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] == "invsg")
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1] + ([base] if base else []))
            if base.split(".")[0] != "invsg":
                continue
            for alias in node.names:
                if _is_module(f"{base}.{alias.name}"):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    reads.append((node.lineno, f"{base}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(reads)


def _is_module(dotted: str) -> bool:
    path = ROOT.parent.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _package(module: Path) -> str:
    """The dotted package a module file sits in; an ``__init__`` is its own."""
    return ".".join(module.relative_to(ROOT.parent).parts[:-1])


@pytest.mark.parametrize("module", FAMILY_MODULES, ids=lambda p: p.name)
def test_a_family_module_imports_no_upper_layer(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    assert not _imported(tree) & ABOVE_FAMILIES, module.name


@pytest.mark.parametrize("module", FAMILY_MODULES, ids=lambda p: p.name)
def test_a_family_module_does_not_import_pbij(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    assert "pbij" not in _imported(tree), module.name


@pytest.mark.parametrize("module", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_reads_a_private_name_of_another(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    assert _private_reads(tree, _package(module)) == [], module.name


def test_the_check_sees_a_lazy_import():
    tree = ast.parse("def f():\n    from .. import checkers\n")
    assert _imported(tree) & ABOVE_FAMILIES == {"checkers"}


def test_the_private_check_sees_imports_and_attributes_but_not_dunders():
    source = ("from .rotation import _rows, grid_rows\n"
              "from .. import checkers as c, core\n"
              "def f(S):\n"
              "    return c._rng(0), core.__name__, S._up, core.bits\n")
    tree = ast.parse(source)
    assert _private_reads(tree, "invsg.families") == [
        (1, "invsg.families.rotation._rows"), (4, "c._rng")]
