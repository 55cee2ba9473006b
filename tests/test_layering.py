"""The package layers: cli -> checkers -> families -> core/pbij.

The families are oracle bundles, and every verdict about them, the suites
and ``classify``, lives in ``checkers``; so no module of ``invsg.families``
imports ``checkers`` or ``cli``, at module level or inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import invsg.families

ABOVE_FAMILIES = {"checkers", "cli"}
FAMILY_MODULES = sorted(Path(invsg.families.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("module", FAMILY_MODULES, ids=lambda p: p.name)
def test_a_family_module_imports_no_upper_layer(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    assert not _imported(tree) & ABOVE_FAMILIES, module.name


def test_the_check_sees_a_lazy_import():
    tree = ast.parse("def f():\n    from .. import checkers\n")
    assert _imported(tree) & ABOVE_FAMILIES == {"checkers"}
