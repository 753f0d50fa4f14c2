"""The package exports only what the program itself uses.

A name listed in a module's ``__all__`` needs a reference other than its own
definition somewhere in ``src/matchpow`` (the re-exports of ``__init__.py``
do not count) or in the benchmark under ``perfbench/``.  Tests alone keep no
name alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matchpow"

# ROADMAP item 3 (certificate replay in polynomial time) will call it.
NOT_YET_CALLED = {"maximum_matchings"}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _referenced(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_exported_name_has_a_caller_outside_the_tests():
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            used |= _referenced(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _referenced(ast.parse(path.read_text()))
    unused = [
        f"{path.stem}.{name}"
        for path, tree in modules.items()
        for name in _exported(tree)
        if name not in used and name not in NOT_YET_CALLED
    ]
    assert unused == []
