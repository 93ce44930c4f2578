"""Every module of the package and of the test suite reads each name
that it imports at the top level.  ``kostka/__init__.py`` is exempt: its
imports are the package's exports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPORTS = ROOT / "src" / "kostka" / "__init__.py"
MODULES = sorted(
    path
    for path in (*(ROOT / "src" / "kostka").glob("*.py"), *(ROOT / "tests").glob("*.py"))
    if path != EXPORTS
)


def unread_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no
    expression of the module reads, in import order."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += (alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES]
)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_guard_sees_an_unread_import():
    source = "import os\nimport numpy as np\nfrom typing import Any, Sequence\nnp.zeros(Any)\n"
    assert unread_imports(source) == ["os", "Sequence"]
