"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wittkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"unused imports: {sorted(imported - used)}"
