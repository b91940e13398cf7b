"""Every name a module of the package, or a script, imports is used in that file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "wittkit").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS, ids=[p.stem for p in MODULES] + [f"scripts/{p.stem}" for p in SCRIPTS]
)
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
