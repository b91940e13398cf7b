"""Every name a module of the package, or a script, imports is used in that
file; every function the package exports is named outside ``__init__.py``;
and the README's library sketch runs."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import wittkit

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "wittkit" / "__init__.py"
MODULES = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)
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


def _named(path):
    """The names a file uses as a bare name or imports (attributes do not count)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_every_exported_function_is_named_elsewhere():
    """A function ``wittkit`` exports is named by another module of the
    package, by a script or by the acceptance suite, so the public surface
    holds no alias or test-only helper.  Classes are exempt: the functions
    reached return or raise them."""
    exported = {
        alias.name
        for node in ast.walk(ast.parse(INIT.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    functions = {name for name in exported if inspect.isfunction(getattr(wittkit, name))}
    named = set().union(*map(_named, MODULES + SCRIPTS + [ROOT / "tests" / "test_acceptance.py"]))
    unnamed = sorted(functions - named)
    assert not unnamed, f"exported but named nowhere else: {unnamed}"


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"^## Library sketch\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert sketch, "README.md has no python block under '## Library sketch'"
    exec(compile(sketch[1], "README.md", "exec"), {})
