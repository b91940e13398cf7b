"""Every name a module of the package, or a script, imports is used in that
file; every function the package exports is named outside ``__init__.py``;
the README's library sketch runs; starting the CLI loads no module that no
request needs; the records keep their fields; the value classes take only
what their values cannot say; no module but ``families``
names a pencil; the check modules do not import ``formal_groups``; and no
module but ``series`` names the two-variable series."""

import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wittkit
from wittkit.cli import ResultDoc
from wittkit.families import CompleteIntersectionFamily, FamilyCatalogEntry
from wittkit.formal_groups import FormalGroupLaw, Logarithm
from wittkit.ordinarity import FiberClassification, OrdinarityReport, PrimeScan
from wittkit.picard_fuchs import SolutionCheck

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


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


@pytest.mark.parametrize(
    "path", [p for p in MODULES + [INIT] if p.stem != "families"], ids=lambda p: p.stem
)
def test_no_pencil_is_named_outside_the_catalog(path):
    """Every pencil's data lives in its ``families`` catalog entry: no other
    module names one in a string (docstrings may, as prose or examples)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = set(map(id, _docstrings(tree)))
    named = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs
        and re.search("hesse|quartic|quintic", node.value, re.I)
    ]
    assert not named, f"pencils named outside the catalog: {named}"


@pytest.mark.parametrize("module", ["ordinarity", "picard_fuchs"])
def test_the_checks_do_not_import_formal_groups(module):
    """The coefficient checks read a rule m -> a_m, so they need no
    ``Logarithm``: neither check module imports ``formal_groups``."""
    tree = ast.parse((INIT.parent / f"{module}.py").read_text(encoding="utf-8"))
    imported = {
        name.rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
    }
    assert "formal_groups" not in imported


@pytest.mark.parametrize("path", [p for p in MODULES + [INIT] if p.stem != "series"], ids=lambda p: p.stem)
def test_only_series_names_the_two_variable_series(path):
    """A group law is its terms: ``MultiTruncatedSeries`` and ``substitute_univariate``
    are the tests' two-variable reference, and no module but ``series`` names them."""
    named = re.findall(r"\b(?:MultiTruncatedSeries|substitute_univariate)\b", path.read_text(encoding="utf-8"))
    assert not named, f"{path.name} names {sorted(set(named))}"


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


def _fresh_python(*args, cwd=ROOT):
    """stdout of a new interpreter run with ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_start_up_loads_no_unneeded_module():
    """Every request pays for what importing the CLI and building its parser
    load; ``dataclasses`` (with ``inspect``) and ``hashlib`` serve none."""
    loaded = _fresh_python("-c", (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wittkit.cli\n"
        "wittkit.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect', 'hashlib'} & (set(sys.modules) - before)))\n"
    ))
    assert loaded == "[]\n"


def test_manifest_hash_in_a_fresh_process(tmp_path):
    _fresh_python(
        "-m", "wittkit.cli", "am-log", "--family", "hesse-cubic", "--mmax", "4",
        "--out", "result.json", "--manifest", "manifest.json", cwd=tmp_path,
    )
    body = (tmp_path / "result.json").read_text(encoding="utf-8")
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["content_hash"] == "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()


#: Each record's fields, in order, and its defaults.
RECORDS = {
    ResultDoc: (("tsv_header", "tsv_blocks", "payload"), {}),
    FiberClassification: (
        ("prime", "parameter", "verdict", "point_count", "trace"), {"point_count": None, "trace": None}
    ),
    PrimeScan: (
        ("prime", "nonordinary", "hasse_witt_values", "verdicts", "oracle_verdicts", "agreements", "agree"),
        {},
    ),
    OrdinarityReport: (("family", "prime_bound", "with_oracle", "scans"), {}),
    SolutionCheck: (("passed", "checked_through", "first_failure", "residual"), {}),
    FamilyCatalogEntry: (
        ("identifier", "family", "closed_forms", "closed_form_mod", "picard_fuchs", "period", "singular_rules"),
        {"singular_rules": ()},
    ),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_keep_their_fields(record):
    assert (record._fields, record._field_defaults) == RECORDS[record]


#: Each value class's constructor parameters.  A family's dimension and
#: degrees are read from its polynomials, and a law keeps no logarithm.
CONSTRUCTORS = {
    Logarithm: ("coeffs",),
    CompleteIntersectionFamily: ("name", "polynomials"),
    FormalGroupLaw: ("degree", "terms"),
}


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
def test_value_classes_take_only_their_values(cls):
    assert tuple(inspect.signature(cls).parameters) == CONSTRUCTORS[cls]
