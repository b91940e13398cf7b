"""Every probe target of the benchmark's tracer names a function or method
that exists in wittkit: a renamed one would make ``perfbench/run.py`` crash
when it installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    # perfbench/tracing.py imports only the stdlib, so loading it runs no benchmark code
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROBES = [(module, target) for module, target, *_ in _tracing().PROBES]


@pytest.mark.parametrize("module, target", PROBES, ids=[f"{m}.{t}" for m, t in PROBES])
def test_probe_target_exists(module, target):
    # resolved as the tracer resolves it: a Class.method through the class's own vars
    home = importlib.import_module(f"wittkit.{module}")
    *owner, name = target.split(".")
    for cls in owner:
        home = getattr(home, cls)
    assert name in vars(home), f"wittkit.{module} has no {target}"
