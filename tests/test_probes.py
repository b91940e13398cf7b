"""Every probe target of the benchmark's tracer names a function or method
that exists in wittkit: a renamed one would make ``perfbench/run.py`` crash
when it installs its wrappers.  Under the installed wrappers every
subcommand still runs and its output bytes are counted, and every wrapper
is undone afterwards."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from wittkit import cli

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


#: One small request per subcommand; each runs in both formats.
TRACED_REQUESTS = [
    ["witt", "--op", "mul", "--u", '{"coords":[2,-1,3]}', "--v", '{"coords":[1,1,1]}'],
    ["am-log", "--family", "hesse-cubic", "--mmax", "6"],
    ["fgl", "--family", "hesse-cubic", "--deg", "4"],
    ["scan-ordinary", "--family", "hesse-cubic", "--pmax", "7", "--oracle"],
    ["pf-check", "--family", "quintic-cy3", "--kmax", "8"],
    ["congruence", "--family", "quintic-cy3", "--p", "3", "--nu", "2"],
]


def _bindings():
    """Every attribute of every wittkit module, and every probed method
    under its class, as (owner, name) -> the object bound there."""
    owners = [m for n, m in sys.modules.items() if n == "wittkit" or n.startswith("wittkit.")]
    for module, target in PROBES:
        cls, _, _ = target.rpartition(".")
        if cls:
            owners.append(getattr(importlib.import_module(f"wittkit.{module}"), cls))
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_traced_requests_run_and_restore_every_probe(capsys):
    """Under the benchmark's wrappers every request exits 0 and every byte
    written is counted; all wrappers are undone on exit."""
    before = _bindings()
    tracer = _tracing().Tracer()
    written = 0
    with tracer.installed():
        assert cli.ResultDoc.emit is not before[id(cli.ResultDoc), "emit"]
        for request in TRACED_REQUESTS:
            for fmt in ("json", "tsv"):
                assert cli.main([*request, "--format", fmt]) == 0, request
                written += len(capsys.readouterr().out.encode("utf-8"))
    assert written and tracer.counts["cli.output_bytes"] == written
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
