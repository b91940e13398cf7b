"""The benchmark's correctness gate holds on every smoke-size request, and on
the full-size requests of the log-extraction, group-law and certify-mix
workloads: exit 0, the frozen stdout digest, and the cross-check, which reads
library names of its own (``WittVector.to_series``, ``closed_form_logarithm``,
...).  The gate turns only a few exception types into a failed request, so a
name it reads that is gone would make ``perfbench/run.py`` crash, not fail."""

import importlib.util
import json
from pathlib import Path

import pytest

from wittkit import cli

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    # checks.py imports wittkit and the stdlib, workloads.py the stdlib: loading runs no benchmark
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, workloads = _load("checks"), _load("workloads")
FROZEN = json.loads((ROOT / "perfbench" / "digests.json").read_text())


def _assert_pass_is_gated(capsys, workload, seed, smoke):
    gate = checks.Gate(FROZEN[workload + (":smoke" if smoke else "")][str(seed)])
    for i, argv in enumerate(workloads.requests(workload, seed, smoke=smoke)):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert gate.failure(i, argv, code, out) is None, argv[:3]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_smoke_requests_pass_the_benchmark_gate(capsys, workload, seed):
    _assert_pass_is_gated(capsys, workload, seed, smoke=True)


#: Full-size passes of the workloads whose bytes the extraction, the printers and the Witt ghost map set:
#: every frozen log-extraction seed (three requests each), two group-law seeds (thirteen requests each)
#: and five certify-mix seeds, whose witt requests cover every op and length the benchmark sends over Z[x].
FULL_SIZE = ([("log-extraction", seed) for seed in range(20)] + [("group-law", seed) for seed in range(2)]
             + [("certify-mix", seed) for seed in range(5)])


@pytest.mark.parametrize("workload, seed", FULL_SIZE, ids=[f"{w}-{s}" for w, s in FULL_SIZE])
def test_full_size_requests_pass_the_benchmark_gate(capsys, workload, seed):
    _assert_pass_is_gated(capsys, workload, seed, smoke=False)
