"""Self-test of the benchmark, on smoke runs of every workload.

    python3 perfbench/selftest.py

Checks that each smoke run, traced and untraced, exits 0 and ends with the
result object (exactly the keys correct, attempted, failed, metrics) with
no failed request; that every metric BENCHMARK.json names is printed with
its unit, in the result object and in the report above it; that every
per-layer metric is non-zero on at least one workload (so no probe is
silently unwired); and that the benchmark exits non-zero without a result
in a directory holding only BENCHMARK.json and perfbench/.  Prints one line
per check and exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def smoke(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    nonzero: set[str] = set()
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = smoke(workload, trace)
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit code 0 {proc.stderr[-500:]}")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: every request correct")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == wanted, f"{tag}: every {section} metric, with its unit, in the result")
            report = lines[:-1]
            check(all(any(line.split()[:1] == [name] and f" {unit} " in f"{line} " for line in report)
                      for name, unit in wanted.items()),
                  f"{tag}: every {section} metric, with its unit, in the report")
            if trace == 1:
                nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
    missing = sorted({m["name"] for m in spec["per_layer"]} - nonzero)
    check(not missing, f"every per-layer metric non-zero on some workload (zero everywhere: {missing})")

    bare = run.HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = smoke(workloads.WORKLOADS[0], 0, cwd=bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without wittkit sources: non-zero exit and no result")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
