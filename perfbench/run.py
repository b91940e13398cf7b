"""wittkit's benchmark: one closed-loop client sending CLI requests in-process.

    python3 perfbench/run.py --workload group-law --seed 1 --seconds 20 --trace 0

Run from anywhere inside a wittkit checkout; the library is imported from
its ``src/``.  One client calls ``wittkit.cli.main(argv)`` and sends each
request only after the previous one returned; nothing runs in parallel and
``WITTKIT_THREADS`` is left as the environment has it.  A run makes
round(--seconds / nominal pass seconds) passes (at least one) over the
workload's fixed request list, checks every output outside the timed region
(see checks.py), prints a human-readable report and, as its last line, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (median over passes, per pass), plus the traced/untraced time ratio;
the spans are written to ``perfbench/out/``.  ``--smoke`` runs one pass of
the workload at minimal size.  The exit code is 0 only when every request
passed every check.

Times are speed-normalized CPU seconds, see ``Speed``.  The report also
prints the raw CPU and wall-clock figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: What every CLI invocation pays before its first request: a fresh
#: interpreter imports the CLI (which builds the family catalog) and builds
#: the argument parser.  The child prints that CPU time, from process start,
#: and then a reference sample taken in the same process (see Speed).  It is
#: run SETUP_RUNS times after one untimed warm-up.
SETUP_CODE = """\
import sys, time
sys.path[:0] = ["src", "perfbench"]
import wittkit.cli
wittkit.cli.build_parser()
setup = time.process_time()
import run
speed = run.Speed()
speed.sample()
print(setup, speed.samples[0])
"""
SETUP_RUNS = 7

#: A latency percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def reference_work() -> int:
    """Fixed interpreter-bound work shaped like wittkit's kernel: one sparse
    product of tuple-keyed dicts with int and Fraction coefficients."""
    a = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(20) for j in range(20 - i)}
    b = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12 - i)}
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return len(out)


class Speed:
    """Scales CPU seconds to the speed at which reference_work() takes
    REFERENCE_SECONDS.

    Shared virtual machines share their cores: for the same request the
    CPU clock reads up to 1.8x more in a slow minute than in a fast one, and
    the wall clock adds time the vCPU was taken away.  No change to wittkit
    causes or cures that, but it moves every raw timing together with the
    time of a fixed reference computation.  So the benchmark samples the
    reference (median of three runs) at most REFERENCE_INTERVAL CPU seconds
    apart and divides each timing by the mean of the two samples around it.
    """

    REFERENCE_SECONDS = 0.1
    REFERENCE_INTERVAL = 3.0

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        runs = []
        for _ in range(3):
            start = time.process_time()
            reference_work()
            runs.append(time.process_time() - start)
        self.samples.append(statistics.median(runs))

    def scale(self, seconds: float, k: int) -> float:
        """``seconds`` spent between reference samples k and k + 1, scaled."""
        return seconds * 2 * self.REFERENCE_SECONDS / (self.samples[k] + self.samples[k + 1])


def send(main, argv: list[str]):
    """One request through ``wittkit.cli.main``: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:  # an escaped exception is a failed request
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def tail(passes: list[list[float]]) -> tuple[float, str]:
    """The highest nearest-rank percentile of all request times with at
    least TAIL_BEYOND samples beyond it, and its label.  When that
    percentile would fall below the median (fewer than 2 * TAIL_BEYOND
    samples), the median over passes of the slowest request instead: a
    maximum over so few samples mostly measures the machine's noise."""
    ordered = sorted(t for one in passes for t in one)
    n = len(ordered)
    q = 100 * (n - TAIL_BEYOND) // n
    if q < 50:
        slowest = max(statistics.median(slot) for slot in zip(*passes))
        return slowest, f"slowest request, median of {len(passes)} passes"
    return ordered[math.ceil(q * n / 100) - 1], f"p{q} of {n} requests"


def measure_setup() -> tuple[list[float], list[float]]:
    """(scaled, raw) CPU seconds of each fresh set-up interpreter."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True, capture_output=True, text=True
        )
        setup, reference = map(float, proc.stdout.split())
        raw.append(setup)
        scaled.append(setup * Speed.REFERENCE_SECONDS / reference)
    return scaled[1:], raw[1:]


def metadata() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                rev = loose.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else ():
                    if line.endswith(" " + name):
                        rev = line.split()[0]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "src_lines": src_lines,
    }


class Run:
    """Passes over one request list, with their timings and check results."""

    def __init__(self, main, reqs, gate, speed: Speed):
        self.main, self.reqs, self.gate, self.speed = main, reqs, gate, speed
        self.latencies: list[list[float]] = []  # scaled seconds, per untraced pass
        self.raw_cpu: list[float] = []
        self.raw_wall: list[float] = []
        self.traced: list[float] = []  # scaled seconds per traced pass
        self.attempted = 0
        self.failures: list[str] = []

    def pass_seconds(self) -> float:
        """Time to finish the request list: the sum over its requests of
        each one's median over the untraced passes."""
        return sum(statistics.median(slot) for slot in zip(*self.latencies))

    def one_pass(self, main=None) -> float:
        """Send every request once; return the pass's scaled/raw time ratio."""
        results, cpu, wall, marks = [], [], [], []
        since = Speed.REFERENCE_INTERVAL
        for argv in self.reqs:
            if since >= Speed.REFERENCE_INTERVAL:
                self.speed.sample()
                since = 0.0
            marks.append(len(self.speed.samples) - 1)
            w0, c0 = time.perf_counter(), time.process_time()
            results.append(send(main or self.main, argv))
            cpu.append(time.process_time() - c0)
            wall.append(time.perf_counter() - w0)
            since += cpu[-1]
        self.speed.sample()
        scaled = [self.speed.scale(dt, k) for dt, k in zip(cpu, marks)]
        if main is None:
            self.latencies.append(scaled)
            self.raw_cpu.append(sum(cpu))
            self.raw_wall.append(sum(wall))
        else:
            self.traced.append(sum(scaled))
        # everything below is outside the timed region
        for i, (argv, (code, out)) in enumerate(zip(self.reqs, results)):
            reason = self.gate.failure(i, argv, code, out)
            if reason is not None:
                self.failures.append(f"request {i} ({' '.join(argv[:3])}): {reason}")
        self.attempted += len(results)
        return sum(scaled) / sum(cpu) if sum(cpu) else 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at minimal size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wittkit" / "cli.py").is_file():
        print(f"perfbench: no wittkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracing
    import workloads
    from wittkit import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    meta = metadata()
    speed = Speed()
    setup, setup_raw = measure_setup() if args.trace == 0 else ([], [])

    reqs = workloads.requests(args.workload, args.seed, args.smoke)
    key = f"{args.workload}:smoke" if args.smoke else args.workload
    frozen = json.loads(DIGESTS.read_text()).get(key, {}).get(str(args.seed))
    run = Run(cli.main, reqs, checks.Gate(frozen), speed)

    # warm-up, untimed and unchecked: the same shapes at minimal size
    for argv in workloads.requests(args.workload, args.seed, smoke=True):
        send(cli.main, argv)

    nominal = workloads.NOMINAL_PASS_SECONDS[args.workload]
    passes = 1 if args.smoke else max(1, round(args.seconds / nominal))
    tracer = tracing.Tracer()
    layer_passes = []
    for i in range(max(passes, 2) if args.trace else passes):
        if args.trace and i % 2 == 1:
            tracer.reset()
            with tracer.installed():
                factor = run.one_pass(tracer.request_wrapper(cli.main))
            layer_passes.append(tracer.pass_metrics(factor))
        else:
            run.one_pass()

    failed = len(run.failures)
    for reason in run.failures[:20]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)

    latencies = [t for one in run.latencies for t in one]
    tail_value, tail_note = tail(run.latencies)
    print(f"workload {args.workload}  seed {args.seed}  smoke {args.smoke}  trace {args.trace}")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"passes {len(run.latencies)} untraced + {len(run.traced)} traced, {len(reqs)} requests each")
    median = statistics.median
    report = {
        "pass_s": (run.pass_seconds(), "s", f"per-request medians of {len(run.latencies)} passes"),
        "request_p50_s": (median(latencies), "s", f"{len(latencies)} requests"),
        "request_tail_s": (tail_value, "s", tail_note),
        "raw_cpu_s": (median(run.raw_cpu), "s", "pass, CPU clock, unscaled"),
        "raw_wall_s": (median(run.raw_wall), "s", "pass, wall clock, unscaled"),
        "reference_s": (median(speed.samples), "s", f"median of {len(speed.samples)} samples"),
        "failed_ratio": (failed / run.attempted, "ratio", f"{failed}/{run.attempted} requests"),
    }
    if args.trace == 0:
        report["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", "this process"
        )
        report["setup_s"] = (median(setup), "s", f"median of {len(setup)} interpreters")
        report["raw_setup_s"] = (median(setup_raw), "s", "CPU clock, unscaled")
    else:
        for name in layer_passes[0]:
            unit = "s" if name.endswith("_s") else tracing.COUNT_UNITS.get(name, "count")
            value = median(p[name] for p in layer_passes)
            report[name] = (value, unit, f"per pass, median of {len(layer_passes)}")
        ratio = median(run.traced) / median(sum(one) for one in run.latencies)
        report["trace.overhead_ratio"] = (ratio, "ratio", "traced / untraced pass_s")
        write_spans(tracer, args, meta, reqs)
    for name, (value, unit, note) in report.items():
        print(f"  {name:32s} {value:>14.6g} {unit:6s} {note}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": report[m["name"]][0], "unit": report[m["name"]][1]}
            for m in section
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_spans(tracer, args, meta, reqs) -> None:
    """All spans of the run as JSON lines, after a header line."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = out_dir / f"trace-{args.workload}-seed{args.seed}{suffix}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, "requests": [" ".join(r[:6]) for r in reqs]}) + "\n")
        for request, span, parent, name, start, end in tracer.spans:
            fh.write(
                json.dumps(
                    {"request": request, "span": span, "parent": parent, "name": name,
                     "start": start, "end": end}
                )
                + "\n"
            )


if __name__ == "__main__":
    sys.exit(main())
