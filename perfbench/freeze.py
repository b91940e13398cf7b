"""Regenerate digests.json, the frozen reference outputs of the shipped seeds.

    python3 perfbench/freeze.py

For every workload and every seed in SHIPPED_SEEDS (full size and smoke
size) it runs each distinct request once through ``wittkit.cli.main`` and
records the first 16 hex digits of the sha256 of its stdout, in request
order.  Every request must exit 0 and pass its cross-check, or nothing is
written.  Run it only to extend the shipped seeds, at a commit whose outputs
are the reference: a benchmark run fails any request whose stdout differs.
"""

from __future__ import annotations

import json
import sys

import run

SHIPPED_SEEDS = range(20)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import checks
    import workloads
    from wittkit import cli

    frozen: dict[str, dict[str, list[str]]] = {}
    seen: dict[tuple, str] = {}
    for workload in workloads.WORKLOADS:
        for smoke in (False, True):
            key = f"{workload}:smoke" if smoke else workload
            for seed in SHIPPED_SEEDS:
                digests = []
                for argv in workloads.requests(workload, seed, smoke):
                    if tuple(argv) not in seen:
                        code, out = run.send(cli.main, argv)
                        reason = f"exit code {code}" if code != 0 else checks.cross_check(argv, out)
                        if reason is not None:
                            print(f"freeze: {key} seed {seed}: {argv[:3]}: {reason}", file=sys.stderr)
                            return 1
                        seen[tuple(argv)] = checks.digest(out)
                    digests.append(seen[tuple(argv)])
                frozen.setdefault(key, {})[str(seed)] = digests
            print(f"froze {key}: {len(SHIPPED_SEEDS)} seeds", flush=True)
    run.DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
