#!/usr/bin/env python3
"""Sweep the elliptic pencil over all odd primes up to a bound, comparing the
Hasse-Witt verdict with point counts (one pass per prime counts every
fiber).

    python scripts/ordinary_sweep.py --pmax 31
"""

import argparse
import sys
import time

from wittkit.cli import budget_count
from wittkit.families import resolve_family_id
from wittkit.ordinarity import ELLIPTIC_FAMILIES, ordinarity_scan
from wittkit.serialize import tsv_dumps

from _script import Parser, run_main


def run(args: argparse.Namespace) -> int:
    started = time.monotonic()
    report = ordinarity_scan(args.family, args.pmax, with_oracle=True, budget=args.budget)
    blocks = [
        [[s.prime] * s.prime, range(s.prime), s.hasse_witt_values, s.verdicts,
         s.oracle_verdicts, s.agreements]
        for s in report.scans
    ]
    sys.stdout.write(tsv_dumps(["p", "lambda", "a_p", "verdict", "oracle", "agree"], blocks))
    disagreements = sum(s.agreements.count(False) for s in report.scans)
    elapsed = time.monotonic() - started
    loci = {s.prime: list(s.nonordinary) for s in report.scans}
    print(f"# non-ordinary loci: {loci}", file=sys.stderr)
    print(f"# disagreements: {disagreements}; elapsed {elapsed:.1f}s", file=sys.stderr)
    return 1 if disagreements else 0


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--family", type=resolve_family_id, choices=ELLIPTIC_FAMILIES,
                        default="hesse-cubic", help="an elliptic pencil (the oracle's scope)")
    parser.add_argument("--pmax", type=int, default=31)
    parser.add_argument("--budget", type=budget_count, default=None)
    return run(parser.parse_args())


if __name__ == "__main__":
    run_main(main)
