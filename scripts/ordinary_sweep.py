#!/usr/bin/env python3
"""Sweep the elliptic pencil over all odd primes up to a bound, comparing the
Hasse-Witt verdict with brute-force point counts (one enumeration of the
projective plane per prime counts every fiber).

    python scripts/ordinary_sweep.py --pmax 31
"""

import argparse
import sys
import time
from dataclasses import dataclass

from wittkit.ordinarity import ordinarity_scan


@dataclass
class SweepConfig:
    family: str = "hesse-cubic"
    pmax: int = 31
    budget: int | None = None


def run(config: SweepConfig) -> int:
    started = time.monotonic()
    report = ordinarity_scan(config.family, config.pmax, with_oracle=True,
                             budget=config.budget)
    print("p\tlambda\ta_p\tverdict\toracle\tagree")
    disagreements = 0
    for scan in report.scans:
        for row in scan.rows:
            agree = "" if row.agree is None else str(row.agree).lower()
            print(f"{row.prime}\t{row.parameter}\t{row.hasse_witt_value}"
                  f"\t{row.verdict}\t{row.oracle_verdict}\t{agree}")
            if row.agree is False:
                disagreements += 1
    elapsed = time.monotonic() - started
    loci = {s.prime: list(s.nonordinary) for s in report.scans}
    print(f"# non-ordinary loci: {loci}", file=sys.stderr)
    print(f"# disagreements: {disagreements}; elapsed {elapsed:.1f}s", file=sys.stderr)
    return 1 if disagreements else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="hesse-cubic")
    parser.add_argument("--pmax", type=int, default=31)
    parser.add_argument("--budget", type=int, default=None)
    args = parser.parse_args()
    return run(SweepConfig(args.family, args.pmax, args.budget))


if __name__ == "__main__":
    sys.exit(main())
