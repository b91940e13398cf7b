#!/usr/bin/env python3
"""Synthesize the formal group law of each built-in pencil, certify that
its coefficients clear every denominator, and print the low-degree terms.

    python scripts/group_law_tables.py --deg 8
"""

import argparse

from wittkit.families import FAMILY_IDS, builtin_family, am_logarithm, resolve_family_id
from wittkit.formal_groups import group_law_from_logarithm, integrality_report
from wittkit.polynomials import format_value

from _script import Parser, run_main


def run(args: argparse.Namespace) -> int:
    failures = 0
    for family_id in args.family or FAMILY_IDS:
        entry = builtin_family(family_id)
        # so --deg 0 reaches the group law's own check
        log = am_logarithm(entry.family, max(args.deg, 1))
        law = group_law_from_logarithm(log, args.deg)
        report = integrality_report(law)
        print(f"== {family_id} (total degree {args.deg}) ==")
        print(f"integral: {report.passed}")
        if not report.passed:
            failures += 1
            for i, j, value in report.failures:
                print(f"  denominator at t1^{i} t2^{j}: {format_value(value)}")
        for (i, j), c in law.as_integral().sorted_terms():
            if i + j <= 3:
                print(f"  [t1^{i} t2^{j}] {format_value(c)}")
    return 1 if failures else 0


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--deg", type=int, default=8)
    parser.add_argument("--family", action="append", type=resolve_family_id,
                        help="restrict to one family (repeatable)")
    return run(parser.parse_args())


if __name__ == "__main__":
    run_main(main)
