#!/usr/bin/env python3
"""Congruence battery for the quintic pencil: the differential operator
applied to logarithm coefficients vanishes mod k, the fundamental period is
annihilated exactly, and coefficient values at prime powers satisfy the
Frobenius congruence.

    python scripts/quintic_congruences.py --kmax 50 --order 200
"""

import argparse

from wittkit.families import builtin_family
from wittkit.ordinarity import frobenius_power_congruence
from wittkit.picard_fuchs import pf_congruence_check, series_solution_check

from _script import Parser, run_main


#: Primes at which a_(p^2) = a_p * a_p^p mod p is checked.
PRIMES = (3, 5, 7)


def run(args: argparse.Namespace) -> int:
    quintic = builtin_family("quintic-cy3")
    operator = quintic.picard_fuchs
    failures = 0

    results = pf_congruence_check(operator, quintic.closed_forms(args.kmax), args.kmax)
    bad = [r for r in results if not r.passed]
    print(f"L a_k = 0 mod k for k <= {args.kmax}: "
          f"{'PASS' if not bad else 'FAIL at ' + str([r.k for r in bad])}")
    failures += len(bad)

    period = quintic.period(args.order + 5)
    solution = series_solution_check(operator, period, args.order)
    print(f"L f = 0 through x^{args.order}: "
          f"{'PASS' if solution.passed else f'FAIL at order {solution.first_failure}'}")
    failures += 0 if solution.passed else 1

    rule = quintic.closed_form_mod
    for p in PRIMES:
        check = frobenius_power_congruence(lambda m: rule(m, p, 1), p, 2)
        print(f"a_(p^2) = a_p * a_p^p mod p at p={p}: "
              f"{'PASS' if check.passed else 'FAIL: ' + str(check.residual)}")
        failures += 0 if check.passed else 1

    return 1 if failures else 0


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=50)
    parser.add_argument("--order", type=int, default=200)
    return run(parser.parse_args())


if __name__ == "__main__":
    run_main(main)
