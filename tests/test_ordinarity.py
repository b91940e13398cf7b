import random
from fractions import Fraction
from itertools import product
from math import isqrt, prod

import pytest

from wittkit import families, ordinarity
from wittkit.families import PRIMALITY_BOUND, builtin_family
from wittkit.formal_groups import multiplicative_logarithm
from wittkit.ordinarity import (
    ELLIPTIC_FAMILIES,
    BudgetExceededError,
    OracleUnavailableError,
    classify_elliptic_fiber,
    declared_singular,
    fiber_point_counts,
    frobenius_power_congruence,
    hasse_witt_poly,
    hasse_witt_value,
    is_prime,
    ordinarity_scan,
    point_count_projective,
    projective_point_total,
)
from wittkit.families import closed_form_logarithm
from wittkit.polynomials import NonIntegralError, SparsePolynomial, as_integral

from conftest import coefficient_of

X = SparsePolynomial.variable("x")


# -- Hasse-Witt polynomials ---------------------------------------------------


def test_hasse_witt_examples():
    assert hasse_witt_poly("hesse-cubic", 5) == 1 + 4 * X**3
    assert hasse_witt_poly("hesse-cubic", 3) == 1
    assert hasse_witt_poly("quintic-cy3", 5) == 1


def test_p_two_and_composites_rejected():
    with pytest.raises(ValueError):
        hasse_witt_poly("hesse-cubic", 2)
    with pytest.raises(ValueError):
        hasse_witt_poly("hesse-cubic", 9)
    with pytest.raises(ValueError):
        hasse_witt_poly("hesse-cubic", 15)


def test_constant_term_one_mod_every_prime():
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        for p in (3, 5, 7, 11, 13):
            assert hasse_witt_value(family, 0, p) == 1
        # every value against exact evaluation, and the scan's values and
        # locus against the values
        for p in filter(is_prime, range(3, 62)):
            poly = hasse_witt_poly(family, p)
            expected = [as_integral(poly.evaluate({"x": lam})) % p for lam in range(p)]
            assert [hasse_witt_value(family, lam, p) for lam in range(p)] == expected
            scan = ordinarity_scan(family, p).scans[-1]
            assert scan.prime == p
            assert scan.hasse_witt_values == expected
            assert scan.nonordinary == tuple(
                lam for lam in range(p)
                if hasse_witt_value(family, lam, p) == 0 and not declared_singular(family, lam, p)
            )


# -- singular locus and loci ---------------------------------------------------


def test_declared_singular_hesse():
    assert declared_singular("hesse-cubic", 0, 5)
    assert declared_singular("hesse-cubic", 2, 5)  # 27*8 = 216 = 1 mod 5
    assert not declared_singular("hesse-cubic", 1, 5)
    assert not declared_singular("hesse-cubic", 1, 3)


def test_declared_singular_follows_the_rules():
    """One flag pass per prime gives lam = 0 or c * lam^e = 1 mod p for some
    catalog rule (c, e), on every pencil and every lam."""
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        rules = builtin_family(family).singular_rules
        for p in (3, 5, 7, 11, 13, 61):
            for lam in range(-p, 2 * p):
                literal = lam % p == 0 or any(c * lam**e % p == 1 for c, e in rules)
                assert declared_singular(family, lam, p) == literal


@pytest.mark.parametrize("p, message", [
    (0, "0 is not prime"),
    (1, "1 is not prime"),
    (2, "p = 2 is excluded"),
    (9, "9 is not prime"),
    (15, "15 is not prime"),
])
def test_declared_singular_needs_an_odd_prime(p, message):
    with pytest.raises(ValueError, match=message):
        declared_singular("hesse-cubic", 1, p)


def test_nonordinary_locus_examples():
    at_3, at_5 = ordinarity_scan("hesse-cubic", 5).scans
    assert (at_3.prime, at_3.nonordinary) == (3, ())
    assert (at_5.prime, at_5.nonordinary) == (5, (1,))


def test_nonordinary_locus_p7_matches_oracle():
    scan = ordinarity_scan("hesse-cubic", 7).scans[-1]
    assert scan.prime == 7
    locus = set(scan.nonordinary)
    by_count = set()
    for lam in range(7):
        verdict = classify_elliptic_fiber("hesse-cubic", lam, 7)
        if verdict.verdict == "supersingular":
            by_count.add(lam)
    assert locus == by_count


# -- point counting --------------------------------------------------------------


def test_point_count_line():
    for p in (3, 5, 7, 11):
        line = SparsePolynomial(("Z0", "Z1", "Z2"), {(1, 0, 0): 1})
        assert point_count_projective(line, p) == p + 1


def test_point_count_triangle():
    xyz = SparsePolynomial(("X", "Y", "Z"), {(1, 1, 1): 1})
    assert point_count_projective(xyz, 5) == 15  # 3(p+1) - 3


def test_point_count_fermat_like_cubic():
    h = SparsePolynomial(
        ("X", "Y", "Z"), {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 1}
    )
    count = point_count_projective(h, 5)
    assert abs(count - 6) <= 4  # Hasse bound at p = 5
    assert count == 6  # trace 0: the supersingular fiber at parameter 1


def _reference_point_count(h, p):
    """Zeros of h in P^N(F_p): exact evaluation at every canonical point."""
    n = len(h.variables)
    count = 0
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            point = (0,) * lead + (1,) + tail
            count += as_integral(h.evaluate(dict(zip(h.variables, point)))) % p == 0
    return count


def _random_form(rng):
    """A form in 2-4 variables with coefficients in [-9, 9], some of them
    integral Fractions; the last variable is left out of about a third."""
    n = rng.randrange(2, 5)
    degree = rng.randrange(1, 9)
    used = n - (rng.random() < 1 / 3)
    terms = {}
    for _ in range(rng.randrange(0, 7)):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(used)] += 1
        c = rng.randrange(-9, 10)
        terms[tuple(exps)] = Fraction(3 * c, 3) if rng.random() < 0.3 else c
    return SparsePolynomial(tuple(f"Z{i}" for i in range(n)), terms)


def test_point_count_matches_exact_evaluation():
    rng = random.Random(11)
    seen = {"no last variable": 0, "exponent >= p": 0, "Fraction": 0, "negative": 0}
    for _ in range(150):
        h = _random_form(rng)
        for p in (2, 3, 5, 7):
            assert point_count_projective(h, p) == _reference_point_count(h, p), (h, p)
            seen["exponent >= p"] += any(e >= p for exps in h.terms for e in exps)
        seen["no last variable"] += all(exps[-1] == 0 for exps in h.terms)
        seen["Fraction"] += any(type(c) is Fraction for c in h.terms.values())
        seen["negative"] += any(c < 0 for c in h.terms.values())
    assert min(seen.values()) > 10, seen
    half = SparsePolynomial(("X", "Y"), {(1, 0): 1, (0, 1): Fraction(1, 2)})
    with pytest.raises(NonIntegralError):
        point_count_projective(half, 5)


def test_point_count_rejects_inhomogeneous():
    h = SparsePolynomial(("X", "Y"), {(1, 0): 1, (2, 0): 1})
    with pytest.raises(ValueError):
        point_count_projective(h, 5)


def test_budget():
    line = SparsePolynomial(("Z0", "Z1", "Z2"), {(1, 0, 0): 1})
    with pytest.raises(BudgetExceededError):
        point_count_projective(line, 31, budget=100)
    assert projective_point_total(2, 31) == 993


# -- fiber classification ----------------------------------------------------------


def test_classify_singular_parameters():
    for p in (3, 5, 7, 11):
        assert classify_elliptic_fiber("hesse-cubic", 0, p).verdict == "singular"
    assert classify_elliptic_fiber("hesse-cubic", 2, 5).verdict == "singular"
    # a singular fiber is not counted: its point count and trace stay None
    assert classify_elliptic_fiber("hesse-cubic", 2, 5) == (5, 2, "singular", None, None)


def test_classify_supersingular_fiber():
    got = classify_elliptic_fiber("hesse-cubic", 1, 5)
    assert got.verdict == "supersingular"
    assert got.point_count == 6
    assert got.trace == 0


def test_classify_requires_elliptic_family():
    # the oracle's scope is read from the catalog's dimensions
    assert ELLIPTIC_FAMILIES == ("hesse-cubic",)
    with pytest.raises(OracleUnavailableError):
        classify_elliptic_fiber("quintic-cy3", 1, 5)


def test_hasse_bound_small_primes():
    for p in (3, 5, 7, 11, 13):
        for lam in range(p):
            got = classify_elliptic_fiber("hesse-cubic", lam, p)
            if got.verdict != "singular":
                assert got.trace * got.trace <= 4 * p


# -- scans ---------------------------------------------------------------------------


def test_scan_with_oracle_small():
    report = ordinarity_scan("hesse-cubic", 5, with_oracle=True)
    assert [s.prime for s in report.scans] == [3, 5]
    by_prime = {s.prime: s for s in report.scans}
    assert by_prime[3].nonordinary == ()
    assert by_prime[5].nonordinary == (1,)
    assert all(s.agree for s in report.scans)
    assert report.all_agree


def test_scan_single_prime():
    report = ordinarity_scan("quintic-cy3", 3)
    assert len(report.scans) == 1
    assert report.scans[0].agree is None
    # no verdict is issued for a threefold pencil, only the locus
    smooth = [v for v in report.scans[0].verdicts if v != "singular"]
    assert smooth and all(v == "" for v in smooth)


def test_scan_oracle_refused_for_non_elliptic():
    with pytest.raises(OracleUnavailableError):
        ordinarity_scan("quintic-cy3", 7, with_oracle=True)


def test_scan_bound_validated():
    with pytest.raises(ValueError):
        ordinarity_scan("hesse-cubic", 2)


@pytest.mark.parametrize("pmax", [3, 4, 8, 9, 24, 25, 48, 49, 120, 121, 168, 169, 1000])
def test_scan_primes_come_from_the_sieve(monkeypatch, pmax):
    """The sieve's primes are is_prime's, through prime squares (9, 25, 49, 121, 169) and pmax 1000."""
    monkeypatch.setattr(ordinarity, "_scan_prime", lambda family_id, p, *rest: p)
    assert list(ordinarity_scan("hesse-cubic", pmax).scans) == [p for p in range(3, pmax + 1) if is_prime(p)]


def test_scan_oracle_verdicts_match_classify():
    """The scan reads each verdict from its count mod p; classify_elliptic_fiber from the trace."""
    for scan in ordinarity_scan("hesse-cubic", 61, with_oracle=True).scans:
        p = scan.prime
        assert scan.oracle_verdicts == [classify_elliptic_fiber("hesse-cubic", lam, p).verdict for lam in range(p)]


def test_scan_tests_each_prime_once(monkeypatch):
    """At most one primality test per scanned prime; the sieve lists them, and the scan tests none."""
    calls = []

    def counted(test):
        def is_prime(n):
            calls.append(n)
            return test(n)
        return is_prime

    monkeypatch.setattr(families, "is_prime", counted(families.is_prime))
    monkeypatch.setattr(ordinarity, "is_prime", counted(ordinarity.is_prime))
    report = ordinarity_scan("hesse-cubic", 61, with_oracle=True)
    assert len(report.scans) == 17 and report.all_agree
    assert len(calls) <= len(report.scans), sorted(calls)


def test_scan_residue_table_matches_horner():
    """The scan's chirp-transform table against one-point Horner, and its singular rows
    against the rules at one point, at a prime of every class of gcd(g, p - 1)."""
    primes = {
        # 13 = 197 = 1 and 7 = 211 = 3 mod 4; 3 <= 4, where a_p = 1 and g falls back to 1
        "quartic-k3": (3, 5, 7, 13, 197, 211),
        # 11 = 211 = 1 mod 5, and 7, 13 and 199 not; 3 and 5 <= 5, where a_p = 1
        "quintic-cy3": (3, 5, 7, 11, 13, 199, 211),
        # 7 = 1 and 5 = 2 mod 3; 211 = 1 and 197 = 2 mod 3
        "hesse-cubic": (3, 5, 7, 13, 197, 211),
    }
    for family, chosen in primes.items():
        scans = {s.prime: s for s in ordinarity_scan(family, 211).scans}
        for p in chosen:
            scan = scans[p]
            assert len(scan.hasse_witt_values) == len(scan.verdicts) == p
            for lam, (value, verdict) in enumerate(zip(scan.hasse_witt_values, scan.verdicts)):
                assert value == hasse_witt_value(family, lam, p), (family, p, lam)
                assert (verdict == "singular") == declared_singular(family, lam, p), (family, p, lam)
    # from p = 1626 on, p^3 >= 2^32 and the sums are packed in 64 bits, not 32
    p = 1637  # = 2 mod 3, so a_p takes p - 1 distinct values of y = x^3
    period = builtin_family("hesse-cubic").period(p).coefficients
    table = ordinarity._hasse_witt_table(period[:p:3], 3, p, ordinarity._primitive_root_powers(p))
    for lam in (*range(0, p, 41), p - 1):
        assert table[lam] == hasse_witt_value("hesse-cubic", lam, p), lam


@pytest.mark.parametrize("family", families.FAMILY_IDS)
def test_scan_reads_a_p_mod_p_from_the_truncated_period(monkeypatch, family):
    """The list the scan evaluates at every p < 1000 is F0 = sum_j eps^j (nj)!/(j!)^n x^(nj) truncated
    below x^p, as a list in y = x^n; reduced mod p it is a_p mod p from ``closed_form_mod``'s walk,
    coefficient by coefficient: C(p-1, nj) = (-1)^(nj) mod p turns sign^j into eps^j = (-sign)^(nj)."""
    read, table = {}, ordinarity._hasse_witt_table

    def recorded(coefficients, g, p, powers):
        read[p] = coefficients, g
        return table(coefficients, g, p, powers)

    monkeypatch.setattr(ordinarity, "_hasse_witt_table", recorded)
    ordinarity_scan(family, 999)
    n = len(builtin_family(family).family.coordinate_variables())
    assert sorted(read) == [p for p in range(3, 1000) if is_prime(p)]
    for p, (coefficients, g) in read.items():
        terms = builtin_family(family).closed_form_mod(p, p, 1).terms
        assert g == n and all(not e % n for (e,) in terms), p
        assert [c % p for c in coefficients] == [terms.get((n * j,), 0) for j in range((p - 1) // n + 1)], p


def test_scan_prime_bound_is_the_slot_bound(monkeypatch):
    """The table packs sums below p^3 into 64-bit slots, so the scan refuses every
    prime bound from the least P with P^3 >= 2^64 on, before scanning any prime."""
    bound = ordinarity.SCAN_PRIME_BOUND
    assert (bound - 1) ** 3 < 2**64 <= bound**3
    monkeypatch.setattr(ordinarity, "_scan_prime", lambda *args: pytest.fail("scanned a prime"))
    for prime_bound in (bound, bound + 1, 10**30):
        with pytest.raises(BudgetExceededError, match=f"at or above the scan bound {bound}$"):
            ordinarity_scan("quintic-cy3", prime_bound)


def test_fiber_point_counts_match_per_fiber_reference():
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        pencil = builtin_family(family).family.polynomials[0]
        for p in (3, 5, 7):
            counts = fiber_point_counts(family, p)
            assert len(counts) == p
            for lam in range(p):
                assert counts[lam] == point_count_projective(pencil.evaluate({"x": lam}), p)
    with pytest.raises(BudgetExceededError):
        fiber_point_counts("hesse-cubic", 11, budget=100)



def _unfolded_fiber_counts(a, b, p):
    """#{x*a + b = 0}(F_p) for x = 0..p-1 by the unfolded enumeration: every
    z of every canonical row, each point tallied once."""
    nvars = len(a.variables)

    def rows(h):
        tables = {e: [pow(v, e, p) for v in range(p)] for exps in h.terms for e in exps}
        by_last = {}
        for exps, c in h.terms.items():
            factors = [(i, tables[e]) for i, e in enumerate(exps[:-1]) if e]
            by_last.setdefault(exps[-1], []).append((as_integral(c) % p, factors))

        def row(prefix):
            values = [0] * p
            for k, monomials in by_last.items():
                q = sum(c * prod(t[prefix[i]] for i, t in factors) for c, factors in monomials) % p
                if q:
                    values = [v + q * t for v, t in zip(values, tables[k])]
            return [v % p for v in values]

        for lead in range(nvars - 1):
            for tail in product(range(p), repeat=nvars - lead - 2):
                yield row((0,) * lead + (1,) + tail)
        yield row((0,) * (nvars - 1))[1:2]

    neg_inverse = [0] + [-pow(v, -1, p) for v in range(1, p)]
    counts = [0] * p
    on_every_fiber = 0
    for a_row, b_row in zip(rows(a), rows(b)):
        for u, v in zip(a_row, b_row):
            if u:
                counts[v * neg_inverse[u] % p] += 1
            elif not v:
                on_every_fiber += 1
    return tuple(c + on_every_fiber for c in counts)


def test_fiber_counts_match_unfolded_enumeration():
    for family, bound in (("hesse-cubic", 101), ("quartic-k3", 17), ("quintic-cy3", 11)):
        pencil = builtin_family(family).family.polynomials[0]
        a, b = coefficient_of(pencil, {"x": 1}), coefficient_of(pencil, {"x": 0})
        for p in filter(is_prime, range(3, bound + 1)):
            assert fiber_point_counts(family, p) == _unfolded_fiber_counts(a, b, p), (family, p)
    # the cubic's correlation count against the torus walk, which every other pencil runs
    sign = builtin_family("hesse-cubic").family.polynomials[0].terms[1, 3, 0, 0]
    for p in filter(is_prime, range(3, 212)):
        assert fiber_point_counts("hesse-cubic", p) == ordinarity._torus_counts(3, sign, p), p

# -- prime power congruence ------------------------------------------------------------


def test_congruence_multiplicative_log():
    log = multiplicative_logarithm(30)
    for p, nu in ((3, 2), (5, 2), (3, 3)):
        assert frobenius_power_congruence(log.coefficient, p, nu).passed


def test_congruence_hesse_p3():
    log = closed_form_logarithm("hesse-cubic", 9)
    assert log.coefficient(9) == 1 + 336 * X**3 + 2520 * X**6
    assert frobenius_power_congruence(log.coefficient, 3, 2).passed


def test_congruence_hesse_p5_against_frozen_reduction():
    log = closed_form_logarithm("hesse-cubic", 25)
    # a_25 mod 5, recomputed once by hand from the binomial formula
    frozen = 1 + 4 * X**3 + 4 * X**15 + X**18
    assert log.coefficient(25).reduce_mod(5) == frozen
    rhs = (log.coefficient(5).reduce_mod(5) * log.coefficient(5).reduce_mod(5) ** 5)
    assert rhs.reduce_mod(5) == frozen
    assert frobenius_power_congruence(log.coefficient, 5, 2).passed


def test_congruence_failure_carries_witness():
    # a logarithm rigged to break the congruence at p = 3
    from wittkit.formal_groups import Logarithm

    coeffs = [1] * 9
    coeffs[8] = 1 + X  # a_9 = 1 + x while a_3 * a_3^3 = 1
    log = Logarithm(coeffs)
    got = frobenius_power_congruence(log.coefficient, 3, 2)
    assert not got.passed
    assert got.residual == X


def test_congruence_residual_matches_pth_power_reference():
    # the check raises a_(p^(nu-1)) to the p-th power as f(x^p); the
    # reference takes the power in Z[x] and reduces afterwards
    from wittkit.formal_groups import Logarithm

    rng = random.Random(5)
    for p, nu in ((3, 2), (3, 3), (5, 2), (7, 2)):
        for _ in range(4):
            coeffs = [SparsePolynomial.constant(1, ("x",))] + [
                SparsePolynomial(("x",), {(e,): rng.randrange(-9, 10) for e in range(3)})
                for _ in range(p**nu - 1)
            ]
            log = Logarithm(coeffs)
            a = [None] + [c.reduce_mod(p) for c in coeffs]
            rhs = (a[p] * a[p ** (nu - 1)] ** p).reduce_mod(p)
            residual = (a[p**nu] - rhs).reduce_mod(p)
            got = frobenius_power_congruence(log.coefficient, p, nu)
            assert got.passed == (not residual.terms)
            assert got.residual == (residual if residual.terms else None)


def test_congruence_truncation_guard():
    log = multiplicative_logarithm(8)
    with pytest.raises(ValueError):
        frobenius_power_congruence(log.coefficient, 3, 2)


@pytest.mark.parametrize("p, nu, refused", [
    (3, 14, False), (3, 15, True), (211, 3, False), (223, 3, True), (3, 10**9, True),
])
def test_congruence_budget_bounds_p_nu(p, nu, refused):
    """p^nu <= 10^7 is read (3^14 = 4,782,969 and 211^3 = 9,393,931); past
    it nothing is read at all."""
    read = []

    def rule(m):
        read.append(m)
        return 1

    if refused:
        with pytest.raises(BudgetExceededError, match=rf"p\^nu = {p}\^{nu} is over the budget 10000000"):
            frobenius_power_congruence(rule, p, nu)
        assert read == []
    else:
        assert frobenius_power_congruence(rule, p, nu).passed
        assert sorted(read) == [p, p ** (nu - 1), p**nu]


def test_is_prime():
    assert [n for n in range(2, 32) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
    assert all(is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1)))
               for n in range(10**5))
    # psi_1, ..., psi_11: the least strong pseudoprimes to the first 1, ..., 11 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not is_prime(n), n
    for n in (2**61 - 1, 100000000000031, 10**18 + 3):
        assert is_prime(n), n


def test_primality_bound_is_refused_not_guessed():
    """psi_12 = 399165290221 * 798330580441 fools every base up to 37.  From
    it, a multiple of a base is still composite, and a p reaching
    closed_form_mod, a point count or is_prime itself is refused with the
    budget error, the one class families and ordinarity share."""
    assert PRIMALITY_BOUND == 399165290221 * 798330580441
    with pytest.raises(BudgetExceededError, match="at or above"):
        is_prime(PRIMALITY_BOUND)
    read = []
    with pytest.raises(BudgetExceededError, match="at or above the primality bound"):
        frobenius_power_congruence(read.append, PRIMALITY_BOUND, 2)
    assert read == []
    with pytest.raises(BudgetExceededError):
        declared_singular("hesse-cubic", 1, PRIMALITY_BOUND + 2)
    assert families.BudgetExceededError is BudgetExceededError
    assert is_prime(10**30) is False
    assert is_prime(37 * PRIMALITY_BOUND) is False
    with pytest.raises(BudgetExceededError, match="at or above"):
        is_prime(10**30 + 1)  # no factor up to 37
    quintic = builtin_family("quintic-cy3")
    for p in (10**30, PRIMALITY_BOUND):
        with pytest.raises(BudgetExceededError, match="at or above the primality bound"):
            quintic.closed_form_mod(5, p, 1)
    h = builtin_family("hesse-cubic").family.polynomials[0].evaluate({"x": 1})
    with pytest.raises(BudgetExceededError, match="over the budget"):
        point_count_projective(h, PRIMALITY_BOUND)
    line = SparsePolynomial(("X", "Y"), {(1, 0): 1})
    with pytest.raises(BudgetExceededError, match="at or above the primality bound"):  # is_prime's own
        point_count_projective(line, PRIMALITY_BOUND, budget=PRIMALITY_BOUND + 1)
    with pytest.raises(ValueError, match="the form must be homogeneous"):
        point_count_projective(SparsePolynomial(("X", "Y"), {(1, 0): 1, (2, 0): 1}), 10**30)
    for p in (-3, 0, 1, 4, 9):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            point_count_projective(line, p)
