"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance here is exact equality and every time budget is
asserted inside the test that owns it.
"""

import random
import time
from math import comb, factorial, gcd

from wittkit.cli import main as cli_main
from wittkit.families import (
    am_logarithm,
    builtin_family,
    closed_form_logarithm,
    family_logarithm,
)
from wittkit.formal_groups import (
    Curve,
    canonical_curve,
    curve_frobenius,
    curve_scale,
    curve_verschiebung,
    fg_add,
    frobenius_matrix_1d,
    group_law_from_logarithm,
    integrality_report,
    multiplicative_logarithm,
    witt_cartier_bridge,
)
from wittkit.ordinarity import (
    classify_elliptic_fiber,
    declared_singular,
    fiber_point_counts,
    frobenius_power_congruence,
    hasse_witt_value,
    is_prime,
    projective_point_total,
)
from wittkit.picard_fuchs import pf_congruence_check, series_solution_check
from wittkit.polynomials import SparsePolynomial
from wittkit.series import MultiTruncatedSeries, TruncatedSeries
from wittkit.witt import (
    WittVector,
    teichmueller,
    to_ghost,
    witt_add,
    witt_frobenius,
    witt_mul,
    witt_neg,
    witt_scale_int,
    witt_truncate,
    witt_verschiebung,
)

from conftest import golden_cli_requests

X = SparsePolynomial.variable("x")


def _rand_poly(rng, max_deg=2, max_coeff=4):
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        terms[(rng.randrange(max_deg + 1),)] = rng.randrange(-max_coeff, max_coeff + 1)
    return SparsePolynomial(("x",), terms)


def _rand_vector(rng, length, polynomial):
    if polynomial:
        return WittVector([_rand_poly(rng) for _ in range(length)])
    return WittVector([rng.randrange(-9, 10) for _ in range(length)])


def test_acceptance_1_witt_ring_laws():
    """>= 500 randomized instances over Z and Z[x], n <= 12, exact, < 60 s."""
    started = time.monotonic()
    rng = random.Random(20240001)
    instances = 0
    for polynomial in (False, True):
        for _ in range(250):
            n = rng.randrange(1, 13)
            u = _rand_vector(rng, n, polynomial)
            v = _rand_vector(rng, n, polynomial)
            w = _rand_vector(rng, n, polynomial)
            zero = WittVector.zero(n)
            one = teichmueller(1, n)
            # ghost is a homomorphism (the injectivity route to the axioms)
            s = witt_add(u, v)
            p = witt_mul(u, v)
            assert to_ghost(s) == to_ghost(u) + to_ghost(v)
            assert to_ghost(p) == to_ghost(u) * to_ghost(v)
            # commutativity
            assert s == witt_add(v, u)
            assert p == witt_mul(v, u)
            # associativity
            assert witt_add(witt_add(u, v), w) == witt_add(u, witt_add(v, w))
            assert witt_mul(witt_mul(u, v), w) == witt_mul(u, witt_mul(v, w))
            # distributivity
            assert witt_mul(u, witt_add(v, w)) == witt_add(
                witt_mul(u, v), witt_mul(u, w)
            )
            # identities and inverses
            assert witt_add(u, zero) == u
            assert witt_mul(u, one) == u
            assert witt_add(u, witt_neg(u)) == zero
            instances += 1
    elapsed = time.monotonic() - started
    assert instances >= 500
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1: PASS - ring axioms exact on {instances} instances "
        f"(Z and Z[x], n <= 12) in {elapsed:.1f}s"
    )


def test_acceptance_2_operator_relations_truncation_24():
    """Every Frobenius/Verschiebung/Teichmueller relation, m,n <= 6, at 24."""
    total = 24
    rng = random.Random(20240002)
    for polynomial in (False, True):
        for m in range(1, 7):
            for n in range(1, 7):
                alpha = _rand_vector(rng, total, polynomial)
                beta = _rand_vector(rng, total, polynomial)
                if polynomial:
                    a = _rand_poly(rng, max_deg=1)
                    b = _rand_poly(rng, max_deg=1)
                else:
                    a, b = rng.randrange(-6, 7), rng.randrange(-6, 7)
                # <a><b> = <ab>
                assert witt_mul(teichmueller(a, total), teichmueller(b, total)) == (
                    teichmueller(a * b, total)
                )
                # F_n<a> = <a^n>
                assert witt_frobenius(n, teichmueller(a, total)) == teichmueller(
                    a**n, total // n
                )
                # F_n multiplicative
                assert witt_frobenius(n, witt_mul(alpha, beta)) == witt_mul(
                    witt_frobenius(n, alpha), witt_frobenius(n, beta)
                )
                # F_m V_m = m
                fv = witt_frobenius(m, witt_verschiebung(m, alpha))
                scaled = witt_scale_int(m, alpha)
                k = min(fv.length, scaled.length)
                assert witt_truncate(fv, k) == witt_truncate(scaled, k)
                # F_m F_n = F_mn
                if total // (m * n) >= 1:
                    assert witt_frobenius(m, witt_frobenius(n, alpha)) == (
                        witt_frobenius(m * n, alpha)
                    )
                # V_m V_n = V_mn
                vv = witt_verschiebung(m, witt_verschiebung(n, alpha))
                vmn = witt_verschiebung(m * n, alpha)
                k = min(vv.length, vmn.length)
                assert witt_truncate(vv, k) == witt_truncate(vmn, k)
                # V_n F_m = F_m V_n when coprime
                if gcd(m, n) == 1:
                    lhs = witt_verschiebung(n, witt_frobenius(m, alpha))
                    rhs = witt_frobenius(m, witt_verschiebung(n, alpha))
                    k = min(lhs.length, rhs.length)
                    assert witt_truncate(lhs, k) == witt_truncate(rhs, k)
                # V_m(alpha' . F_m beta) = (V_m alpha') . beta
                j = total // m
                ap = witt_truncate(alpha, j)
                lhs = witt_verschiebung(m, witt_mul(ap, witt_frobenius(m, beta)))
                k = min(lhs.length, total)
                rhs = witt_mul(
                    witt_verschiebung(m, ap, length=k), witt_truncate(beta, k)
                )
                assert witt_truncate(lhs, k) == rhs
    print(
        "\nACCEPTANCE 2: PASS - operator relations exact for all m,n <= 6 "
        "at truncation 24 (Z and Z[x])"
    )


def test_acceptance_3_extraction_equals_closed_forms():
    """Coefficient extraction matches the printed rules; quintic < 120 s."""
    for family, m_max in (("hesse-cubic", 12), ("quartic-k3", 10)):
        extracted = family_logarithm(family, m_max, "extraction")
        formula = family_logarithm(family, m_max, "closed-form")
        for m in range(1, m_max + 1):
            assert extracted.coefficient(m) == formula.coefficient(m), (
                family,
                m,
            )
    started = time.monotonic()
    extracted = family_logarithm("quintic-cy3", 8, "extraction")
    elapsed = time.monotonic() - started
    formula = family_logarithm("quintic-cy3", 8, "closed-form")
    for m in range(1, 9):
        assert extracted.coefficient(m) == formula.coefficient(m)
    assert elapsed < 120.0
    print(
        "\nACCEPTANCE 3: PASS - extraction = closed form (hesse m<=12, "
        f"quartic m<=10, quintic m<=8; quintic extraction {elapsed:.1f}s)"
    )


def test_acceptance_4_group_law_integrality():
    """No denominators to degree 10 (hesse) / 8 (quintic); hesse(0) is
    the multiplicative law exactly."""
    hesse_log = am_logarithm(builtin_family("hesse-cubic").family, 10)
    hesse_law = group_law_from_logarithm(hesse_log, 10)
    assert integrality_report(hesse_law).passed

    quintic_log = am_logarithm(builtin_family("quintic-cy3").family, 8)
    quintic_law = group_law_from_logarithm(quintic_log, 8)
    assert integrality_report(quintic_law).passed

    at_zero = hesse_law.series.map_coefficients(
        lambda c: c.evaluate({"x": 0}) if isinstance(c, SparsePolynomial) else c
    )
    multiplicative = MultiTruncatedSeries(
        ("t1", "t2"), 10, {(1, 0): 1, (0, 1): 1, (1, 1): -1}
    )
    assert at_zero == multiplicative
    print(
        "\nACCEPTANCE 4: PASS - integral laws (hesse deg 10, quintic deg 8); "
        "hesse law at x=0 equals t1+t2-t1*t2 exactly"
    )


def test_acceptance_5_ordinary_iff_hasse_witt():
    """a_p-vanishing = point-count supersingularity, every smooth fiber,
    every odd prime p <= 31; zero disagreements; < 5 min."""
    started = time.monotonic()
    primes = [p for p in range(3, 32) if is_prime(p)]
    checked = 0
    disagreements = []
    for p in primes:
        for lam in range(p):
            if declared_singular("hesse-cubic", lam, p):
                continue
            hw_supersingular = hasse_witt_value("hesse-cubic", lam, p) == 0
            oracle = classify_elliptic_fiber("hesse-cubic", lam, p)
            assert oracle.verdict in ("ordinary", "supersingular")
            # point counts on smooth fibers respect the Hasse bound
            assert oracle.trace * oracle.trace <= 4 * p
            if hw_supersingular != (oracle.verdict == "supersingular"):
                disagreements.append((p, lam))
            checked += 1
    elapsed = time.monotonic() - started
    assert disagreements == []
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 5: PASS - Hasse-Witt verdict matches point counts on "
        f"{checked} smooth fibers, p <= 31, 0 disagreements, {elapsed:.1f}s"
    )


def test_acceptance_6_prime_power_congruence():
    """a_(p^2) = a_p * a_p^p mod p for p in {3, 5}, both pencils, M >= 25;
    every value recomputed independently from the printed formulas."""

    def independent(family, m):
        # direct binomial/factorial evaluation, bypassing the package rules
        if family == "hesse-cubic":
            n, sign = 3, 1
        else:
            n, sign = 5, -1
        terms = {}
        j = 0
        while n * j <= m - 1:
            c = comb(m - 1, n * j) * (factorial(n * j) // factorial(j) ** n)
            if c:
                terms[(n * j,)] = sign**j * c
            j += 1
        return SparsePolynomial(("x",), terms)

    for family in ("hesse-cubic", "quintic-cy3"):
        log = closed_form_logarithm(family, 25)
        assert log.truncation >= 25
        for p in (3, 5):
            for m in (p, p * p):
                assert log.coefficient(m) == independent(family, m), (
                    family,
                    m,
                )
            check = frobenius_power_congruence(log.coefficient, p, 2)
            assert check.passed, (family, p, check.residual)
            # and once more from the independent values
            lhs = independent(family, p * p).reduce_mod(p)
            rhs = (
                independent(family, p).reduce_mod(p)
                * independent(family, p).reduce_mod(p) ** p
            ).reduce_mod(p)
            assert lhs == rhs
    print(
        "\nACCEPTANCE 6: PASS - a_(p^2) = a_p * a_p^p mod p for p in {3,5} "
        "on both pencils, values independently recomputed"
    )


def test_acceptance_7_picard_fuchs_congruences():
    """L a_k = 0 mod k for k <= 50 and L f = 0 through x^200, exact, < 60 s."""
    started = time.monotonic()
    quintic = builtin_family("quintic-cy3")
    operator = quintic.picard_fuchs
    log = closed_form_logarithm("quintic-cy3", 50)
    results = pf_congruence_check(operator, log.coefficient, 50)
    failures = [r.k for r in results if not r.passed]
    assert failures == []

    period = quintic.period(205)
    solution = series_solution_check(operator, period, 200)
    assert solution.passed
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 7: PASS - L a_k = 0 mod k for k <= 50 and L f = 0 "
        f"through x^200, exact, {elapsed:.1f}s"
    )


def test_acceptance_8_cartier_witt_bridge():
    """>= 200 random multiplicative-law curves, truncation 16: the Witt
    identification intertwines +, <a>, V_k, F_k exactly."""
    rng = random.Random(20240008)
    log = multiplicative_logarithm(16)
    order = 16
    curves = 0
    while curves < 200:
        gamma1 = TruncatedSeries(
            "t", [0] + [rng.randrange(-3, 4) for _ in range(order)], order
        )
        gamma2 = TruncatedSeries(
            "t", [0] + [rng.randrange(-3, 4) for _ in range(order)], order
        )
        c1 = Curve.from_gamma(log, gamma1)
        c2 = Curve.from_gamma(log, gamma2)
        w1 = witt_cartier_bridge(c1)
        w2 = witt_cartier_bridge(c2)
        assert witt_cartier_bridge(fg_add(c1, c2)) == witt_add(w1, w2)
        a = rng.randrange(-5, 6)
        assert witt_cartier_bridge(curve_scale(a, c1)) == witt_mul(
            teichmueller(a, order), w1
        )
        k = rng.choice((2, 3, 4, 5))
        vk = witt_cartier_bridge(curve_verschiebung(k, c1))
        assert vk == witt_verschiebung(k, w1, length=vk.length)
        assert witt_cartier_bridge(curve_frobenius(k, c1)) == witt_frobenius(k, w1)
        curves += 2
    print(
        f"\nACCEPTANCE 8: PASS - bridge intertwines every curve operator on "
        f"{curves} random curves at truncation 16"
    )


def test_acceptance_9_frobenius_degree_one_coefficient():
    """The degree-1 coefficient of F_k on the canonical curve is a_k,
    for every k <= M, on all built-in families."""
    logs = [closed_form_logarithm(f, 16) for f in ("hesse-cubic", "quartic-k3", "quintic-cy3")]
    logs.append(am_logarithm(builtin_family("hesse-cubic").family, 10))
    for log in logs:
        for k in range(1, log.truncation + 1):
            assert frobenius_matrix_1d(log, k) == log.coefficient(k)
    print(
        "\nACCEPTANCE 9: PASS - F_k on the canonical curve reads off a_k "
        "for every k <= M on all built-in families"
    )


def test_acceptance_10_cli_determinism(capsys):
    """Byte-identical output across two runs of every golden request."""
    requests = 0
    for request in golden_cli_requests():
        code1 = cli_main(list(request))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(request))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, request
        assert out1 == out2, request
        assert out1, request
        requests += 1
    print(
        f"\nACCEPTANCE 10: PASS - byte-identical output across two runs of "
        f"{requests} golden CLI requests"
    )


def test_acceptance_11_chevalley_warning_all_pencils():
    """#X_lambda(F_p) = 1 + (-1)^n a_p(lambda) mod p, n homogeneous
    coordinates, for every lambda (singular fibers included) of all three
    pencils: hesse p <= 61, quartic p <= 101, quintic p <= 31.  The budget is
    #P^N(F_p), which the default refuses for the quartic from p = 47 on."""
    started = time.monotonic()
    checked = 0
    mismatches = []
    for family, pmax in (("hesse-cubic", 61), ("quartic-k3", 101), ("quintic-cy3", 31)):
        n = len(builtin_family(family).family.coordinate_variables())
        for p in (p for p in range(3, pmax + 1) if is_prime(p)):
            budget = projective_point_total(n - 1, p)
            for lam, count in enumerate(fiber_point_counts(family, p, budget)):
                a_p = hasse_witt_value(family, lam, p)
                if (count - 1 - (-1) ** n * a_p) % p:
                    mismatches.append((family, p, lam))
                checked += 1
    elapsed = time.monotonic() - started
    assert mismatches == []
    print(
        f"\nACCEPTANCE 11: PASS - point counts match a_p mod p "
        f"on {checked} fibers of all three pencils, {elapsed:.1f}s"
    )
