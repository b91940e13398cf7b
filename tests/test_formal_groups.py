import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest

from wittkit.families import family_logarithm
from wittkit.formal_groups import (
    AmbientMismatchError,
    Curve,
    FormalGroupLaw,
    Logarithm,
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
from wittkit.polynomials import SparsePolynomial, is_integral
from wittkit.series import MultiTruncatedSeries, TruncatedSeries, substitute_univariate
from wittkit.witt import (
    WittVector,
    teichmueller,
    witt_add,
    witt_frobenius,
    witt_mul,
    witt_verschiebung,
)

X = SparsePolynomial.variable("x")


def law_identity_checks(law):
    # G(t1, 0) = t1, and G(t1, t2) = G(t2, t1); synthesis writes G_ij's value
    # for G_ji, so the second holds by construction: the half sum is checked
    # against the full flow in test_half_synthesis_matches_full_flow
    for i in range(law.degree + 1):
        assert law.coefficient(i, 0) == (1 if i == 1 else 0)
        for j in range(law.degree + 1 - i):
            assert law.coefficient(i, j) == law.coefficient(j, i)


def _compose_multivariate(f, args):
    """Reference: ``f(x_1, ..., x_n)`` at multivariate series arguments with
    zero constant terms, by plain products of cached powers."""
    variables = args[0].variables
    degree = min([f.degree] + [a.degree for a in args])
    powers = []
    for i, a in enumerate(args):
        row = [MultiTruncatedSeries.constant(1, variables, degree)]
        for _ in range(max((e[i] for e in f.terms), default=0)):
            row.append(row[-1] * a)
        powers.append(row)
    result = MultiTruncatedSeries(variables, degree)
    for e, c in f.terms.items():
        term = MultiTruncatedSeries.constant(c, variables, degree)
        for row, x in zip(powers, e):
            if x:
                term = term * row[x]
        result = result + term
    return result


def test_compose_multivariate_round_trip():
    # f(x1, x2) = x1 + x2 + x1*x2 evaluated at (u, v+w)
    f = MultiTruncatedSeries(("a", "b"), 3, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    u = MultiTruncatedSeries.variable("u", ("u", "v", "w"), 3)
    v = MultiTruncatedSeries.variable("v", ("u", "v", "w"), 3)
    w = MultiTruncatedSeries.variable("w", ("u", "v", "w"), 3)
    got = _compose_multivariate(f, [u, v + w])
    assert got.coefficient((1, 0, 0)) == 1
    assert got.coefficient((0, 1, 0)) == 1
    assert got.coefficient((0, 0, 1)) == 1
    assert got.coefficient((1, 1, 0)) == 1
    assert got.coefficient((1, 0, 1)) == 1
    assert got.coefficient((0, 1, 1)) == 0


def law_associativity(law, degree=None):
    degree = law.degree if degree is None else degree
    vars3 = ("u", "v", "w")
    u = MultiTruncatedSeries.variable("u", vars3, degree)
    v = MultiTruncatedSeries.variable("v", vars3, degree)
    w = MultiTruncatedSeries.variable("w", vars3, degree)
    g12 = _compose_multivariate(law.series, [u, v])
    g23 = _compose_multivariate(law.series, [v, w])
    return _compose_multivariate(law.series, [g12, w]) == _compose_multivariate(
        law.series, [u, g23]
    )


# -- logarithm bookkeeping -----------------------------------------------------


def test_logarithm_requires_unit_first_coefficient():
    with pytest.raises(ValueError):
        Logarithm([2, 1])
    with pytest.raises(ValueError):
        Logarithm([1, Fraction(1, 2)])


def test_logarithm_series_and_round_trip():
    log = multiplicative_logarithm(8)
    ell = log.series()
    assert ell.coefficients[3] == Fraction(1, 3)
    rev = log.inverse_series(8)
    assert ell.compose(rev) == TruncatedSeries.identity("t", 8)
    for m_max in (4, 8, 12, 16):
        hesse = family_logarithm("hesse-cubic", m_max)
        ell = hesse.series()
        assert ell.compose(hesse.inverse_series(m_max)) == TruncatedSeries.identity(
            "t", m_max
        )
    for family in ("quartic-k3", "quintic-cy3"):
        log = family_logarithm(family, 16, "closed-form")
        ell = log.series()
        assert ell.compose(log.inverse_series(16)) == TruncatedSeries.identity("t", 16)


# -- group law synthesis ---------------------------------------------------------


def test_additive_law():
    law = group_law_from_logarithm(Logarithm([1] + [0] * 5), 6)
    assert law.series.sorted_terms() == [((0, 1), 1), ((1, 0), 1)]
    assert integrality_report(law).passed
    law_identity_checks(law)
    assert law_associativity(law)


def test_multiplicative_law_is_exactly_t1_plus_t2_minus_t1t2():
    law = group_law_from_logarithm(multiplicative_logarithm(8), 8)
    expect = MultiTruncatedSeries(
        ("t1", "t2"), 8, {(1, 0): 1, (0, 1): 1, (1, 1): -1}
    )
    assert law.series == expect
    assert integrality_report(law).passed
    law_identity_checks(law)
    assert law_associativity(law)


def test_degree_two_closed_form():
    # with a_2 = a and higher coefficients zero the law starts t1+t2-a*t1*t2
    for a2 in (1, -3):
        log = Logarithm([1, a2, 0, 0])
        law = group_law_from_logarithm(log, 2)
        assert law.coefficient(1, 1) == -a2
        assert integrality_report(law).passed


def test_cubic_log_by_independent_reversion():
    # l = t + t^3/3: by hand G = t1 + t2 - t1^2 t2 - t1 t2^2 at degree 3
    log = Logarithm([1, 0, 1])
    law = group_law_from_logarithm(log, 3)
    assert law.coefficient(1, 1) == 0
    assert law.coefficient(2, 1) == -1
    assert law.coefficient(1, 2) == -1
    assert integrality_report(law).passed


def test_hesse_law_generic_parameter():
    log = family_logarithm("hesse-cubic", 6)
    law = group_law_from_logarithm(log, 6)
    report = integrality_report(law)
    assert report.passed
    law_identity_checks(law)
    assert law_associativity(law.as_integral())
    # specializing the parameter to 0 gives the multiplicative law
    at0 = law.series.map_coefficients(
        lambda c: c.evaluate({"x": 0}) if isinstance(c, SparsePolynomial) else c
    )
    expect = MultiTruncatedSeries(("t1", "t2"), 6, {(1, 0): 1, (0, 1): 1, (1, 1): -1})
    assert at0 == expect


def test_insufficient_truncation_rejected():
    with pytest.raises(ValueError):
        group_law_from_logarithm(multiplicative_logarithm(4), 6)


def test_integrality_report_failure_lists_coefficients():
    # l = t + t^4/4 gives, by hand,
    #   G = t1 + t2 - t1^3 t2 - (3/2) t1^2 t2^2 - t1 t2^3 + O(5),
    # so the certificate must fail exactly at (2, 2)
    log = Logarithm([1, 0, 0, 1])
    law = group_law_from_logarithm(log, 4)
    report = integrality_report(law)
    assert not report.passed
    assert [(i, j) for i, j, _ in report.failures] == [(2, 2)]
    assert report.failures[0][2] == Fraction(-3, 2)
    assert law.coefficient(3, 1) == -1
    assert law.coefficient(1, 3) == -1


def test_public_law_constructor_stores_print_order():
    """``FormalGroupLaw(series)`` puts a series built from a shuffled dict in the order that
    synthesis writes, which is MultiTruncatedSeries' sorted order."""
    rng = random.Random(49)
    for log, degree in ((Logarithm([1, 2, -3, 5, 0, 7, 1, -2]), 8), (family_logarithm("hesse-cubic", 9), 9)):
        law = group_law_from_logarithm(log, degree)
        items = list(law.series.terms.items())
        rng.shuffle(items)
        rebuilt = FormalGroupLaw(MultiTruncatedSeries(("t1", "t2"), degree, dict(items)))
        assert rebuilt.sorted_terms() == law.sorted_terms() == law.series.sorted_terms()
        assert list(rebuilt.series.terms) == list(law.series.terms) and rebuilt == law
    assert law.as_integral().sorted_terms() == law.sorted_terms()  # the hesse law is integral


@pytest.mark.parametrize("coeffs", [
    [1, 0, 0, 1, 0, 0, 1, 0],  # t + t^4/4 + t^7/7: several failing coefficients
    [1, 1, 1, 1, 1, 1, 1, 1],  # multiplicative: three terms
    [1, 2, -3, 5, 0, 7, 1, -2],
    [1, 1, 2, 1, 0, -1, 0, 0],  # two numerators sum to zero: the constructor drops them
    [SparsePolynomial(("x",), {(0,): 1}), *(SparsePolynomial(("x",), {(0,): 1, (k,): k}) for k in range(1, 8))],
])
def test_synthesized_law_equals_its_validated_construction(coeffs):
    """The law built by the trusted constructor equals the one the validating constructor
    builds from its terms, and its report lists the failures in ``sorted_terms`` order."""
    law = group_law_from_logarithm(Logarithm(coeffs), 8)
    assert law.series == MultiTruncatedSeries(("t1", "t2"), 8, law.series.terms)
    assert all(law.series.terms.values())
    expected = [(i, j, c) for (i, j), c in law.series.sorted_terms() if not is_integral(c)]
    assert list(integrality_report(law).failures) == expected


def _law_by_reversion(log, degree):
    # an unrelated path to the same coefficients: raw reversion + substitution
    ell = log.series(degree)
    summed = MultiTruncatedSeries(
        ("t1", "t2"),
        degree,
        {(m, 0): ell.coefficients[m] for m in range(1, degree + 1)}
        | {(0, m): ell.coefficients[m] for m in range(1, degree + 1)},
    )
    return substitute_univariate(ell.reversion(), summed)


def test_integrality_report_consistent_with_independent_reversion():
    quartic = family_logarithm("quartic-k3", 10, "closed-form")
    cases = [
        (family_logarithm("hesse-cubic", 8), 8),
        (family_logarithm("quartic-k3", 8, "closed-form"), 8),
        (family_logarithm("quintic-cy3", 8, "closed-form"), 8),
        (Logarithm([a.evaluate({"x": 2}) for a in quartic.coeffs]), 10),
        (Logarithm([1, 0, 0, 1]), 4),  # fails at (2, 2)
    ]
    for log, degree in cases:
        law = group_law_from_logarithm(log, degree)
        reference = _law_by_reversion(log, degree)
        assert law.series == reference
        expected_failures = {
            (i, j) for (i, j), c in reference.sorted_terms() if not is_integral(c)
        }
        failures = {(i, j) for i, j, _ in integrality_report(law).failures}
        assert failures == expected_failures
    assert failures == {(2, 2)}


@pytest.mark.parametrize("family", ["hesse-cubic", "quintic-cy3"])
def test_integral_law_coefficients_are_ints(family):
    """The final division by L^deg deg! gives an int wherever it is exact,
    over Z[x] and at x = 2, as ``as_integral`` would."""
    over_zx = family_logarithm(family, 12, "closed-form")
    for log in (over_zx, Logarithm([a.evaluate({"x": 2}) for a in over_zx.coeffs])):
        law = group_law_from_logarithm(log, 12)
        assert integrality_report(law).passed
        assert law.as_integral() == law
        for c in law.series.terms.values():
            inner = c.terms.values() if isinstance(c, SparsePolynomial) else [c]
            assert inner and all(type(v) is int for v in inner), c


def test_non_integral_law_coefficients_are_fractions():
    # l = t + t^4/4 and l = t + x t^4/4: G_22 = -3/2 and -3x/2
    for log in (Logarithm([1, 0, 0, 1]), Logarithm([1, 0, 0, X])):
        law = group_law_from_logarithm(log, 4)
        reference = _law_by_reversion(log, 4)
        assert law.series == reference
        for e, c in law.series.terms.items():
            for v in c.terms.values() if isinstance(c, SparsePolynomial) else [c]:
                assert type(v) is (int if is_integral(v) else Fraction), (e, v)
        failures = integrality_report(law).failures
        assert failures == tuple(
            (i, j, c) for (i, j), c in reference.sorted_terms() if not is_integral(c)
        )
        assert [(i, j) for i, j, _ in failures] == [(2, 2)]
        assert failures[0][2] == Fraction(-3, 2) * log.coeffs[3]


def test_synthesis_matches_reversion_on_a_seeded_grid():
    # random integer logarithms of every degree 1..12, random Z[x] ones of
    # degree 1..9 (the reference slows sharply in Z[x] past that), and the
    # logarithms c^(m-1) over Z and (c x)^(m-1) over Z[x], whose laws
    # t1 + t2 - c t1 t2 and t1 + t2 - c x t1 t2 are integral
    rng = random.Random(20)
    cases = []
    for degree in range(1, 13):
        a = rng.randint(-3, 3) * (1 if degree % 2 else X)
        cases.append(Logarithm([a ** m for m in range(degree)]))
        for _ in range(2):
            cases.append(Logarithm([1] + [rng.randint(-6, 6) for _ in range(degree - 1)]))
        if degree <= 9:
            cases.append(Logarithm([1] + [
                rng.randint(-2, 2) + rng.choice((0, 0, 0, 0, 1, -1)) * X for _ in range(degree - 1)
            ]))
    seen = set()
    for log in cases:
        law = group_law_from_logarithm(log, log.truncation)
        reference = _law_by_reversion(log, log.truncation)
        assert law.series == reference
        expected_failures = {
            (i, j) for (i, j), c in reference.sorted_terms() if not is_integral(c)
        }
        failures = {(i, j) for i, j, _ in integrality_report(law).failures}
        assert failures == expected_failures
        seen.add((any(isinstance(a, SparsePolynomial) for a in log.coeffs), bool(failures)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _full_flow_terms(log, degree):
    """Reference: the flow summed without G_ij = G_ji, over every step
    k <= degree and every (i, j) with i + j <= degree."""
    common = lcm(*range(1, degree + 1))
    lam = TruncatedSeries(
        "t", [0] + [a * (common // m) for m, a in enumerate(log.coeffs[:degree], 1)], degree
    )
    w = TruncatedSeries("t", log.coeffs[:degree]).inverse()
    f = TruncatedSeries("t", [0, log.coeffs[0]], degree)
    power = TruncatedSeries.constant(1, "t", degree)
    denominator = scale = common**degree * factorial(degree)
    numerators = {}
    for k in range(degree + 1):
        scaled = [c * scale for c in power.coefficients]
        for i, fi in enumerate(f.coefficients):
            if not fi:
                continue
            for j in range(k, degree - i + 1):
                if scaled[j]:
                    numerators[i, j] = numerators.get((i, j), 0) + fi * scaled[j]
        if k < degree:
            derivative = [i * c for i, c in enumerate(f.coefficients)][1:]
            f, power = TruncatedSeries("t", derivative) * w, power * lam
            scale //= common * (k + 1)

    def divide(n):
        if isinstance(n, SparsePolynomial):
            return SparsePolynomial(n.variables, {e: divide(c) for e, c in n.terms.items()})
        q, r = divmod(n, denominator)
        return Fraction(n, denominator) if r else q

    terms = {ij: divide(n) for ij, n in numerators.items()}
    return MultiTruncatedSeries(("t1", "t2"), degree, terms).terms


def _typed(value):
    """A coefficient with the type of each scalar in it, so 2 and Fraction(2) differ."""
    if isinstance(value, SparsePolynomial):
        return value.variables, {e: (type(c), c) for e, c in value.terms.items()}
    return type(value), value


def test_half_synthesis_matches_full_flow():
    """Summing only j <= i and copying G_ji = G_ij gives the full flow's
    coefficients, each of the same type: over Z[x], at fixed x, and on
    seeded random logarithms of odd and even degree, integral or not."""
    logs = []
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        over_zx = family_logarithm(family, 16)
        logs.append(over_zx)
        for x in (1, -1, 2, -2, 3, -3):
            logs.append(Logarithm([a.evaluate({"x": x}) for a in over_zx.coeffs]))
    cases = [(log, degree) for log in logs for degree in range(1, 17)]
    rng = random.Random(29)
    for degree in range(1, 12):
        cases.append((Logarithm([1] + [rng.randint(-6, 6) for _ in range(degree - 1)]), degree))
        cases.append((Logarithm([1] + [
            rng.randint(-2, 2) + rng.choice((0, 0, 1, -1)) * X for _ in range(degree - 1)
        ]), degree))
    cases += [(Logarithm([1, 0, 0, 1]), 4), (Logarithm([1, 0, 0, X, 0]), 5)]
    integral = set()
    for log, degree in cases:
        law = group_law_from_logarithm(log, degree)
        reference = _full_flow_terms(log, degree)
        assert {e: _typed(c) for e, c in law.series.terms.items()} == {
            e: _typed(c) for e, c in reference.items()
        }, (log, degree)
        integral.add((degree % 2, integrality_report(law).passed))
    assert integral == {(0, True), (0, False), (1, True), (1, False)}


def test_polynomial_logarithms_match_full_flow_and_reversion():
    """Logarithms whose every a_m, a_1 included, is a polynomial in one variable,
    named x or not, with zero polynomials among them: the law's coefficients
    are the full flow's, each a polynomial in that variable with the same
    scalar types, and equal the reversion's where that reference is cheap."""
    rng = random.Random(39)
    cases = []
    for name in ("x", "s"):
        one, var, zero = (SparsePolynomial.constant(1, (name,)), SparsePolynomial.variable(name),
                          SparsePolynomial.zero((name,)))
        cases += [(Logarithm([one, zero, zero, var, zero]), 5), (Logarithm([one] * 6 + [zero]), 7)]
        for degree in range(1, 12):
            c = rng.randint(-3, 3) * var  # the law t1 + t2 - c t1 t2, integral
            cases.append((Logarithm([c**m for m in range(degree)]), degree))
            cases.append((Logarithm([one] + [
                rng.randint(-2, 2) * one + rng.choice((0, 0, 1, -1)) * var + rng.choice((0, 0, 1)) * var**3
                for _ in range(degree - 1)
            ]), degree))
    seen = set()
    for log, degree in cases:
        name = log.coeffs[0].variables
        assert all(isinstance(a, SparsePolynomial) and a.variables == name for a in log.coeffs)
        law = group_law_from_logarithm(log, degree)
        assert {e: _typed(c) for e, c in law.series.terms.items()} == {
            e: _typed(c) for e, c in _full_flow_terms(log, degree).items()
        }, (log, degree)
        assert all(type(c) is SparsePolynomial and c.variables == name for c in law.series.terms.values())
        if degree <= 8:
            assert law.series == _law_by_reversion(log, degree)
        seen.add((name, integrality_report(law).passed))
    assert any(not a for log, _ in cases for a in log.coeffs)
    assert seen == {(("x",), True), (("x",), False), (("s",), True), (("s",), False)}


# -- curves -----------------------------------------------------------------------


def test_fg_add_identity_and_inverse():
    log = multiplicative_logarithm(8)
    c = canonical_curve(log, 8)
    zero = Curve(log, TruncatedSeries.zero("t", 8))
    assert fg_add(c, zero) == c
    assert fg_add(c, Curve(c.logarithm, -c.eta)) == zero


def test_fg_add_doubling_multiplicative():
    log = multiplicative_logarithm(6)
    c = canonical_curve(log, 6)
    doubled = fg_add(c, c)
    gamma = doubled.gamma()
    # 1 - (1-t)^2 = 2t - t^2
    assert gamma == TruncatedSeries("t", [0, 2, -1, 0, 0, 0, 0], 6)


def test_fg_add_ambient_mismatch():
    log1, log2 = multiplicative_logarithm(6), Logarithm([1] + [0] * 5)
    with pytest.raises(AmbientMismatchError):
        fg_add(canonical_curve(log1, 6), canonical_curve(log2, 6))


def test_curve_scale():
    log = multiplicative_logarithm(6)
    c = canonical_curve(log, 6)
    assert curve_scale(1, c) == c
    zero = Curve(log, TruncatedSeries.zero("t", 6))
    assert curve_scale(0, c) == zero
    scaled = curve_scale(3, c)
    assert scaled.gamma() == TruncatedSeries("t", [0, 3], 6)


def test_curve_verschiebung():
    log = multiplicative_logarithm(8)
    c = canonical_curve(log, 3)
    assert curve_verschiebung(1, c) == c
    v2 = curve_verschiebung(2, c)
    assert v2.gamma() == TruncatedSeries("t", [0, 0, 1, 0, 0, 0, 0, 0], 7)
    f2 = curve_frobenius(2, v2)
    doubled = fg_add(c, c)
    assert f2 == doubled


def test_curve_frobenius_reindexes():
    log = multiplicative_logarithm(9)
    c = canonical_curve(log, 9)
    assert curve_frobenius(1, c) == c
    f2 = curve_frobenius(2, c)
    # all-ones coefficient sequence is fixed by the reindexing rule
    assert f2.eta == log.series(4)
    with pytest.raises(ValueError):
        curve_frobenius(10, c)


def test_frobenius_on_canonical_curve_reads_coefficients():
    log = family_logarithm("hesse-cubic", 8)
    c = canonical_curve(log)
    for k in (2, 4):
        image = curve_frobenius(k, c)
        for mp in range(1, image.order + 1):
            want = log.coefficient(k * mp) * Fraction(1, mp)
            assert image.eta.coefficient(mp) == want


def test_frobenius_matrix_examples():
    assert frobenius_matrix_1d(multiplicative_logarithm(4), 1) == 1
    hesse = family_logarithm("hesse-cubic", 4)
    assert frobenius_matrix_1d(hesse, 4) == 1 + 6 * X**3
    quintic = family_logarithm("quintic-cy3", 6)
    assert frobenius_matrix_1d(quintic, 6) == 1 - 120 * X**5
    with pytest.raises(ValueError):
        frobenius_matrix_1d(hesse, 9)


def test_frobenius_matrix_matches_stored_for_all_builtins():
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        log = family_logarithm(family, 8)
        for k in range(1, 9):
            assert frobenius_matrix_1d(log, k) == log.coefficient(k)


# -- operator relations on curves ---------------------------------------------------


def rand_curve(rng, log, order):
    gamma = TruncatedSeries(
        "t", [0] + [rng.randrange(-3, 4) for _ in range(order)], order
    )
    return Curve.from_gamma(log, gamma)


def test_curve_relations_random():
    rng = random.Random(41)
    log = multiplicative_logarithm(16)
    for _ in range(10):
        c = rand_curve(rng, log, 16)
        for k in (2, 3, 5):
            # F_k V_k = k
            fv = curve_frobenius(k, curve_verschiebung(k, c))
            order = fv.order
            k_fold = c
            for _ in range(k - 1):
                k_fold = fg_add(k_fold, c)
            assert fv.eta == Curve(log, k_fold.eta.truncate(order)).eta
        for j, k in ((2, 3), (3, 5), (2, 5)):
            assert gcd(j, k) == 1
            lhs = curve_frobenius(k, curve_verschiebung(j, c))
            rhs = curve_verschiebung(j, curve_frobenius(k, c))
            order = min(lhs.order, rhs.order)
            assert lhs.eta.truncate(order) == rhs.eta.truncate(order)
        for j, k in ((2, 2), (2, 3), (4, 2)):
            lhs = curve_frobenius(j, curve_frobenius(k, c))
            rhs = curve_frobenius(j * k, c)
            assert lhs == rhs
            lhs = curve_verschiebung(j, curve_verschiebung(k, c))
            rhs = curve_verschiebung(j * k, c)
            order = min(lhs.order, rhs.order)
            assert lhs.eta.truncate(order) == rhs.eta.truncate(order)
        for a, b in ((2, 3), (-1, 4)):
            assert curve_scale(a, curve_scale(b, c)) == curve_scale(a * b, c)


# -- the Witt identification ----------------------------------------------------------


def test_bridge_examples():
    log = multiplicative_logarithm(6)
    a = SparsePolynomial.variable("a")
    lin = Curve.from_gamma(log, TruncatedSeries("t", [0, a], 3))
    assert witt_cartier_bridge(lin) == teichmueller(a, 3)
    c = canonical_curve(log, 3)
    doubled = fg_add(c, c)
    assert witt_cartier_bridge(doubled).coords == (2, -1, -2)
    zero = Curve(log, TruncatedSeries.zero("t", 4))
    assert witt_cartier_bridge(zero) == WittVector.zero(4)


def test_bridge_requires_multiplicative_law():
    with pytest.raises(AmbientMismatchError):
        witt_cartier_bridge(canonical_curve(Logarithm([1] + [0] * 3), 4))


def test_bridge_intertwines_operators():
    rng = random.Random(43)
    log = multiplicative_logarithm(12)
    for _ in range(10):
        n = rng.randrange(2, 13)
        c1, c2 = rand_curve(rng, log, n), rand_curve(rng, log, n)
        w1, w2 = witt_cartier_bridge(c1), witt_cartier_bridge(c2)
        assert witt_cartier_bridge(fg_add(c1, c2)) == witt_add(w1, w2)
        a = rng.randrange(-4, 5)
        assert witt_cartier_bridge(curve_scale(a, c1)) == witt_mul(
            teichmueller(a, n), w1
        )
        for k in (2, 3):
            vk = witt_cartier_bridge(curve_verschiebung(k, c1))
            want = witt_verschiebung(k, w1, length=vk.length)
            assert vk == want
            if n // k >= 1:
                fk = witt_cartier_bridge(curve_frobenius(k, c1))
                assert fk == witt_frobenius(k, w1)


def _bridge_by_reversion(c):
    """The bridge as the series (1 - gamma)^(-1), gamma recovered by reversion."""
    gamma = c.gamma()
    one_minus = TruncatedSeries.constant(1, gamma.variable, gamma.order) - gamma
    return WittVector.from_series(one_minus.inverse())


def test_bridge_matches_reversion_reference():
    order = 16
    log = multiplicative_logarithm(order)
    # the first curves acceptance 8 draws, with every operator it applies
    rng = random.Random(20240008)
    curves = []
    for _ in range(5):
        c1, c2 = (
            Curve.from_gamma(
                log, TruncatedSeries("t", [0] + [rng.randrange(-3, 4) for _ in range(order)], order)
            )
            for _ in range(2)
        )
        a, k = rng.randrange(-5, 6), rng.choice((2, 3, 4, 5))
        curves += [c1, c2, fg_add(c1, c2), curve_scale(a, c1)]
        curves += [curve_verschiebung(k, c1), curve_frobenius(k, c1)]
    # random integral curves at truncation 16, sparse and dense, and over Z[x]
    rng = random.Random(16)
    for _ in range(20):
        coeffs = [0] + [rng.randrange(-9, 10) if rng.random() < 0.5 else 0 for _ in range(order)]
        curves.append(Curve.from_gamma(log, TruncatedSeries("t", coeffs, order)))
    for n in range(2, 6):
        coeffs = [0] + [rng.randrange(-2, 3) * X + rng.randrange(-2, 3) for _ in range(n)]
        curves.append(Curve.from_gamma(multiplicative_logarithm(n), TruncatedSeries("t", coeffs, n)))
    for c in curves:
        got, want = witt_cartier_bridge(c), _bridge_by_reversion(c)
        assert got == want
        assert [type(a) for a in got.coords] == [type(a) for a in want.coords]
