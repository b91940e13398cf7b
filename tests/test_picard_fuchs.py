import random
from fractions import Fraction
from math import comb, factorial

import pytest

from wittkit.families import FAMILY_IDS, builtin_family, closed_form_logarithm
from wittkit.formal_groups import Logarithm
from wittkit.picard_fuchs import (
    ThetaOperator,
    expand_operator,
    pf_congruence_check,
    series_solution_check,
)
from wittkit.polynomials import SparsePolynomial, VariableMismatchError, format_value, x_polynomial, x_terms
from wittkit.series import TruncatedSeries

from conftest import coefficient_of

X = SparsePolynomial.variable("x")
ZERO = SparsePolynomial.zero(("x",))
ONE = SparsePolynomial.constant(1, ("x",))
QUINTIC = builtin_family("quintic-cy3")


def printed_quintic_operator():
    """theta^4 - 5^5 x^5 (theta+1)(theta+2)(theta+3)(theta+4), as printed."""
    return expand_operator([(1, 0, (0, 0, 0, 0)), (-(5**5), 5, (1, 2, 3, 4))])


def printed_quintic_period(order):
    """sum_j (5j)!/(j!)^5 x^(5j), as printed, truncated at ``order``."""
    coeffs = [0] * (order + 1)
    for j in range(order // 5 + 1):
        coeffs[5 * j] = factorial(5 * j) // factorial(j) ** 5
    return TruncatedSeries("x", coeffs, order)


# -- normal form ----------------------------------------------------------------


def test_expand_theta_squared():
    L = expand_operator([(1, 0, (0, 0))])
    assert L.coefficients == (ZERO, ZERO, ONE)
    assert L.order == 2


def test_expand_x_theta():
    L = expand_operator([(1, 1, (0,))])
    assert L.coefficients == (ZERO, X)


def test_expand_shifted_quartic():
    # x^5 (theta+1)(theta+2)(theta+3)(theta+4)
    #   = x^5 (theta^4 + 10 theta^3 + 35 theta^2 + 50 theta + 24)
    L = expand_operator([(1, 5, (1, 2, 3, 4))])
    assert L.coefficients == (24 * X**5, 50 * X**5, 35 * X**5, 10 * X**5, X**5)


def test_quintic_operator_normal_form():
    L = QUINTIC.picard_fuchs
    assert L.order == 4
    assert L.coefficients[0] == -75000 * X**5
    assert L.coefficients[4] == 1 - 3125 * X**5
    assert repr(L) == (
        "ThetaOperator(coefficients=(SparsePolynomial(('x',), {(5,): -75000}), "
        "SparsePolynomial(('x',), {(5,): -156250}), SparsePolynomial(('x',), {(5,): -109375}), "
        "SparsePolynomial(('x',), {(5,): -31250}), SparsePolynomial(('x',), {(0,): 1, (5,): -3125})))"
    )
    rebuilt = printed_quintic_operator()
    assert rebuilt == L and hash(rebuilt) == hash(L)
    assert ThetaOperator((L.coefficients[0] + 1, *L.coefficients[1:])) != L


def test_leading_coefficient_must_be_nonzero():
    with pytest.raises(ValueError):
        ThetaOperator((ONE, ZERO))


# -- application -------------------------------------------------------------------


def test_monomials_are_eigenvectors():
    L = expand_operator([(1, 0, (0, 0, 0, 0))])  # theta^4
    for n in (0, 1, 2, 5):
        assert L.apply(X**n) == n**4 * X**n


def test_quintic_on_constants():
    L = QUINTIC.picard_fuchs
    assert L.apply(ONE) == -75000 * X**5
    # the same value reduced mod 2 vanishes
    assert L.apply(ONE).reduce_mod(2) == ZERO


def test_apply_to_series_keeps_truncation():
    L = QUINTIC.picard_fuchs
    f = TruncatedSeries("x", [1] + [0] * 9, 9)
    image = L.apply(f)
    assert image.order == 9
    assert image.coefficient(5) == -75000
    # the polynomial rule agrees with the series rule, coefficient by coefficient
    order = 45
    log = closed_form_logarithm("quintic-cy3", 40)
    for k in range(1, 41):
        a_k = log.coefficient(k)
        dense = [coefficient_of(a_k, {"x": e}) for e in range(order + 1)]
        from_series = L.apply(TruncatedSeries("x", dense, order))
        from_poly = L.apply(a_k)
        assert max((e for (e,) in from_poly.terms), default=0) <= order
        for e in range(order + 1):
            assert coefficient_of(from_poly, {"x": e}) == from_series.coefficient(e)


def test_apply_is_linear():
    L = QUINTIC.picard_fuchs
    rng = random.Random(3)
    for _ in range(10):
        f = SparsePolynomial(("x",), {(rng.randrange(6),): rng.randrange(-9, 10)})
        g = SparsePolynomial(("x",), {(rng.randrange(6),): rng.randrange(-9, 10)})
        c = rng.randrange(-5, 6)
        assert L.apply(f + g) == L.apply(f) + L.apply(g)
        assert L.apply(c * f) == c * L.apply(f)


def test_apply_to_a_dict_equals_apply_to_the_polynomial():
    """An ``{x exponent: coefficient}`` dict maps to the dict of the polynomial's image, zeros aside,
    for int and Fraction operators and inputs."""
    rng = random.Random(5)
    operators = [builtin_family(family).picard_fuchs for family in FAMILY_IDS]
    operators.append(ThetaOperator((SparsePolynomial(("x",), {(2,): Fraction(1, 3)}), X, ONE)))
    for L in operators:
        for trial in range(20):
            c = (lambda: Fraction(rng.randrange(-9, 10), 2)) if trial % 4 == 3 else (lambda: rng.randrange(-50, 51))
            f = SparsePolynomial(("x",), {(rng.randrange(30),): c() for _ in range(5)})
            image = L.apply(x_terms(f))
            assert type(image) is dict
            assert x_polynomial(("x",), image) == L.apply(f)
            assert {n: c for n, c in image.items() if c} == x_terms(L.apply(f))


def _held(L):
    """Everything an operator holds, slot by slot."""
    return {name: getattr(L, name) for name in ThetaOperator.__slots__}


def test_eigenvalue_table_lives_one_check():
    """A check fills eigenvalue tables of its own, so the operator it is given gains none, and gives
    the catalog operator's verdicts; an apply's tables are its own too."""
    L = ThetaOperator(QUINTIC.picard_fuchs.coefficients)
    fresh = _held(ThetaOperator(L.coefficients))
    assert pf_congruence_check(L, QUINTIC.closed_forms(60), 60) == pf_congruence_check(
        QUINTIC.picard_fuchs, QUINTIC.closed_forms(60), 60)
    series_solution_check(L, QUINTIC.period(40), 40)
    assert _held(L) == fresh
    assert L.apply({5: 1, 10: 2}) == L.apply({5: 1, 10: 2})
    assert _held(L) == fresh


def test_catalog_operator_keeps_no_state():
    """A check, a solution check and an apply leave the catalog's module-global operator holding
    exactly what a freshly built one holds: no eigenvalue P_d(n) outlives its call."""
    L = builtin_family("quintic-cy3").picard_fuchs
    pf_congruence_check(L, QUINTIC.closed_forms(60), 60)
    series_solution_check(L, QUINTIC.period(40), 40)
    L.apply({n: n % 7 - 3 for n in range(1000)})
    assert builtin_family("quintic-cy3").picard_fuchs is L
    assert _held(L) == _held(ThetaOperator(L.coefficients))


def _theta_power_image(L, f):
    """sum_k q_k * theta^k f by the kernel's + and *: the reference for ``apply``."""
    image = ZERO
    for k, q in enumerate(L.coefficients):
        image = image + q * SparsePolynomial(("x",), {(n,): c * n**k for (n,), c in f.terms.items()})
    return image


def _random_scalar(rng, fractions):
    c = rng.randint(-2, 2)  # small, so that sums cancel often
    return Fraction(c, rng.choice((1, 2, 3))) if fractions and rng.random() < 0.5 else c


def _typed(values):
    return [(c, type(c)) for c in values]


def _typed_terms(poly):
    return [(e, c, type(c)) for e, c in poly.sorted_terms()]


def test_apply_matches_theta_power_reference():
    """apply against sum_k q_k theta^k f: values and coefficient types, int and Fraction operators
    and inputs, polynomials and truncated series, zero sums included."""
    rng = random.Random(35)

    def poly(fractions, degree):
        return SparsePolynomial(("x",), {(e,): _random_scalar(rng, fractions) for e in range(degree + 1)
                                         if rng.random() < 0.6})

    for fractional_operator, fractional_input in [(False, False), (False, True), (True, False), (True, True)]:
        for _ in range(150):
            lead = ZERO
            while not lead.terms:
                lead = poly(fractional_operator, 3)
            L = ThetaOperator((*(poly(fractional_operator, 3) for _ in range(rng.randint(0, 4))), lead))
            f = poly(fractional_input, 6)
            want = _theta_power_image(L, f)
            got = L.apply(f)
            assert _typed_terms(got) == _typed_terms(want), (L, f)
            order = rng.randint(0, 9)
            image = L.apply(TruncatedSeries("x", [coefficient_of(f, {"x": n}) for n in range(order + 1)], order))
            truncated = SparsePolynomial(("x",), {e: c for e, c in f.terms.items() if e[0] <= order})
            want = _theta_power_image(L, truncated)
            assert image.order == order
            assert _typed(image.coefficients) == _typed(coefficient_of(want, {"x": n}) for n in range(order + 1))
    # (theta - 2) x^2 = 0, so only x/2 is left
    assert expand_operator([(1, 0, (-2,))]).apply(X**2 + Fraction(1, 2) * X).terms == {(1,): Fraction(-1, 2)}
    # at x^2 the theta^0 and theta^1 parts cancel to Fraction(0), so the theta^2 part alone sets the type
    L = ThetaOperator((1 + 2 * X + X**3, X**2 - 1, 2 * ONE))
    f = SparsePolynomial(("x",), {(1,): Fraction(-1), (2,): -2, (4,): Fraction(-1, 3), (5,): 1})
    assert _typed([L.apply(f).terms[(2,)]]) == [(-16, int)]


def _shifted(L, n):
    """L with theta replaced by theta + n, so L(x^n g) = x^n * _shifted(L, n)(g)."""
    shifted = [ZERO] * len(L.coefficients)
    for k, q in enumerate(L.coefficients):
        for j in range(k + 1):
            shifted[j] = shifted[j] + q * (comb(k, j) * n ** (k - j))
    while len(shifted) > 1 and not shifted[-1].terms:
        shifted.pop()
    return ThetaOperator(tuple(shifted))


def test_commutation_rule():
    # L(x^n g) = x^n * (L with theta -> theta+n)(g)
    L = QUINTIC.picard_fuchs
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(1, 5)
        g = SparsePolynomial(
            ("x",),
            {(rng.randrange(10),): rng.randrange(-9, 10) for _ in range(3)},
        )
        lhs = L.apply(X**n * g)
        rhs = X**n * _shifted(L, n).apply(g)
        assert lhs == rhs


# -- congruence checks ----------------------------------------------------------------


def test_congruence_trivial_and_small():
    L = QUINTIC.picard_fuchs
    log = closed_form_logarithm("quintic-cy3", 6)
    results = pf_congruence_check(L, log.coefficient, 6)
    assert all(r.passed for r in results)
    assert results[0].k == 1  # everything is 0 mod 1


def test_congruence_residual_on_failure():
    # theta alone does not annihilate the quintic coefficients:
    # theta(a_7) = -3600 x^5 and -3600 = 5 mod 7
    L = expand_operator([(1, 0, (0,))])
    log = closed_form_logarithm("quintic-cy3", 7)
    results = pf_congruence_check(L, log.coefficient, 7)
    assert results[5].passed  # k = 6: theta(1 - 120 x^5) = -600 x^5 = 0 mod 6
    assert not results[6].passed
    assert results[6].residual == 5 * X**5


def test_congruence_reports_a_changed_coefficient():
    """a_k + 1 adds L(1) = q_0 = -75000 x^5 to L a_k, so k fails unless k
    divides 75000; every residual is L a_k over Z reduced mod k."""
    L = QUINTIC.picard_fuchs
    assert L.apply(ONE) == -75000 * X**5
    coeffs = list(closed_form_logarithm("quintic-cy3", 60).coeffs)
    for k in range(2, 61):
        changed = coeffs[:k - 1] + [coeffs[k - 1] + 1]
        results = pf_congruence_check(L, Logarithm(changed).coefficient, k)
        assert [r.k for r in results if not r.passed] == ([k] if 75000 % k else [])
        for r, a in zip(results, changed):
            reference = L.apply(a).reduce_mod(r.k)
            assert r.residual == (reference if reference.terms else None)


#: The failing k and each residual's text for the quintic operator with x^5 theta's coefficient raised by 1, k <= 60.
CHANGED_OPERATOR_RESIDUALS = {
    7: "5*x^10", 9: "6*x^10", 11: "6*x^10+10*x^15", 13: "2*x^10+10*x^15", 14: "12*x^10", 16: "8*x^10",
    17: "5*x^10+15*x^15+7*x^20", 18: "6*x^10", 19: "11*x^10+4*x^15+10*x^20", 21: "12*x^10",
    22: "6*x^10+10*x^15", 23: "2*x^10+8*x^15+14*x^20+13*x^25", 26: "2*x^10+10*x^15", 27: "6*x^10+18*x^20",
    28: "12*x^10", 29: "20*x^10+13*x^15+8*x^20+8*x^25+x^30",
    31: "11*x^10+20*x^15+28*x^20+2*x^25+14*x^30+25*x^35", 32: "24*x^10+16*x^15", 33: "6*x^10+21*x^15",
    34: "22*x^10+32*x^15+24*x^20", 35: "5*x^10", 36: "24*x^10",
    37: "8*x^10+24*x^15+8*x^20+29*x^25+28*x^30+3*x^35+16*x^40", 38: "30*x^10+4*x^15+10*x^20",
    39: "15*x^10+36*x^15", 41: "26*x^10+22*x^15+2*x^20+7*x^25+38*x^30+37*x^35+28*x^40+38*x^45",
    42: "12*x^10+30*x^45", 43: "41*x^10+4*x^15+35*x^20+13*x^25+7*x^30+26*x^35+41*x^40+42*x^45",
    44: "28*x^10+32*x^15", 45: "15*x^10", 46: "2*x^10+8*x^15+14*x^20+36*x^25",
    47: "36*x^10+31*x^15+14*x^20+28*x^25+25*x^30+34*x^35+40*x^40+24*x^45+37*x^50", 48: "24*x^10",
    49: "12*x^10+42*x^15+35*x^40+19*x^45+7*x^50", 51: "39*x^10+15*x^15+24*x^20", 52: "28*x^10+36*x^15",
    53: "17*x^10+12*x^15+52*x^20+42*x^25+31*x^30+30*x^35+24*x^40+31*x^45+37*x^50+42*x^55",
    54: "6*x^10+18*x^20+36*x^55", 55: "50*x^10+10*x^15", 56: "40*x^10", 57: "30*x^10+42*x^15+48*x^20",
    58: "20*x^10+42*x^15+8*x^20+8*x^25+30*x^30",
    59: "10*x^10+20*x^15+16*x^20+56*x^25+24*x^30+29*x^35+34*x^40+56*x^45+34*x^50+37*x^55+30*x^60",
}


def test_changed_operator_residuals_pinned():
    """L with one coefficient raised by 1 fails where L a_k + x^5 theta a_k is nonzero mod k, and each
    residual prints as pinned."""
    q = list(QUINTIC.picard_fuchs.coefficients)
    q[1] = q[1] + X**5
    results = pf_congruence_check(ThetaOperator(tuple(q)), closed_form_logarithm("quintic-cy3", 60).coefficient, 60)
    assert [r.k for r in results] == list(range(1, 61))
    assert {r.k: format_value(r.residual) for r in results if not r.passed} == CHANGED_OPERATOR_RESIDUALS
    assert all(r.residual is None for r in results if r.passed)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_rule_and_walk_give_equal_checks(family):
    """pf-check reads a_k from a rule k -> a_k or from the walk a_1, a_2, ...: equal verdicts and
    residuals for k <= 300 with the family's operator, and for k <= 60 with theta alone, which fails."""
    entry = builtin_family(family)
    rule = closed_form_logarithm(family, 300).coefficient
    for L, k_max in ((entry.picard_fuchs, 300), (expand_operator([(1, 0, (0,))]), 60)):
        walked = pf_congruence_check(L, entry.closed_forms(k_max), k_max)
        assert walked == pf_congruence_check(L, rule, k_max)
        assert [r.k for r in walked] == list(range(1, k_max + 1))
    assert not all(r.passed for r in walked)


def test_a_short_walk_is_refused():
    with pytest.raises(ValueError, match=r"the coefficients end at a_4, before k_max = 10"):
        pf_congruence_check(QUINTIC.picard_fuchs, QUINTIC.closed_forms(4), 10)
    with pytest.raises(ValueError, match=r"the coefficients end at a_0, before k_max = 1"):
        pf_congruence_check(QUINTIC.picard_fuchs, [], 1)
    assert len(pf_congruence_check(QUINTIC.picard_fuchs, [1, ONE, {0: 1}], 3)) == 3


def test_congruence_reads_a_constant_in_another_variable_as_a_constant():
    """The residue reader both congruences share reads a constant polynomial in y as that constant in x;
    a y that is not constant is refused."""
    y = SparsePolynomial.variable("y")
    threes = [SparsePolynomial.constant(3, ("y",)), 3 + 0 * y, ONE * 3, 3, {0: 3}]
    checks = [pf_congruence_check(QUINTIC.picard_fuchs, [1] * 6 + [a], 7) for a in threes]
    assert checks[1:] == checks[:-1] and checks[0][6].residual == X**5  # -5^5 * 4! * 3 x^5 = x^5 mod 7
    with pytest.raises(VariableMismatchError, match=r"expected a polynomial in 'x', got \('y',\)"):
        pf_congruence_check(QUINTIC.picard_fuchs, [1, y], 2)


def test_congruence_needs_an_operator_over_z():
    half = ThetaOperator((SparsePolynomial(("x",), {(5,): Fraction(1, 2)}), ONE))
    log = closed_form_logarithm("quintic-cy3", 3)
    with pytest.raises(ValueError, match="needs an operator over Z"):
        pf_congruence_check(half, log.coefficient, 3)
    whole = ThetaOperator((SparsePolynomial(("x",), {(5,): Fraction(4, 2)}), ONE))
    assert pf_congruence_check(whole, log.coefficient, 3) == pf_congruence_check(
        expand_operator([(2, 5, ()), (1, 0, (0,))]), log.coefficient, 3
    )


def test_congruence_applies_an_operator_over_ints_through_its_table(monkeypatch):
    """Over ints each k's residues are ints, so the check applies L through the eigenvalue table with no
    dispatch or scan per k; an operator integral but not over ints keeps ``apply`` and its results, types too."""
    log = closed_form_logarithm("quintic-cy3", 40)
    whole = ThetaOperator(tuple(q.map_coefficients(Fraction) for q in QUINTIC.picard_fuchs.coefficients))
    q = list(whole.coefficients)
    q[1] = q[1] + X**5  # fails, so residuals are printed
    whole_failing = ThetaOperator(tuple(q))

    def by_apply(L, k_max):  # the generic path: apply to the residues mod k, then reduce the image mod k
        rows = []
        for k in range(1, k_max + 1):
            residues = {n: r for n, c in x_terms(log.coefficient(k)).items() if (r := c % k)}
            residual = {n: r for n, c in L.apply(residues).items() if (r := c % k)}
            rows.append((k, not residual, _typed(residual.values())))
        return rows

    expected = [by_apply(L, 40) for L in (whole, whole_failing)]
    assert not all(passed for _, passed, _ in expected[1])
    over_ints = pf_congruence_check(QUINTIC.picard_fuchs, log.coefficient, 40)
    monkeypatch.setattr(ThetaOperator, "_apply_terms", lambda *args: pytest.fail("dispatched per k"))
    assert pf_congruence_check(QUINTIC.picard_fuchs, log.coefficient, 40) == over_ints
    monkeypatch.undo()
    for L, rows in zip((whole, whole_failing), expected):
        results = pf_congruence_check(L, log.coefficient, 40)
        assert [(r.k, r.passed, _typed(x_terms(r.residual).values()) if r.residual else []) for r in results] == rows


def test_congruence_requires_enough_coefficients():
    L = QUINTIC.picard_fuchs
    log = closed_form_logarithm("quintic-cy3", 4)
    with pytest.raises(ValueError):
        pf_congruence_check(L, log.coefficient, 10)


# -- solution check ---------------------------------------------------------------------


def test_theta_kills_constants():
    L = expand_operator([(1, 0, (0,))])
    f = TruncatedSeries("x", [1], 5)
    assert series_solution_check(L, f, 5).passed


def test_quintic_period_is_annihilated():
    L = QUINTIC.picard_fuchs
    f = QUINTIC.period(40)
    got = series_solution_check(L, f, 40)
    assert got.passed


def test_perturbed_period_fails_at_perturbed_order():
    L = QUINTIC.picard_fuchs
    f = QUINTIC.period(40)
    coeffs = list(f.coefficients)
    coeffs[10] += 1
    bad = TruncatedSeries("x", coeffs, 40)
    got = series_solution_check(L, bad, 40)
    assert not got.passed
    assert got.first_failure == 10
    assert got.residual != 0


def test_solution_check_needs_enough_series():
    L = QUINTIC.picard_fuchs
    f = QUINTIC.period(20)
    with pytest.raises(ValueError):
        series_solution_check(L, f, 30)


def test_solution_check_refuses_a_negative_order():
    # through x^-1 no coefficient is checked: that is no pass
    L = QUINTIC.picard_fuchs
    f = QUINTIC.period(5)
    with pytest.raises(ValueError, match="negative order -1"):
        series_solution_check(L, f, -1)
    assert series_solution_check(L, f, 0).checked_through == 0


# -- the catalog's operators ------------------------------------------------------------


def test_quintic_period_is_the_printed_series():
    for order in (0, 4, 5, 60):
        assert QUINTIC.period(order) == printed_quintic_period(order)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_catalog_operator_annihilates_coefficients_and_period(family):
    """L a_k = 0 mod k for every k <= 200, and L kills the period through x^60."""
    entry = builtin_family(family)
    results = pf_congruence_check(entry.picard_fuchs, closed_form_logarithm(family, 200).coefficient, 200)
    assert [r.k for r in results if not r.passed] == []
    assert series_solution_check(entry.picard_fuchs, entry.period(60), 60).passed


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_operator_singularity_is_a_declared_singular_rule(family):
    """The leading theta-coefficient 1 - eps n^n x^n vanishes on the locus
    declared by hand: (eps n^n, n) is one of the entry's singular rules."""
    entry = builtin_family(family)
    n = entry.family.ambient_dim + 1
    L = entry.picard_fuchs
    assert L.order == n - 1
    c = -coefficient_of(L.coefficients[-1], {"x": n})
    assert L.coefficients[-1] == 1 - c * X**n
    assert (c, n) in entry.singular_rules
