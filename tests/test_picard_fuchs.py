import random
from fractions import Fraction

import pytest

from wittkit.families import closed_form_logarithm
from wittkit.formal_groups import Logarithm
from wittkit.picard_fuchs import (
    ThetaOperator,
    expand_operator,
    pf_congruence_check,
    quintic_fundamental_period,
    quintic_picard_fuchs,
    series_solution_check,
)
from wittkit.polynomials import SparsePolynomial
from wittkit.series import TruncatedSeries

X = SparsePolynomial.variable("x")
ZERO = SparsePolynomial.zero(("x",))
ONE = SparsePolynomial.constant(1, ("x",))


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
    L = quintic_picard_fuchs()
    assert L.order == 4
    assert L.coefficients[0] == -75000 * X**5
    assert L.coefficients[4] == 1 - 3125 * X**5


def test_leading_coefficient_must_be_nonzero():
    with pytest.raises(ValueError):
        ThetaOperator((ONE, ZERO))


# -- application -------------------------------------------------------------------


def test_monomials_are_eigenvectors():
    L = expand_operator([(1, 0, (0, 0, 0, 0))])  # theta^4
    for n in (0, 1, 2, 5):
        assert L.apply(X**n) == n**4 * X**n


def test_quintic_on_constants():
    L = quintic_picard_fuchs()
    assert L.apply(ONE) == -75000 * X**5
    # the same value reduced mod 2 vanishes
    assert L.apply(ONE).reduce_mod(2) == ZERO


def test_apply_to_series_keeps_truncation():
    L = quintic_picard_fuchs()
    f = TruncatedSeries("x", [1] + [0] * 9, 9)
    image = L.apply(f)
    assert image.order == 9
    assert image.coefficient(5) == -75000
    # the polynomial rule agrees with the series rule, coefficient by coefficient
    order = 45
    log = closed_form_logarithm("quintic-cy3", 40)
    for k in range(1, 41):
        a_k = log.coefficient(k)
        dense = [a_k.coefficient_of({"x": e}) for e in range(order + 1)]
        from_series = L.apply(TruncatedSeries("x", dense, order))
        from_poly = L.apply(a_k)
        assert from_poly.degree_in("x") <= order
        for e in range(order + 1):
            assert from_poly.coefficient_of({"x": e}) == from_series.coefficient(e)


def test_apply_is_linear():
    L = quintic_picard_fuchs()
    rng = random.Random(3)
    for _ in range(10):
        f = SparsePolynomial(("x",), {(rng.randrange(6),): rng.randrange(-9, 10)})
        g = SparsePolynomial(("x",), {(rng.randrange(6),): rng.randrange(-9, 10)})
        c = rng.randrange(-5, 6)
        assert L.apply(f + g) == L.apply(f) + L.apply(g)
        assert L.apply(c * f) == c * L.apply(f)


def test_commutation_rule():
    # L(x^n g) = x^n * (L with theta -> theta+n)(g)
    L = quintic_picard_fuchs()
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(1, 5)
        g = SparsePolynomial(
            ("x",),
            {(rng.randrange(10),): rng.randrange(-9, 10) for _ in range(3)},
        )
        lhs = L.apply(X**n * g)
        rhs = X**n * L.shifted(n).apply(g)
        assert lhs == rhs


# -- congruence checks ----------------------------------------------------------------


def test_congruence_trivial_and_small():
    L = quintic_picard_fuchs()
    log = closed_form_logarithm("quintic-cy3", 6)
    results = pf_congruence_check(L, log, 6)
    assert all(r.passed for r in results)
    assert results[0].k == 1  # everything is 0 mod 1


def test_congruence_residual_on_failure():
    # theta alone does not annihilate the quintic coefficients:
    # theta(a_7) = -3600 x^5 and -3600 = 5 mod 7
    L = expand_operator([(1, 0, (0,))])
    log = closed_form_logarithm("quintic-cy3", 7)
    results = pf_congruence_check(L, log, 7)
    assert results[5].passed  # k = 6: theta(1 - 120 x^5) = -600 x^5 = 0 mod 6
    assert not results[6].passed
    assert results[6].residual == 5 * X**5


def test_congruence_reports_a_changed_coefficient():
    """a_k + 1 adds L(1) = q_0 = -75000 x^5 to L a_k, so k fails unless k
    divides 75000; every residual is L a_k over Z reduced mod k."""
    L = quintic_picard_fuchs()
    assert L.apply(ONE) == -75000 * X**5
    coeffs = list(closed_form_logarithm("quintic-cy3", 60).coeffs)
    for k in range(2, 61):
        changed = coeffs[:k - 1] + [coeffs[k - 1] + 1]
        results = pf_congruence_check(L, Logarithm("Z[x]", changed), k)
        assert [r.k for r in results if not r.passed] == ([k] if 75000 % k else [])
        for r, a in zip(results, changed):
            reference = L.apply(a).reduce_mod(r.k)
            assert r.residual == (reference if reference.terms else None)


def test_congruence_needs_an_operator_over_z():
    half = ThetaOperator((SparsePolynomial(("x",), {(5,): Fraction(1, 2)}), ONE))
    log = closed_form_logarithm("quintic-cy3", 3)
    with pytest.raises(ValueError, match="needs an operator over Z"):
        pf_congruence_check(half, log, 3)
    whole = ThetaOperator((SparsePolynomial(("x",), {(5,): Fraction(4, 2)}), ONE))
    assert pf_congruence_check(whole, log, 3) == pf_congruence_check(
        expand_operator([(2, 5, ()), (1, 0, (0,))]), log, 3
    )


def test_congruence_requires_enough_coefficients():
    L = quintic_picard_fuchs()
    log = closed_form_logarithm("quintic-cy3", 4)
    with pytest.raises(ValueError):
        pf_congruence_check(L, log, 10)


# -- solution check ---------------------------------------------------------------------


def test_theta_kills_constants():
    L = expand_operator([(1, 0, (0,))])
    f = TruncatedSeries("x", [1], 5)
    assert series_solution_check(L, f, 5).passed


def test_quintic_period_is_annihilated():
    L = quintic_picard_fuchs()
    f = quintic_fundamental_period(40)
    got = series_solution_check(L, f, 40)
    assert got.passed


def test_perturbed_period_fails_at_perturbed_order():
    L = quintic_picard_fuchs()
    f = quintic_fundamental_period(40)
    coeffs = list(f.coefficients)
    coeffs[10] += 1
    bad = TruncatedSeries("x", coeffs, 40)
    got = series_solution_check(L, bad, 40)
    assert not got.passed
    assert got.first_failure == 10
    assert got.residual != 0


def test_solution_check_needs_enough_series():
    L = quintic_picard_fuchs()
    f = quintic_fundamental_period(20)
    with pytest.raises(ValueError):
        series_solution_check(L, f, 30)


def test_solution_check_refuses_a_negative_order():
    # through x^-1 no coefficient is checked: that is no pass
    L = quintic_picard_fuchs()
    f = quintic_fundamental_period(5)
    with pytest.raises(ValueError, match="negative order -1"):
        series_solution_check(L, f, -1)
    assert series_solution_check(L, f, 0).checked_through == 0
