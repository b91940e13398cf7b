from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.polynomials import SparsePolynomial
from wittkit.series import (
    MultiTruncatedSeries,
    TruncatedSeries,
    TruncationError,
    substitute_univariate,
)


def S(coeffs, order=None):
    return TruncatedSeries("t", coeffs, order)


# -- truncation discipline ----------------------------------------------------


def test_orders_are_explicit_data():
    s = S([1, 2, 3])
    assert s.order == 2
    with pytest.raises(TruncationError):
        s.coefficient(3)


def test_mixing_takes_minimum_order():
    a = S([1, 1, 1, 1])
    b = S([1, 2], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_too_many_coefficients_rejected():
    with pytest.raises(TruncationError):
        S([1, 2, 3], 1)


# -- inverse -------------------------------------------------------------------


def test_inverse_geometric():
    assert S([1, -1], 3).inverse().coefficients == (1, 1, 1, 1)


def test_inverse_geometric_symbolic():
    a = SparsePolynomial.variable("a")
    inv = S([1, -a], 2).inverse()
    assert inv.coefficients[0] == 1
    assert inv.coefficients[1] == a
    assert inv.coefficients[2] == a * a


def test_inverse_partition_convolution():
    # (1-t)(1-t^2) inverted counts partitions into parts of size 1 and 2
    prod = S([1, -1], 4) * S([1, 0, -1], 4)
    inv = prod.inverse()

    def partitions_into_1_2(n):
        return sum(1 for twos in range(n // 2 + 1) if (n - 2 * twos) >= 0)

    want = tuple(partitions_into_1_2(n) for n in range(5))
    assert inv.coefficients == want == (1, 1, 2, 2, 3)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        S([2, 1], 2).inverse()


# -- compose -------------------------------------------------------------------


def test_compose_identity_outer():
    s = S([0, 5, -2, 7])
    assert S([0, 1], 3).compose(s) == s


def test_compose_square():
    outer = S([0, 0, 1], 4)  # t^2
    inner = S([0, 1, 1], 4)  # t + t^2
    assert outer.compose(inner).coefficients == (0, 0, 1, 2, 1)


def test_compose_monomial_substitution():
    outer = S([0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
    inner = S([0, 0, 1], 4)  # t^2
    got = outer.compose(inner)
    assert got.coefficients == (0, 0, 1, 0, Fraction(1, 2))


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        S([0, 1, 1]).compose(S([1, 1, 0]))


# -- reversion -----------------------------------------------------------------


def test_reversion_identity():
    t = S([0, 1], 5)
    assert t.reversion() == t


def test_reversion_of_logarithm_series():
    # reversion of t + t^2/2 + t^3/3 + t^4/4 starts like 1 - exp(-u)
    ell = S([0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
    rev = ell.reversion()
    assert rev.coefficients == (0, 1, Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 24))
    assert ell.compose(rev) == S([0, 1], 4)
    # the same at order 12: 1 - exp(-u) has coefficients (-1)^(n+1)/n!
    ell = S([0] + [Fraction(1, n) for n in range(1, 13)])
    rev = ell.reversion()
    assert rev.coefficients == (0,) + tuple(
        Fraction((-1) ** (n + 1), factorial(n)) for n in range(1, 13)
    )
    assert ell.compose(rev) == S([0, 1], 12)


def test_reversion_small_example():
    rev = S([0, 1, 1], 3).reversion()
    assert rev.coefficients == (0, 1, -1, 2)
    assert S([0, 1, 1], 3).compose(rev) == S([0, 1], 3)


def test_reversion_requires_unit_slope():
    with pytest.raises(ValueError):
        S([0, 2, 1]).reversion()
    with pytest.raises(ValueError):
        S([1, 1, 1]).reversion()


# -- properties ------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


@st.composite
def unit_slope_series(draw, max_order=16):
    order = draw(st.integers(2, max_order))
    coeffs = [0, 1] + [draw(small_fractions) for _ in range(order - 1)]
    return S(coeffs, order)


@st.composite
def unit_constant_series(draw, max_order=12):
    order = draw(st.integers(1, max_order))
    coeffs = [1] + [draw(small_fractions) for _ in range(order)]
    return S(coeffs, order)


@settings(max_examples=40, deadline=None)
@given(unit_slope_series())
def test_reversion_round_trip(s):
    rev = s.reversion()
    assert s.compose(rev) == S([0, 1], s.order)
    assert rev.compose(s) == S([0, 1], s.order)
    assert rev.reversion() == s


@settings(max_examples=40, deadline=None)
@given(unit_constant_series())
def test_inverse_round_trip(s):
    assert s.inverse().inverse() == s
    assert s * s.inverse() == TruncatedSeries.constant(1, "t", s.order)


# -- multivariate ---------------------------------------------------------------


def test_multivariate_truncates_total_degree():
    t1 = MultiTruncatedSeries.variable("t1", ("t1", "t2"), 3)
    t2 = MultiTruncatedSeries.variable("t2", ("t1", "t2"), 3)
    cube = (t1 + t2) * (t1 + t2) * (t1 + t2)
    assert cube.coefficient((2, 1)) == 3
    with pytest.raises(TruncationError):
        cube.coefficient((3, 1))
    quad = (t1 + t2) * (t1 + t2) * (t1 + t2) * (t1 + t2)
    assert all(sum(e) <= 3 for e in quad.terms)


def test_substitute_univariate_matches_horner_by_hand():
    outer = S([0, 1, -1], 2)  # t - t^2
    t1 = MultiTruncatedSeries.variable("t1", ("t1", "t2"), 2)
    t2 = MultiTruncatedSeries.variable("t2", ("t1", "t2"), 2)
    got = substitute_univariate(outer, t1 + t2)
    assert got.coefficient((1, 0)) == 1
    assert got.coefficient((0, 1)) == 1
    assert got.coefficient((1, 1)) == -2
    assert got.coefficient((2, 0)) == -1


def test_restriction_and_swap_read_from_coefficients():
    f = MultiTruncatedSeries(("t1", "t2"), 2, {(1, 0): 1, (0, 1): 2, (1, 1): -1})
    # f(t1, 0) = t1, and f(t2, t1) = 2 t1 + t2 - t1 t2
    assert [f.coefficient((i, 0)) for i in range(3)] == [0, 1, 0]
    assert [f.coefficient((j, i)) for i, j in ((1, 0), (0, 1), (1, 1))] == [2, 1, -1]


@pytest.mark.parametrize("exps", [(1.5, 0), (-1, 2), (True, 0), ("1", 0), (1,), (1, 0, 0)],
                         ids=["float", "negative", "bool", "text", "short", "long"])
def test_multivariate_series_refuses_exponents_that_are_not_ints_from_zero(exps):
    """The two-variable reference refuses what the law's constructor refuses, rather than truncate a
    float exponent through int() or keep a negative one."""
    with pytest.raises(ValueError, match="exponent vector"):
        MultiTruncatedSeries(("a", "b"), 3, {exps: 1})
    assert MultiTruncatedSeries(("a", "b"), 3, {(1, 0): 1}) == MultiTruncatedSeries.variable("a", ("a", "b"), 3)
