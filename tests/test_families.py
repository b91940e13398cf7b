from math import comb

import pytest

from wittkit.families import (
    CompleteIntersectionFamily,
    UnknownFamilyError,
    am_coefficient,
    am_logarithm,
    builtin_family,
    closed_form_logarithm,
    family_logarithm,
    resolve_family_id,
)
from wittkit.formal_groups import group_law_from_logarithm, integrality_report
from wittkit.polynomials import SparsePolynomial, values_equal

X = SparsePolynomial.variable("x")


def test_catalog_polynomials_exact():
    hesse = builtin_family("hesse-cubic")
    assert hesse.family.ambient_dim == 2
    assert hesse.family.codimension == 1
    assert hesse.dimension == 1
    p = hesse.family.polynomials[0]
    assert p.variables == ("x", "X", "Y", "Z")
    assert p.terms == {
        (0, 1, 1, 1): 1,
        (1, 3, 0, 0): 1,
        (1, 0, 3, 0): 1,
        (1, 0, 0, 3): 1,
    }

    quartic = builtin_family("quartic-k3")
    assert quartic.dimension == 2
    q = quartic.family.polynomials[0]
    assert q.variables == ("x", "W", "X", "Y", "Z")
    assert q.terms[(0, 1, 1, 1, 1)] == 1
    assert q.terms[(1, 4, 0, 0, 0)] == 1

    quintic = builtin_family("quintic-cy3")
    assert quintic.dimension == 3
    r = quintic.family.polynomials[0]
    assert r.terms[(0, 1, 1, 1, 1, 1)] == 1
    assert r.terms[(1, 5, 0, 0, 0, 0)] == -1


def test_unknown_identifier():
    with pytest.raises(UnknownFamilyError):
        builtin_family("octic-double-solid")
    assert resolve_family_id("quintic") == "quintic-cy3"


def test_family_invariants_enforced():
    bad = SparsePolynomial(("x", "X", "Y"), {(0, 1, 1): 1})
    with pytest.raises(ValueError):
        CompleteIntersectionFamily("bad", 1, (bad,), (3,))  # not homogeneous deg 3
    with pytest.raises(ValueError):
        CompleteIntersectionFamily("bad", 2, (bad,), (2,))  # degrees don't sum to N+1


def test_first_coefficient_is_one():
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        entry = builtin_family(family)
        assert am_coefficient(entry.family, 1) == 1
        assert entry.closed_form(1) == 1


def test_extraction_examples():
    hesse = builtin_family("hesse-cubic").family
    assert am_coefficient(hesse, 4) == 1 + 6 * X**3
    quintic = builtin_family("quintic-cy3").family
    assert am_coefficient(quintic, 6) == 1 - 120 * X**5


def test_closed_form_examples():
    assert closed_form_logarithm("hesse-cubic", 5).coefficient(5) == 1 + 24 * X**3
    assert closed_form_logarithm("quintic-cy3", 2).coefficient(2) == 1
    log = closed_form_logarithm("hesse-cubic", 9)
    assert log.coefficient(9) == 1 + 336 * X**3 + 2520 * X**6
    assert closed_form_logarithm("quartic-k3", 9).coefficient(9) == (
        1 + 1680 * X**4 + 2520 * X**8
    )
    assert closed_form_logarithm("quintic-cy3", 11).coefficient(11) == (
        1 - 30240 * X**5 + 113400 * X**10
    )


def test_constant_term_always_one():
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        log = closed_form_logarithm(family, 10)
        for m in range(1, 11):
            a = log.coefficient(m)
            value = a.evaluate({"x": 0}) if isinstance(a, SparsePolynomial) else a
            assert value == 1


def test_degree_bound():
    for family, m_max in (("hesse-cubic", 9), ("quartic-k3", 8), ("quintic-cy3", 7)):
        log = family_logarithm(family, m_max)
        for m in range(1, m_max + 1):
            a = log.coefficient(m)
            if isinstance(a, SparsePolynomial):
                assert a.degree_in("x") <= m - 1


def test_extraction_equals_closed_form_small():
    # short version; the acceptance suite runs the full stated ranges
    for family, m_max in (("hesse-cubic", 7), ("quartic-k3", 6), ("quintic-cy3", 6)):
        by_extraction = family_logarithm(family, m_max, "extraction")
        by_formula = family_logarithm(family, m_max, "closed-form")
        assert by_extraction == by_formula


def test_builtin_laws_integral_smaller_degrees():
    for family, degree in (("hesse-cubic", 6), ("quartic-k3", 6), ("quintic-cy3", 6)):
        log = closed_form_logarithm(family, degree)
        law = group_law_from_logarithm(log, degree)
        assert integrality_report(law).passed


def _two_quadrics():
    # two quadrics in P^3; chosen so a_2 is computable by hand:
    # P1*P2 = (1+x^2) Z0 Z1 Z2 Z3 + x (Z0 Z1)^2 + x (Z2 Z3)^2  =>  a_2 = 1+x^2
    variables = ("x", "Z0", "Z1", "Z2", "Z3")
    p1 = SparsePolynomial(variables, {(0, 1, 1, 0, 0): 1, (1, 0, 0, 1, 1): 1})
    p2 = SparsePolynomial(variables, {(0, 0, 0, 1, 1): 1, (1, 1, 1, 0, 0): 1})
    return p1, p2, CompleteIntersectionFamily("two-quadrics", 3, (p1, p2), (2, 2))


def test_user_supplied_codimension_two_family():
    p1, p2, family = _two_quadrics()
    assert family.dimension == 1
    log = am_logarithm(family, 3)
    assert log.coefficient(1) == 1
    assert log.coefficient(2) == 1 + X**2


def _check_against_unpruned_power(family, product, m_max):
    """a_m by one pass, by am_coefficient, and from the full power of the
    product of the family's polynomials."""
    log = am_logarithm(family, m_max)
    zvars = family.coordinate_variables()
    for m in range(1, m_max + 1):
        unpruned = (product ** (m - 1)).coefficient_of({z: m - 1 for z in zvars})
        assert log.coefficient(m) == am_coefficient(family, m) == unpruned, m
    return log


def test_codimension_two_extraction_against_unpruned_power():
    p1, p2, family = _two_quadrics()
    log = _check_against_unpruned_power(family, p1 * p2, 6)
    for m in range(1, 7):
        expected = SparsePolynomial(("x",), {(2 * k,): comb(m - 1, k) ** 2 for k in range(m)})
        assert log.coefficient(m) == expected


def test_hesse_extraction_against_unpruned_power():
    hesse = builtin_family("hesse-cubic").family
    _check_against_unpruned_power(hesse, hesse.polynomials[0], 8)
