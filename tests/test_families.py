import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod
from operator import add

import pytest

from wittkit.families import (
    CompleteIntersectionFamily,
    UnknownFamilyError,
    am_logarithm,
    builtin_family,
    closed_form_logarithm,
    family_logarithm,
    resolve_family_id,
)
from wittkit.formal_groups import group_law_from_logarithm, integrality_report
from wittkit.polynomials import SparsePolynomial

from conftest import coefficient_of

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
    assert repr(hesse.family) == (
        "CompleteIntersectionFamily(name='hesse-cubic', polynomials=(SparsePolynomial("
        "('x', 'X', 'Y', 'Z'), {(0, 1, 1, 1): 1, (1, 0, 0, 3): 1, (1, 0, 3, 0): 1, (1, 3, 0, 0): 1}),))"
    )
    copy = SparsePolynomial(p.variables, dict(p.terms))
    rebuilt = CompleteIntersectionFamily("hesse-cubic", (copy,))
    assert rebuilt == hesse.family and hash(rebuilt) == hash(hesse.family)
    changed = SparsePolynomial(p.variables, {**p.terms, (0, 1, 1, 1): 2})
    assert CompleteIntersectionFamily("hesse-cubic", (changed,)) != hesse.family

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
    inhomogeneous = SparsePolynomial(("x", "X", "Y"), {(0, 1, 1): 1, (1, 1, 0): 1})
    with pytest.raises(ValueError, match="is not a nonzero form in"):
        CompleteIntersectionFamily("bad", (inhomogeneous,))  # Z-degrees 2 and 1
    cubic = SparsePolynomial(("x", "X", "Y"), {(0, 2, 1): 1})
    with pytest.raises(ValueError, match=r"degrees \(3,\) must sum to N\+1 = 2"):
        CompleteIntersectionFamily("bad", (cubic,))  # X^2*Y in P^1
    with pytest.raises(ValueError, match="is not a nonzero form in"):
        CompleteIntersectionFamily("zero", (SparsePolynomial(("x", "X", "Y", "Z"), {}),))
    variables = ("x", "Z0", "Z1", "Z2", "Z3")
    p1 = SparsePolynomial(variables, {(0, 1, 1, 0, 0): 1, (1, 0, 0, 1, 1): 1})
    p2 = SparsePolynomial(variables[1:], {(0, 0, 1, 1): 1, (1, 1, 0, 0): 1})
    with pytest.raises(ValueError, match="every polynomial must declare the variables"):
        CompleteIntersectionFamily("bad", (p1, p2))  # no shared variable tuple
    no_x = SparsePolynomial(("X", "Y", "Z"), {(1, 1, 1): 1, (3, 0, 0): 1})
    with pytest.raises(ValueError, match="do not contain the parameter 'x'"):
        CompleteIntersectionFamily("bad", (no_x,))  # no parameter x
    with pytest.raises(ValueError, match="at least one polynomial"):
        CompleteIntersectionFamily("bad", ())  # no polynomial
    point = SparsePolynomial(("x",), {(0,): 1})
    with pytest.raises(ValueError, match=r"variables \('x',\) hold no coordinate besides 'x'"):
        CompleteIntersectionFamily("pt", (point,))  # no coordinate, so N = -1
    hesse = builtin_family("hesse-cubic").family.polynomials[0]
    x_minus_1 = SparsePolynomial(hesse.variables, {(1, 0, 0, 0): 1, (0, 0, 0, 0): -1})
    with pytest.raises(ValueError, match=r"has degree 0 in \('X', 'Y', 'Z'\)"):
        CompleteIntersectionFamily("bad", (hesse, x_minus_1))  # degrees (3, 0)


def test_extraction_refuses_a_family_off_z_x():
    """am_logarithm builds its logarithm unvalidated, so it reads the family's product over Z[x]:
    a true fraction is refused, and integral Fractions become ints."""
    hesse = builtin_family("hesse-cubic").family.polynomials[0]
    halved = CompleteIntersectionFamily("half", (hesse.map_coefficients(lambda c: c * Fraction(1, 2)),))
    with pytest.raises(ValueError, match="is not an integer"):
        am_logarithm(halved, 4)
    as_fractions = CompleteIntersectionFamily("fractions", (hesse.map_coefficients(Fraction),))
    log = am_logarithm(as_fractions, 12)
    assert log == am_logarithm(builtin_family("hesse-cubic").family, 12)
    assert all(type(c) is int for a in log.coeffs for c in a.terms.values())


def test_first_coefficient_is_one():
    for family in ("hesse-cubic", "quartic-k3", "quintic-cy3"):
        entry = builtin_family(family)
        assert am_logarithm(entry.family, 1).coefficient(1) == 1
        assert list(entry.closed_forms(1)) == [{0: 1}]


def test_extraction_examples():
    hesse = builtin_family("hesse-cubic").family
    assert am_logarithm(hesse, 4).coefficient(4) == 1 + 6 * X**3
    quintic = builtin_family("quintic-cy3").family
    assert am_logarithm(quintic, 6).coefficient(6) == 1 - 120 * X**5


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


def _literal_closed_form(n, sign, m):
    """The printed rule, every term from factorials and a binomial."""
    terms = {}
    for j in range((m - 1) // n + 1):
        terms[(n * j,)] = sign**j * (factorial(n * j) // factorial(j) ** n) * comb(m - 1, n * j)
    return SparsePolynomial(("x",), terms)


@pytest.mark.parametrize(
    "family, n, sign", [("hesse-cubic", 3, 1), ("quartic-k3", 4, 1), ("quintic-cy3", 5, -1)]
)
def test_closed_form_matches_literal_formula(family, n, sign):
    """The term recurrence gives the literal formula's values, types and term order."""
    log = closed_form_logarithm(family, 300)
    for m in range(1, 301):
        reference = _literal_closed_form(n, sign, m)
        got = log.coefficient(m)
        assert list(got.terms.items()) == list(reference.terms.items())
        assert all(type(c) is int for c in got.terms.values())


# every m <= 150 for p < 11, and m on both sides of each prime power p^k,
# where the p-valuations of the numerator factors and of j jump
MOD_GRID = sorted({
    (p, s, m)
    for p in (3, 5, 7, 11)
    for s in (1, 2, 3, 4)
    for m in (
        2 * p**2 + 1,
        100,
        *(p**k + d for k in range(1, 7) for d in (-1, 0, 1)),
        *(range(1, 151) if p < 11 else ()),
    )
    if m <= 1400
})


@pytest.mark.parametrize("family", ["hesse-cubic", "quartic-k3", "quintic-cy3"])
def test_closed_form_mod_equals_closed_form_reduced(family):
    """The term-ratio rule gives a_m mod p^s, with a_m read from one walk of ``closed_forms``:
    values, int types and term order, on every pencil."""
    entry = builtin_family(family)
    assert len(MOD_GRID) == 1892
    grid = {}
    for p, s, m in MOD_GRID:
        grid.setdefault(m, []).append((p, s))
    for m, exact in enumerate(entry.closed_forms(max(grid)), 1):  # m <= 1400
        for p, s in grid.get(m, ()):
            got = entry.closed_form_mod(m, p, s)
            reference = [((e,), r) for e, c in exact.items() if (r := c % p**s)]
            assert got.variables == ("x",)
            assert list(got.terms.items()) == reference, (p, s, m)
            assert all(type(c) is int for c in got.terms.values())


@pytest.mark.parametrize("m, p, s", [(0, 5, 1), (5, 1, 1), (5, 0, 2), (5, 4, 1), (5, 9, 2), (5, 5, 0)])
def test_closed_form_mod_rejects_bad_arguments(m, p, s):
    with pytest.raises(ValueError, match="need m >= 1, a prime p and s >= 1"):
        builtin_family("hesse-cubic").closed_form_mod(m, p, s)


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
                assert max(e for (e,) in a.terms) <= m - 1


def test_extraction_equals_closed_form_small():
    # short version; the acceptance suite runs the full stated ranges
    for family, m_max in (("hesse-cubic", 7), ("quartic-k3", 6), ("quintic-cy3", 6)):
        by_extraction = family_logarithm(family, m_max, "extraction")
        by_formula = family_logarithm(family, m_max, "closed-form")
        assert by_extraction == by_formula


def test_extraction_equals_closed_form_at_dwork_sizes():
    # p^(s+1) <= 49 for the quintic, <= 64 for the quartic, and 3^4 = 81
    # (s = 3) for the cubic and the quartic
    for family, m_max in (
        ("quintic-cy3", 49), ("quartic-k3", 64), ("hesse-cubic", 81), ("quartic-k3", 81)
    ):
        by_extraction = family_logarithm(family, m_max, "extraction")
        assert by_extraction == family_logarithm(family, m_max, "closed-form")


def test_extraction_equals_closed_form_at_user_sizes():
    """Extraction against the closed forms at the sizes users run, values,
    types and term order; each extraction takes milliseconds."""
    for family, m_max in (("quintic-cy3", 81), ("hesse-cubic", 125), ("quartic-k3", 100)):
        by_extraction = family_logarithm(family, m_max, "extraction")
        by_formula = closed_form_logarithm(family, m_max)
        assert [_exact_shape(a) for a in by_extraction.coeffs] == [_exact_shape(a) for a in by_formula.coeffs]


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
    return p1, p2, CompleteIntersectionFamily("two-quadrics", (p1, p2))


def test_dimension_and_degrees_are_read_from_the_polynomials():
    families = {name: builtin_family(name).family for name in ("hesse-cubic", "quartic-k3", "quintic-cy3")}
    derived = {name: (family.ambient_dim, family.degrees) for name, family in families.items()}
    assert derived == {"hesse-cubic": (2, (3,)), "quartic-k3": (3, (4,)), "quintic-cy3": (4, (5,))}
    family = _two_quadrics()[2]
    assert (family.ambient_dim, family.degrees, family.dimension) == (3, (2, 2), 1)
    line_pair = CompleteIntersectionFamily("XY", (SparsePolynomial(("x", "X", "Y"), {(0, 1, 1): 1}),))
    assert (line_pair.ambient_dim, line_pair.degrees, line_pair.dimension) == (1, (2,), 0)



def test_family_of_negative_dimension_refused():
    # N+1 linear forms in P^N would leave dimension -1 (a_m = 1 for every m)
    point = SparsePolynomial(("x", "Z0"), {(0, 1): 1})
    with pytest.raises(ValueError, match="dimension N - codimension = 0 - 1 is negative"):
        CompleteIntersectionFamily("p0", (point,))
    first = SparsePolynomial(("x", "X", "Y"), {(0, 1, 0): 1})
    second = SparsePolynomial(("x", "X", "Y"), {(0, 0, 1): 1, (1, 1, 0): 1})
    with pytest.raises(ValueError, match="dimension N - codimension = 1 - 2 is negative"):
        CompleteIntersectionFamily("two-points", (first, second))
    line_pair = SparsePolynomial(("x", "X", "Y"), {(0, 1, 1): 1})
    assert CompleteIntersectionFamily("XY", (line_pair,)).dimension == 0  # dimension 0 stays

def test_user_supplied_codimension_two_family():
    p1, p2, family = _two_quadrics()
    assert family.dimension == 1
    log = am_logarithm(family, 3)
    assert log.coefficient(1) == 1
    assert log.coefficient(2) == 1 + X**2


def _check_against_unpruned_power(family, product, m_max):
    """a_m by one pass to m_max, by a pass that stops at m, and from the full
    power of the product of the family's polynomials."""
    log = am_logarithm(family, m_max)
    zvars = family.coordinate_variables()
    for m in range(1, m_max + 1):
        unpruned = coefficient_of(product ** (m - 1), {z: m - 1 for z in zvars})
        assert log.coefficient(m) == am_logarithm(family, m).coefficient(m) == unpruned, m
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


def _tuple_am_logarithm(family, m_max):
    """Reference: the plain pruned expansion of Q^k, keyed by whole exponent
    tuples (x and every Z), with no split of Q into c*D + R and no pass over
    R's monomials.  Its terms come in the order the expansion meets them."""
    q = prod(family.polynomials[1:], start=family.polynomials[0])
    zidx = [q.variables.index(v) for v in family.coordinate_variables()]
    xidx = q.variables.index("x")
    partial = {(0,) * len(q.variables): 1}
    coeffs = []
    for k in range(m_max):
        if k:
            nxt = {}
            for exps, c in partial.items():
                for qexps, qc in q.terms.items():
                    merged = tuple(map(add, exps, qexps))
                    if any(merged[i] >= m_max for i in zidx):
                        continue
                    nxt[merged] = nxt.get(merged, 0) + c * qc
            partial = {e: c for e, c in nxt.items() if c}
        a_k = {(e[xidx],): c for e, c in partial.items() if all(e[i] == k for i in zidx)}
        coeffs.append(SparsePolynomial(("x",), a_k))
    return coeffs


def _exact_shape(value):
    """Type, terms in order, and coefficient types: all that must not move."""
    return type(value), [(e, c, type(c)) for e, c in value.terms.items()]


def _ascending_in_x(a):
    """a with its terms in ascending x, the order am_logarithm states."""
    return SparsePolynomial(a.variables, dict(sorted(a.terms.items())))


def _field_width_edges(family, m_cap):
    """The m_max grid up to m_cap: 1 and each m_max on either side of
    m_max + qmax reaching a power of two, so both small and large sizes are
    checked, each with its neighbor."""
    q = prod(family.polynomials[1:], start=family.polynomials[0])
    qmax = max(max(e) for e in q.terms)
    edges = {1}
    for j in range(1, m_cap.bit_length() + 2):
        edges.update(m for m in (2**j - qmax - 1, 2**j - qmax) if 1 <= m <= m_cap)
    return sorted(edges)


def _x_in_the_middle():
    # a cubic pencil whose variable tuple does not start with x, with an x
    # exponent above every Z exponent and coefficients of both signs
    variables = ("X", "x", "Y", "Z")
    p = SparsePolynomial(
        variables,
        {(1, 0, 1, 1): 1, (3, 1, 0, 0): 1, (0, 2, 3, 0): -2, (0, 5, 0, 3): 3, (2, 1, 1, 0): 1},
    )
    return CompleteIntersectionFamily("x-in-the-middle", (p,))


@pytest.mark.parametrize(
    "family, m_cap",
    [
        (builtin_family("hesse-cubic").family, 61),
        (builtin_family("quartic-k3").family, 28),
        (builtin_family("quintic-cy3").family, 27),
        (_two_quadrics()[2], 30),
        (_x_in_the_middle(), 27),
    ],
    ids=["hesse-cubic", "quartic-k3", "quintic-cy3", "two-quadrics", "x-in-the-middle"],
)
def test_packed_extraction_matches_tuple_reference(family, m_cap):
    edges = _field_width_edges(family, m_cap)
    assert m_cap in edges
    for m_max in edges:
        got = am_logarithm(family, m_max)
        reference = _tuple_am_logarithm(family, m_max)
        assert [_exact_shape(got.coefficient(m)) for m in range(1, m_max + 1)] == [
            _exact_shape(_ascending_in_x(a)) for a in reference
        ], m_max


def _cubic(name, terms):
    """A cubic in (X, Y, Z) from {(x-exponent, X, Y, Z exponents): coefficient}."""
    return CompleteIntersectionFamily(name, (SparsePolynomial(("x", "X", "Y", "Z"), terms),))


def _cyclic_cubic():
    # X^2 Y + Y^2 Z + Z^2 X + x XYZ + 2x (X^3 + Y^3 + Z^3): fixed by the
    # cycle (X Y Z), moved by the transposition (X Y)
    return _cubic("cyclic-only", {
        (0, 2, 1, 0): 1, (0, 0, 2, 1): 1, (0, 1, 0, 2): 1, (1, 1, 1, 1): 1,
        (1, 3, 0, 0): 2, (1, 0, 3, 0): 2, (1, 0, 0, 3): 2,
    })


def _transposition_cubic():
    # XYZ + x (X^3 + Y^3 + 2 Z^3): fixed by (X Y), moved by the cycle
    return _cubic("transposition-only", {
        (0, 1, 1, 1): 1, (1, 3, 0, 0): 1, (1, 0, 3, 0): 1, (1, 0, 0, 3): 2,
    })


def _symmetric_cubic():
    # XYZ - x (X^3 + Y^3 + Z^3) + 3x^2 sum_{i != j} Z_i^2 Z_j: fixed by all
    # of S_3, with three monomial types and coefficients of both signs
    terms = {(0, 1, 1, 1): 1, (1, 3, 0, 0): -1, (1, 0, 3, 0): -1, (1, 0, 0, 3): -1}
    for i, j in permutations(range(3), 2):
        exps = [2, 0, 0, 0]
        exps[1 + i], exps[1 + j] = 2, 1
        terms[tuple(exps)] = 3
    return _cubic("fully-symmetric", terms)


@pytest.mark.parametrize(
    "family",
    [_cyclic_cubic(), _transposition_cubic(), _symmetric_cubic()],
    ids=["cyclic-only", "transposition-only", "fully-symmetric"],
)
def test_orbit_extraction_matches_tuple_reference_under_partial_symmetry(family):
    """Cubics that only part of S_3 fixes, and one that all of it fixes:
    extraction uses no symmetry of Q, so each must match the plain
    expansion, whatever coordinate permutations fix it."""
    for m_max in range(1, 13):
        got = am_logarithm(family, m_max)
        reference = _tuple_am_logarithm(family, m_max)
        assert [_exact_shape(got.coefficient(m)) for m in range(1, m_max + 1)] == [
            _exact_shape(_ascending_in_x(a)) for a in reference
        ], m_max


@pytest.mark.parametrize(
    "family",
    [
        # Z appears only in D = XYZ, so no monomial of R touches it: b_j = 0 for j > 0
        _cubic("untouched-coordinate", {
            (0, 1, 1, 1): 1, (1, 1, 1, 1): 2, (1, 3, 0, 0): 1, (0, 0, 3, 0): -1, (2, 2, 1, 0): 3,
        }),
        # Z^3 closes Z first; X^2 Y is then the last monomial to touch both X and Y
        _cubic("two-closed-by-x2y", {
            (0, 1, 1, 1): 1, (1, 0, 0, 3): 1, (0, 1, 2, 0): 2, (1, 2, 1, 0): -1,
        }),
        # X closes first; Y Z^2 then closes Z, and an odd gap to the target drops the state
        _cubic("gap-not-a-multiple", {
            (0, 1, 1, 1): 1, (1, 3, 0, 0): 1, (0, 0, 1, 2): 1, (1, 0, 3, 0): -2, (2, 1, 0, 2): 1,
        }),
        # every row of R and c have several x exponents, with both signs
        _cubic("several-x-exponents", {
            (0, 1, 1, 1): 1, (1, 1, 1, 1): -1, (2, 1, 1, 1): 2,
            (1, 3, 0, 0): 1, (2, 3, 0, 0): 3, (0, 0, 3, 0): 2, (1, 0, 3, 0): -1,
            (0, 0, 0, 3): -1, (3, 0, 0, 3): 1,
        }),
    ],
    ids=lambda family: family.name,
)
def test_one_pass_prune_matches_tuple_reference(family):
    """Each edge of the one-pass prune: a coordinate R never touches, one
    monomial closing two coordinates with different exponents, a closing gap
    that its exponent does not divide, and several x exponents per row and in c."""
    for m_max in range(1, 13):
        got = am_logarithm(family, m_max)
        reference = _tuple_am_logarithm(family, m_max)
        assert [_exact_shape(got.coefficient(m)) for m in range(1, m_max + 1)] == [
            _exact_shape(_ascending_in_x(a)) for a in reference
        ], m_max


def _random_pencil(rng, n, d_coefficient, symmetric):
    """A form of degree n in n coordinates over Z[x]: (Z_0...Z_{n-1}) times
    ``d_coefficient`` ({x exponent: coefficient}, empty for no such term)
    plus a few other monomials with random coefficients in Z[x], summed over
    all coordinate permutations when ``symmetric``."""
    zvars = ("W", "X", "Y", "Z")[-n:]
    terms = {(e,) + (1,) * n: c for e, c in d_coefficient.items()}
    for _ in range(rng.randrange(3, 7)):
        z = [0] * n
        for _ in range(n):
            z[rng.randrange(n)] += 1
        if z == [1] * n:
            continue
        coefficient = {rng.randrange(3): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randrange(1, 3))}
        for perm in (set(permutations(z)) if symmetric else (tuple(z),)):
            for e, c in coefficient.items():
                terms[(e,) + perm] = c
    return CompleteIntersectionFamily(f"random-{n}", (SparsePolynomial(("x",) + zvars, terms),))


@pytest.mark.parametrize("case", ["no-D-term", "constant-c", "negative-c"])
def test_split_extraction_matches_tuple_reference_on_random_pencils(case):
    """Seeded cubic and quartic pencils whose coefficient c of Z_0...Z_N is
    0, a constant other than 1, or has negative x-coefficients: a_m from the
    binomial sum over the powers of Q - c*D equals the plain expansion of Q^k."""
    rng = random.Random(f"split/{case}")
    for n, symmetric in ((3, False), (3, True), (4, False)):
        d_coefficient = {
            "no-D-term": {},
            "constant-c": {0: rng.choice((-3, -2, -1, 2, 3))},
            "negative-c": {0: rng.choice((-2, 1, 2)), 1: -rng.randrange(1, 4), 2: rng.choice((-1, 2))},
        }[case]
        family = _random_pencil(rng, n, d_coefficient, symmetric)
        c = coefficient_of(family.polynomials[0], dict.fromkeys(family.coordinate_variables(), 1))
        assert c.terms == {(e,): v for e, v in d_coefficient.items()}
        for m_max in range(1, 13):
            got = am_logarithm(family, m_max)
            reference = _tuple_am_logarithm(family, m_max)
            assert [_exact_shape(got.coefficient(m)) for m in range(1, m_max + 1)] == [
                _exact_shape(_ascending_in_x(a)) for a in reference
            ], (n, symmetric, m_max)
