import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.formal_groups import Logarithm
from wittkit.polynomials import (
    NonIntegralError,
    SparsePolynomial,
    VariableMismatchError,
    as_integral,
    divide_exact,
    format_value,
    is_integral,
)

from wittkit.series import MultiTruncatedSeries, TruncatedSeries
from wittkit.witt import GhostVector, WittVector

from conftest import coefficient_of

X = SparsePolynomial.variable("x")


def poly(variables, terms):
    return SparsePolynomial(variables, terms)


# -- canonical form ----------------------------------------------------------


def test_zero_terms_dropped():
    p = poly(("x",), {(1,): 0, (2,): 3})
    assert p.terms == {(2,): 3}


def test_exponent_length_checked():
    with pytest.raises(VariableMismatchError):
        poly(("x", "y"), {(1,): 1})


def test_equality_is_canonical():
    assert poly(("x",), {(0,): 2}) == 2
    assert poly(("x",), {}) == poly(("y",), {})
    assert poly(("x",), {(1,): 1}) != poly(("y",), {(1,): 1})


def test_scalar_mixing():
    assert 1 + X == poly(("x",), {(0,): 1, (1,): 1})
    assert (1 - X) * (1 + X) == 1 - X**2
    assert Fraction(1, 2) * X * 2 == X


# -- coefficient_of ----------------------------------------------------------


def test_coefficient_of_binomial():
    x = SparsePolynomial.variable("X", ("X", "Y"))
    y = SparsePolynomial.variable("Y", ("X", "Y"))
    assert coefficient_of((x + y) ** 2, {"X": 1, "Y": 1}) == 2


def hesse_pencil():
    vars = ("x", "X", "Y", "Z")
    terms = {(0, 1, 1, 1): 1, (1, 3, 0, 0): 1, (1, 0, 3, 0): 1, (1, 0, 0, 3): 1}
    return SparsePolynomial(vars, terms)


def test_coefficient_of_keeps_parameter():
    p = hesse_pencil()
    c = coefficient_of(p, {"X": 1, "Y": 1, "Z": 1})
    assert c == SparsePolynomial(("x",), {(0,): 1})


def test_coefficient_of_square_against_full_expansion():
    p = hesse_pencil()
    sq = p * p
    # independent oracle: expand the 16-term square by brute force
    raw = {}
    items = list(p.terms.items())
    for e1, c1 in items:
        for e2, c2 in items:
            key = tuple(a + b for a, b in zip(e1, e2))
            raw[key] = raw.get(key, 0) + c1 * c2
    want = {}
    for key, c in raw.items():
        if c and key[1:] == (2, 2, 2):
            want[(key[0],)] = want.get((key[0],), 0) + c
    got = coefficient_of(sq, {"X": 2, "Y": 2, "Z": 2})
    assert got == SparsePolynomial(("x",), want)
    assert got == 1  # only the (XYZ)*(XYZ) cross term survives


def test_coefficient_of_unknown_variable():
    with pytest.raises(VariableMismatchError):
        coefficient_of(hesse_pencil(), {"Q": 1})


def test_coefficient_of_all_variables_gives_scalar():
    p = poly(("x",), {(3,): 24})
    assert coefficient_of(p, {"x": 3}) == 24
    assert coefficient_of(p, {"x": 5}) == 0


# -- reduce_mod --------------------------------------------------------------


def test_reduce_mod_examples():
    assert (1 + 24 * X**3).reduce_mod(5) == 1 + 4 * X**3
    assert (-75000 * X**5).reduce_mod(2) == SparsePolynomial.zero(("x",))
    assert (1 + 24 * X**3).reduce_mod(1) == SparsePolynomial.zero(("x",))


def test_reduce_mod_canonical_residues():
    p = (-1 * X).reduce_mod(5)
    assert p == 4 * X


def test_reduce_mod_rejects_denominators():
    with pytest.raises(NonIntegralError):
        (Fraction(1, 2) * X).reduce_mod(3)


# -- evaluate ----------------------------------------------------------------


def test_evaluate_full_and_partial():
    p = hesse_pencil()
    fiber = p.evaluate({"x": 2})
    assert fiber.variables == ("X", "Y", "Z")
    assert fiber.evaluate({"X": 1, "Y": 1, "Z": 1}) == 2 * 3 + 1
    assert (1 + 24 * X**3).evaluate({"x": 1}) == 25


def _random_polynomials(seed: int):
    """A seeded grid of polynomials in one to three variables, with int and Fraction
    coefficients (among them integral Fractions such as Fraction(4, 2))."""
    rng = random.Random(seed)
    scalars = (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
               lambda: Fraction(2 * rng.randint(-4, 4), 2))
    for nvars in (1, 2, 3):
        variables = ("x", "y", "z")[:nvars]
        for kinds in ((0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)):
            for _ in range(8):
                terms = {tuple(rng.randint(0, 3) for _ in variables): scalars[rng.choice(kinds)]()
                         for _ in range(rng.randint(0, 6))}
                yield SparsePolynomial(variables, terms)


def test_full_evaluation_equals_nested_partial_evaluations():
    """A full assignment sums scalars directly; the value and its type are those of
    evaluating one variable at a time.  The reference carries an extra variable w, so that
    each of its steps is partial, and reads the scalar off the constant that remains; a
    constant that sums to 0 is dropped, and then the reference has no type to compare."""
    rng = random.Random(7)
    values = (-3, -1, 1, 2, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3))
    for p in _random_polynomials(7):
        assignment = {v: rng.choice(values) for v in p.variables}
        nested = SparsePolynomial((*p.variables, "w"), {(*e, 0): c for e, c in p.terms.items()})
        for v in p.variables:
            nested = nested.evaluate({v: assignment[v]})
        assert nested.variables == ("w",)
        full = p.evaluate(assignment)
        assert full == nested.constant_value(), (p, assignment)
        assert type(full) is type(nested.constant_value()) or not nested.terms, (p, assignment)
    assert SparsePolynomial(("x", "y")).evaluate({"x": 1, "y": 2}) == 0


def test_integrality_check_agrees_with_the_fraction_scan():
    """The int check first, then the Fraction scan: the same answer as the scan alone."""
    def scan(p):
        return all(not isinstance(c, Fraction) or c.denominator == 1 for c in p.terms.values())

    polynomials = list(_random_polynomials(11))
    assert {scan(p) for p in polynomials} == {True, False}
    for p in polynomials:
        assert p.is_integral() is scan(p) and is_integral(p) is scan(p), p
    for c in (Fraction(4, 2), Fraction(1, 2), 3, 0):
        p = SparsePolynomial(("x",), {(0,): 1, (2,): c})
        assert p.is_integral() is (c != Fraction(1, 2))


# -- helpers -----------------------------------------------------------------


def test_divide_exact():
    assert divide_exact(6, 3) == 2
    assert divide_exact(6 * X, 3) == 2 * X
    with pytest.raises(NonIntegralError):
        divide_exact(7, 3)
    with pytest.raises(NonIntegralError):
        divide_exact(7 * X, 3)


def test_as_integral():
    assert as_integral(Fraction(4, 2)) == 2
    assert as_integral(Fraction(4, 2) * X) == 2 * X
    with pytest.raises(NonIntegralError):
        as_integral(Fraction(1, 2))


def test_integrality_helpers_on_every_value_kind():
    """Ints take the fast path; bools, Fractions and polynomials keep their results."""
    half, two = Fraction(1, 2), Fraction(4, 2)
    with_fraction = SparsePolynomial(("x",), {(0,): 1, (1,): two})
    for value in (0, -7, 10**40, True, False, two, with_fraction, 3 * X + 1):
        assert is_integral(value)
    for value in (half, half * X):
        assert not is_integral(value)
        with pytest.raises(NonIntegralError):
            as_integral(value)
    for value in (0, -7, 10**40, True):
        assert as_integral(value) is value
    assert type(as_integral(two)) is int and as_integral(two) == 2
    ints = 3 * X + 1
    assert as_integral(ints) is ints
    assert as_integral(with_fraction).terms == {(0,): 1, (1,): 2}
    assert all(type(c) is int for c in as_integral(with_fraction).terms.values())
    for value in (1.0, "1", None):
        assert not is_integral(value)
        with pytest.raises(TypeError):
            as_integral(value)


def test_format_value():
    assert format_value(1 + 6 * X**3) == "1+6*x^3"
    assert format_value(1 - 120 * X**5) == "1-120*x^5"
    assert format_value(SparsePolynomial.zero(("x",))) == "0"
    assert format_value(-X) == "-x^1"
    assert format_value(Fraction(3, 2) * X) == "3/2*x^1"
    two_vars = SparsePolynomial(("X", "Y"), {(2, 0): 1, (1, 1): 2})
    assert format_value(two_vars) == "2*X^1*Y^1+X^2"


# -- randomized ring axioms ---------------------------------------------------

VARS = ("a", "b", "c", "d")


@st.composite
def polynomials(draw, max_vars=4, max_degree=8, max_terms=5):
    nvars = draw(st.integers(1, max_vars))
    variables = VARS[:nvars]
    nterms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(nterms):
        exps = tuple(
            draw(st.integers(0, max_degree // nvars + 1)) for _ in range(nvars)
        )
        coeff = draw(st.integers(-(2**64), 2**64))
        terms[exps] = coeff
    return SparsePolynomial(variables, terms)


@st.composite
def poly_triples(draw):
    p = draw(polynomials())
    variables = p.variables
    q = draw(polynomials(max_vars=len(variables)))
    r = draw(polynomials(max_vars=len(variables)))
    pad = lambda poly_: SparsePolynomial(
        variables,
        {tuple(e) + (0,) * (len(variables) - len(e)): c for e, c in poly_.terms.items()},
    )
    return p, pad(q), pad(r)


@settings(max_examples=80, deadline=None)
@given(poly_triples())
def test_ring_axioms(triple):
    p, q, r = triple
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == SparsePolynomial.zero(p.variables)
    assert p * 1 == p and p * 0 == SparsePolynomial.zero(p.variables)


@settings(max_examples=40, deadline=None)
@given(polynomials(max_vars=3, max_degree=4, max_terms=4), st.integers(0, 3))
def test_power_matches_repeated_multiplication(p, n):
    direct = SparsePolynomial.constant(1, p.variables)
    for _ in range(n):
        direct = direct * p
    assert p**n == direct


@settings(max_examples=40, deadline=None)
@given(polynomials(max_vars=3, max_degree=4, max_terms=4),
       polynomials(max_vars=3, max_degree=4, max_terms=4))
def test_coefficient_of_agrees_with_dense_expansion(p, q):
    # align over a common variable tuple
    variables = VARS[: max(len(p.variables), len(q.variables))]
    pad = lambda poly_: SparsePolynomial(
        variables,
        {tuple(e) + (0,) * (len(variables) - len(e)): c for e, c in poly_.terms.items()},
    )
    p, q = pad(p), pad(q)
    prod = p * q
    # dense oracle: tabulate every coefficient of the product independently
    dense = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            dense[key] = dense.get(key, 0) + c1 * c2
    dense = {e: c for e, c in dense.items() if c}
    for exps in list(dense) + [(0,) * len(variables)]:
        monomial = dict(zip(variables, exps))
        assert coefficient_of(prod, monomial) == dense.get(exps, 0)


# -- the trusted constructor behind arithmetic -----------------------------------


def _assert_canonical(r):
    """``r`` is exactly what the validating constructor makes of its terms:
    same values, same coefficient types, same term order."""
    assert isinstance(r, SparsePolynomial)
    ref = SparsePolynomial(r.variables, r.terms)
    assert r.variables == ref.variables
    assert list(r.terms.items()) == list(ref.terms.items())
    assert [type(c) for c in r.terms.values()] == [type(c) for c in ref.terms.values()]


def _random_scalar(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("Z", "Q"))
    if kind == "Z":
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_poly(rng, variables, kind):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[tuple(rng.randint(0, 2) for _ in variables)] = _random_scalar(rng, kind)
    return SparsePolynomial(variables, terms)


def test_arithmetic_results_match_validating_constructor():
    rng = random.Random(20260007)
    cases = 0
    for _ in range(400):
        kind = rng.choice(("Z", "Q", "mixed"))
        variables = ("a", "b", "c")[: rng.randint(1, 3)]
        p, q = _random_poly(rng, variables, kind), _random_poly(rng, variables, kind)
        s = _random_scalar(rng, kind)
        # constants over other variables align to the other operand's variables
        foreign = SparsePolynomial.constant(_random_scalar(rng, kind), ("z",))
        empty = SparsePolynomial.zero(("w",))
        results = [p + q, p - q, p * q, -p, p - p, (p + q) - q, p + (-p), (p - q) * (p + q)]
        for other in (s, foreign, empty, Fraction(0), 0):
            results += [p + other, other + p, p - other, other - p, p * other, other * p]
            results += [foreign * other, other - foreign] if other is not foreign else []
            results += list(p._align(other))
        results += [p ** rng.randint(0, 3), foreign**2]
        if p.is_integral():
            results.append(p.reduce_mod(rng.randint(1, 7)))
        for r in results:
            _assert_canonical(r)
        cases += len(results)
    assert cases > 20000


def _embed(p):
    """``p`` over ("x", "y") with y-exponent 0, where products take the
    exponent-vector loop."""
    return SparsePolynomial(("x", "y"), {(e, 0): c for (e,), c in p.terms.items()})


def _assert_same_terms(one, two):
    """``one`` over ("x",) equals ``two`` over ("x", "y") in values,
    coefficient types and term order."""
    assert one.variables == ("x",) and two.variables == ("x", "y")
    assert [(e, c, type(c)) for (e,), c in one.terms.items()] == [
        (e, c, type(c)) for (e, f), c in two.terms.items() if f == 0
    ]
    assert len(one.terms) == len(two.terms)


def test_one_variable_kernel_matches_the_exponent_vector_path():
    rng = random.Random(20261018)
    zero = SparsePolynomial.zero(("x", "y"))
    cancelled = 0
    for _ in range(400):
        kind = rng.choice(("Z", "Q", "mixed"))
        p, q = (
            SparsePolynomial(("x",), {
                (rng.randint(0, 6),): _random_scalar(rng, kind) for _ in range(rng.randint(0, 6))
            })
            for _ in range(2)
        )
        k = rng.choice((0, 1, -1, rng.randint(-9, 9), rng.randint(-10**30, 10**30)))
        const = SparsePolynomial.constant(k, ("x", "y"))
        pair = (_embed(p), _embed(q))
        _assert_same_terms(p * q, pair[0] * pair[1])
        _assert_same_terms(p * k, pair[0] * const)
        _assert_same_terms(k * p, const * pair[0])
        _assert_same_terms(p + 0, pair[0] + zero)
        _assert_same_terms(0 + p, zero + pair[0])
        sums = {e1 + e2 for (e1,) in p.terms for (e2,) in q.terms}
        cancelled += len((p * q).terms) < len(sums)
    assert cancelled > 20


def test_results_own_their_terms():
    p = SparsePolynomial(("x",), {(0,): 1, (2,): Fraction(3, 2), (5,): -4})
    q = SparsePolynomial(("x",), {(1,): -2, (2,): 7})
    pq = SparsePolynomial(("x", "y"), {(1, 0): 2, (0, 3): -1})
    assert p + 0 is p and 0 + p is p and pq + 0 is pq
    results = [
        (p * q, (p, q)), (q * p, (p, q)), (p * 1, (p,)), (1 * p, (p,)), (p * 3, (p,)),
        (p * 0, (p,)), (p * Fraction(1), (p,)), (p + q, (p, q)), (p - q, (p, q)),
        (p - 0, (p,)), (0 - p, (p,)), (-p, (p,)), (p**1, (p,)), (q.reduce_mod(5), (q,)),
        (divide_exact(q * 2, 2), (q,)), (pq * 1, (pq,)), (pq * pq, (pq,)), (pq + pq, (pq,)),
    ]
    for r, operands in results:
        assert all(r.terms is not o.terms for o in operands), r
    for a, b in ((p, True), (True, p), (pq, False)):
        with pytest.raises(TypeError):
            a * b


@pytest.mark.parametrize(
    "variables, terms, error",
    [
        (("x", "x"), {(1, 0): 1}, VariableMismatchError),
        (("x", "y"), {(1,): 1}, VariableMismatchError),
        (("x",), {(-1,): 1}, ValueError),
        (("x",), {(1,): 1.5}, TypeError),
        (("x",), {(1,): "1"}, TypeError),
        (("x",), {(1,): True}, TypeError),
    ],
    ids=["duplicate-names", "exponent-length", "negative-exponent", "float", "str", "bool"],
)
def test_public_constructor_still_validates(variables, terms, error):
    with pytest.raises(error):
        SparsePolynomial(variables, terms)


# -- containers compare their entries by == --------------------------------------


def _containers(values, extra=0, name="t"):
    """The five value containers, each holding ``values`` (plus ``extra``
    zeros); ``name`` is the formal variable of the two series."""
    vals = list(values) + [0] * extra
    return [
        TruncatedSeries(name, [1, *vals]),
        MultiTruncatedSeries(("s", name), len(vals), {(0, k): v for k, v in enumerate(vals, 1)}),
        GhostVector(vals),
        WittVector(vals),
        Logarithm([1, *vals]),
    ]


@pytest.mark.parametrize(
    "a, b",
    [
        (2, Fraction(2)),
        (2, SparsePolynomial.constant(2, ("x",))),
        (SparsePolynomial.constant(3, ("x",)), SparsePolynomial.constant(3, ("y",))),
        (0, SparsePolynomial.zero(("x",))),
    ],
    ids=["int-fraction", "int-constant", "constants-in-x-and-y", "zero-polynomial"],
)
def test_container_equality_follows_eq(a, b):
    assert a == b
    for left, right in zip(_containers([a, 5]), _containers([b, 5])):
        assert left == right and not left != right, type(left).__name__
        assert hash(left) == hash(right)


def test_container_inequality():
    Y = SparsePolynomial.variable("y")
    pairs = list(zip(_containers([X]), _containers([Y])))
    pairs += zip(_containers([1]), _containers([1], extra=1))  # lengths and orders
    pairs += zip(_containers([1])[:2], _containers([1], name="u")[:2])  # series variables
    for left, right in pairs:
        assert left != right and not left == right, type(left).__name__


_BIG = 10**4400 + 7  # past str()'s 4,300-digit limit
_BIG_TEXT = "1" + "0" * 4399 + "7"


@pytest.mark.parametrize("value, text", [
    (SparsePolynomial(("x", "y"), {(0, 2): Fraction(-1, 2), (1, 0): 3}),
     "SparsePolynomial(('x', 'y'), {(1, 0): 3, (0, 2): Fraction(-1, 2)})"),
    (SparsePolynomial(("x",), {(1,): _BIG, (0,): Fraction(1, -_BIG)}),
     f"SparsePolynomial(('x',), {{(0,): Fraction(-1, {_BIG_TEXT}), (1,): {_BIG_TEXT}}})"),
    (WittVector([-2, 3 * X]), "WittVector([-2, SparsePolynomial(('x',), {(1,): 3})])"),
    (WittVector([1, _BIG * X]), f"WittVector([1, SparsePolynomial(('x',), {{(1,): {_BIG_TEXT}}})])"),
    (GhostVector([Fraction(1, 3), 4]), "GhostVector([Fraction(1, 3), 4])"),
    (GhostVector([Fraction(_BIG, 2), -_BIG]), f"GhostVector([Fraction({_BIG_TEXT}, 2), -{_BIG_TEXT}])"),
    (Logarithm([1, -5, X]), "Logarithm([1, -5, SparsePolynomial(('x',), {(1,): 1})])"),
    (Logarithm([1, _BIG]), f"Logarithm([1, {_BIG_TEXT}])"),
], ids=[f"{kind}-{size}" for kind in ("SparsePolynomial", "WittVector", "GhostVector", "Logarithm")
        for size in ("small", "big")])
def test_repr_prints_ints_of_any_size(value, text):
    """``repr`` prints each int through ``_scalar_text``: a coefficient past the digit
    limit prints in full rather than raising, and small values print as before."""
    assert repr(value) == text
