import json
import random
from fractions import Fraction
from math import gcd

import pytest

from wittkit import witt
from wittkit.polynomials import NonIntegralError, SparsePolynomial, divide_exact, is_integral
from wittkit.serialize import json_dumps
from wittkit.series import TruncatedSeries
from wittkit.witt import (
    GhostInvariantViolation,
    GhostVector,
    IntegralityError,
    WittVector,
    from_ghost,
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

from conftest import value_to_obj, witt_to_obj

A = SparsePolynomial.variable("a")


def rand_vector(rng, length, polynomial=False):
    if polynomial:
        coords = []
        for _ in range(length):
            coords.append(
                SparsePolynomial(
                    ("a",),
                    {(rng.randrange(3),): rng.randrange(-4, 5)},
                )
            )
        return WittVector(coords)
    return WittVector([rng.randrange(-9, 10) for _ in range(length)])


# -- Teichmueller and the ghost map -------------------------------------------


def test_teichmueller_examples():
    w = teichmueller(2, 3)
    assert w.coords == (2, 0, 0)
    assert to_ghost(w).entries == (2, 4, 8)
    assert teichmueller(0, 4) == WittVector.zero(4)
    one = teichmueller(1, 2)
    assert one.to_series().coefficients == (1, 1, 1)


def test_to_ghost_examples():
    assert to_ghost(WittVector([2, -1, -2])).entries == (2, 2, 2)
    assert to_ghost(WittVector.zero(5)).entries == (0,) * 5
    w = teichmueller(A, 3)
    assert to_ghost(w).entries == (A, A**2, A**3)


def test_from_ghost_examples():
    assert from_ghost(GhostVector([2, 2, 2])).coords == (2, -1, -2)
    assert from_ghost(GhostVector([A, A**2, A**3])) == teichmueller(A, 3)
    with pytest.raises(IntegralityError) as err:
        from_ghost(GhostVector([1, 0]))
    assert err.value.index == 2


def test_from_ghost_names_a_non_integral_entry():
    """A non-integral remainder at index k means g_k is not an integer."""
    cases = [
        ([Fraction(1, 2), 0], 1, "g_1 = 1/2 is not an integer"),
        ([1, Fraction(3, 2), 0], 2, "g_2 = 3/2 is not an integer"),
        ([A, A * Fraction(1, 3)], 2, "g_2 = 1/3*a^1 is not an integer"),
        ([1, 0], 2, "-1 is not divisible by 2"),  # the remainder g_2 - 1^2
    ]
    for entries, index, detail in cases:
        with pytest.raises(IntegralityError) as err:
            from_ghost(GhostVector(entries))
        assert err.value.index == index
        assert str(err.value) == f"integrality failure at index {index}: {detail}"


def test_ghost_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        w = rand_vector(rng, rng.randrange(1, 17), polynomial=rng.random() < 0.5)
        g = to_ghost(w)
        # the literal divisor sum g_k = sum_{d|k} d * a_d^(k/d)
        for k in range(1, w.length + 1):
            divisors = [d for d in range(1, k + 1) if k % d == 0]
            assert g[k - 1] == sum(d * w.coords[d - 1] ** (k // d) for d in divisors)
        assert from_ghost(g) == w


def test_constructor_rejects_fractional_coordinates():
    from fractions import Fraction

    with pytest.raises(ValueError):
        WittVector([1, Fraction(1, 2)])


# -- ring operations -----------------------------------------------------------


def test_witt_add_examples():
    one = teichmueller(1, 3)
    assert witt_add(one, one).coords == (2, -1, -2)
    w = WittVector([3, -1, 4])
    assert witt_add(w, WittVector.zero(3)) == w
    a = teichmueller(A, 4)
    assert witt_add(a, witt_neg(a)) == WittVector.zero(4)


def test_witt_add_length_mismatch():
    with pytest.raises(ValueError):
        witt_add(WittVector([1]), WittVector([1, 2]))


def test_witt_mul_examples():
    b = SparsePolynomial.variable("b", ("a", "b"))
    a = SparsePolynomial.variable("a", ("a", "b"))
    assert witt_mul(teichmueller(a, 4), teichmueller(b, 4)) == teichmueller(a * b, 4)
    u = WittVector([2, 5, -3, 7])
    assert witt_mul(u, teichmueller(1, 4)) == u
    two = witt_add(teichmueller(1, 3), teichmueller(1, 3))
    assert witt_mul(two, two).coords == (4, -6, -20)


def test_addition_is_series_multiplication():
    # independent oracle: multiply the series forms directly
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(1, 9)
        u = rand_vector(rng, n, polynomial=rng.random() < 0.4)
        v = rand_vector(rng, n, polynomial=rng.random() < 0.4)
        direct = WittVector.from_series(u.to_series() * v.to_series())
        assert witt_add(u, v) == direct


def test_multiplication_matches_universal_polynomials():
    # build the universal product polynomials symbolically, then specialize
    n = 4
    names = tuple(f"u{i}" for i in range(1, n + 1)) + tuple(
        f"v{i}" for i in range(1, n + 1)
    )
    us = [SparsePolynomial.variable(f"u{i}", names) for i in range(1, n + 1)]
    vs = [SparsePolynomial.variable(f"v{i}", names) for i in range(1, n + 1)]
    universal = witt_mul(WittVector(us), WittVector(vs)).coords
    rng = random.Random(5)
    for _ in range(25):
        uvals = [rng.randrange(-6, 7) for _ in range(n)]
        vvals = [rng.randrange(-6, 7) for _ in range(n)]
        direct = witt_mul(WittVector(uvals), WittVector(vvals))
        assignment = {f"u{i + 1}": uvals[i] for i in range(n)}
        assignment.update({f"v{i + 1}": vvals[i] for i in range(n)})
        specialized = WittVector([p.evaluate(assignment) for p in universal])
        assert specialized == direct


def test_ghost_is_ring_homomorphism_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 13)
        poly = rng.random() < 0.3
        u, v = rand_vector(rng, n, poly), rand_vector(rng, n, poly)
        assert to_ghost(witt_add(u, v)) == to_ghost(u) + to_ghost(v)
        assert to_ghost(witt_mul(u, v)) == to_ghost(u) * to_ghost(v)


# -- series round trip ----------------------------------------------------------


def test_series_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 9)
        w = rand_vector(rng, n, polynomial=rng.random() < 0.5)
        assert WittVector.from_series(w.to_series()) == w


def test_from_series_requires_unit_constant():
    with pytest.raises(ValueError):
        WittVector.from_series(TruncatedSeries("t", [0, 1], 2))


# -- Frobenius / Verschiebung -----------------------------------------------------


def test_frobenius_examples():
    a = teichmueller(A, 12)
    for n in (1, 2, 3, 4):
        assert witt_frobenius(n, a) == teichmueller(A**n, 12 // n)
    w = WittVector([5, -2, 3, 0, 1, 4])
    assert witt_frobenius(1, w) == w
    v = witt_verschiebung(2, teichmueller(3, 3))
    f = witt_frobenius(2, v)
    assert to_ghost(f).entries == (6, 18, 54)
    doubled = witt_add(teichmueller(3, 3), teichmueller(3, 3))
    assert f == doubled


def test_frobenius_insufficient_length():
    with pytest.raises(ValueError):
        witt_frobenius(4, WittVector([1, 2, 3]))


def test_verschiebung_examples():
    v = witt_verschiebung(2, teichmueller(3, 1))
    assert v.coords == (0, 3, 0)
    assert v.to_series(3).coefficients == (1, 0, 3, 0)
    w = WittVector([5, -2])
    assert witt_verschiebung(1, w) == w
    g = to_ghost(witt_verschiebung(3, teichmueller(1, 3)))
    assert g.entries == (0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0)


def test_verschiebung_truncation_parameter():
    v = witt_verschiebung(2, teichmueller(3, 4), length=4)
    assert v.coords == (0, 3, 0, 0)
    with pytest.raises(ValueError):
        witt_verschiebung(2, teichmueller(3, 2), length=9)


def test_truncate():
    w = WittVector([2, -1, -2])
    assert witt_truncate(w, 1).coords == (2,)
    assert witt_truncate(witt_truncate(w, 2), 1) == witt_truncate(w, 1)
    with pytest.raises(ValueError):
        witt_truncate(w, 4)
    rng = random.Random(13)
    for _ in range(20):
        u, v = rand_vector(rng, 8), rand_vector(rng, 8)
        k = rng.randrange(1, 9)
        assert witt_truncate(witt_add(u, v), k) == witt_add(
            witt_truncate(u, k), witt_truncate(v, k)
        )


# -- filtration behavior -----------------------------------------------------------


def test_verschiebung_filtration():
    # vanishing coordinates through n stay vanishing through m*n + m - 1
    rng = random.Random(17)
    for m in (2, 3, 4):
        for n in (1, 2, 3):
            tail = [rng.randrange(-5, 6) for _ in range(3)]
            w = WittVector([0] * n + tail)
            v = witt_verschiebung(m, w)
            assert all(c == 0 for c in v.coords[: m * n + m - 1])


def test_frobenius_filtration():
    rng = random.Random(19)
    for m in (2, 3):
        for n in (1, 2):
            tail = [rng.randrange(-5, 6) for _ in range(m)]
            w = WittVector([0] * (m * n) + tail)
            f = witt_frobenius(m, w)
            assert all(c == 0 for c in f.coords[:n])


# -- operator relations (small versions; the full sweep is in acceptance) ----------


def relation_lengths(n, total):
    return min(total // n, total)


def test_fv_relations_small():
    rng = random.Random(23)
    total = 12
    for m in (2, 3, 4):
        for _ in range(5):
            alpha = rand_vector(rng, total)
            beta = rand_vector(rng, total)
            # F_m V_m = m
            fv = witt_frobenius(m, witt_verschiebung(m, alpha))
            scaled = witt_scale_int(m, alpha)
            k = min(fv.length, scaled.length)
            assert witt_truncate(fv, k) == witt_truncate(scaled, k)
            # V_m(alpha . F_m beta) = (V_m alpha) . beta
            j = total // m
            a = witt_truncate(alpha, j)
            lhs = witt_verschiebung(m, witt_mul(a, witt_frobenius(m, beta)))
            rhs_len = min(lhs.length, total)
            rhs = witt_mul(
                witt_verschiebung(m, a, length=rhs_len),
                witt_truncate(beta, rhs_len),
            )
            assert witt_truncate(lhs, rhs_len) == rhs


def test_fv_commute_coprime_small():
    rng = random.Random(29)
    total = 12
    for m, k in ((2, 3), (3, 4), (2, 5)):
        assert gcd(m, k) == 1
        alpha = rand_vector(rng, total)
        lhs = witt_verschiebung(k, witt_frobenius(m, alpha))
        rhs = witt_frobenius(m, witt_verschiebung(k, alpha))
        n = min(lhs.length, rhs.length)
        assert witt_truncate(lhs, n) == witt_truncate(rhs, n)


def _mixed_coordinate(rng, foreign):
    """An int, a zero polynomial, a constant or a degree-1 polynomial in x, or
    (with ``foreign``) a constant or a polynomial in y."""
    kind = rng.randrange(6 if foreign else 4)
    if kind == 0:
        return rng.randint(-2, 2)
    if kind == 1:
        return SparsePolynomial(("x",), {})
    if kind == 2:
        return SparsePolynomial(("x",), {(e,): rng.randint(-2, 2) for e in (0, 1)})
    if kind == 3:
        return SparsePolynomial(("x",), {(0,): rng.randint(-2, 2)})
    if kind == 4:
        return SparsePolynomial(("y",), {(0,): rng.randint(-2, 2)})
    return SparsePolynomial(("y",), {(e,): rng.randint(-2, 2) for e in (0, 1)})


def _sieved(w):
    """The ghost of ``w`` by a fresh sieve, not the one ``w`` keeps."""
    return [value_to_obj(g) for g in to_ghost(WittVector(w.coords))]


def test_operation_ghost_prints_like_ghost_of_result():
    """The ghost a ring operation's result keeps is the sieve of its
    coordinates, down to which entries are ints and over which variables
    the others are."""
    rng = random.Random(7)
    compared = 0
    for _ in range(500):
        n, foreign = rng.randint(1, 8), rng.random() < 0.3
        u = WittVector([_mixed_coordinate(rng, foreign) for _ in range(n)])
        v = WittVector([_mixed_coordinate(rng, foreign) for _ in range(n)])
        for op, operands in (
            (witt_add, (u, v)),
            (witt_mul, (u, v)),
            (witt_neg, (u,)),
            (witt_frobenius, (rng.randint(1, 3), u)),
        ):
            try:
                w = op(*operands)
                ghost = [value_to_obj(g) for g in to_ghost(w)]
            except ValueError:  # coordinates over both x and y, or n < m
                continue
            assert ghost == _sieved(w)
            compared += 1
    assert compared > 1500


def test_frobenius_one_is_truncation():
    """F_1 keeps each coordinate as given: its result prints like
    witt_truncate's, and so does its ghost, for every output length."""
    rng = random.Random(11)
    compared = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        u = WittVector([_mixed_coordinate(rng, True) for _ in range(n)])
        for k in range(1, n + 1):
            w = witt_frobenius(1, u, k)
            assert json_dumps(witt_to_obj(w)) == json_dumps(witt_to_obj(witt_truncate(u, k)))
            try:
                ghost = [value_to_obj(g) for g in to_ghost(w)]
            except ValueError:  # nonconstant coordinates over both x and y
                continue
            assert ghost == _sieved(w)
            compared += 1
    assert compared > 1000


def test_results_keep_their_ghost(monkeypatch):
    """A ring operation's result, and from_ghost's, keeps the ghost the
    pullback summed: to_ghost reads it again without a sieve, and the sieve
    runs once on each operand and never on a result."""
    sieved = []  # one entry per coordinate the sieve or the pullback reads
    real_terms = witt._ghost_terms
    monkeypatch.setattr(witt, "_ghost_terms", lambda d, a, n: sieved.append(d) or real_terms(d, a, n))
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 8)
        u, v = rand_vector(rng, n), rand_vector(rng, n, polynomial=True)
        g = to_ghost(rand_vector(rng, n))
        m = rng.randint(2, n)
        for op, operands in (
            (witt_add, (u, v)),
            (witt_neg, (u,)),
            (witt_mul, (u, v)),
            (lambda w: witt_frobenius(m, w), (u,)),
            (lambda: from_ghost(g), ()),
        ):
            operands = [WittVector(w.coords) for w in operands]  # no kept ghost yet
            sieved.clear()
            r = op(*operands)
            # each operand sieved once, r read once by the pullback
            assert len(sieved) == sum(w.length for w in operands) + r.length
            sieved.clear()
            ghost = to_ghost(r)
            assert to_ghost(r) == ghost
            assert all(to_ghost(w) == to_ghost(w) for w in operands)
            assert sieved == []  # read again, sieved no more
            assert witt_add(r, r) == witt_scale_int(2, r)
            assert len(sieved) == 2 * r.length  # two pullbacks, no sieve at all
            assert [value_to_obj(x) for x in ghost] == _sieved(r)


def test_zx_operands_keep_dicts_through_to_ghost_and_from_ghost(monkeypatch):
    """Over Z[x], to_ghost leaves a vector's kept ghost as it is, and from_ghost's result keeps dicts: a ring
    operation on either runs no GhostVector arithmetic and no from_ghost, and gives what it gives on fresh
    vectors.  An operand with a nonzero int coordinate keeps dicts too, and its product gives what the
    GhostVector product gives."""
    rng = random.Random(55)
    u, w = rand_vector(rng, 16, polynomial=True), rand_vector(rng, 16, polynomial=True)
    product = witt_mul(WittVector(w.coords), WittVector(u.coords))
    total = witt_add(WittVector(u.coords), WittVector(u.coords))
    mixed = WittVector((3,) + w.coords[1:])
    mixed_product = from_ghost(to_ghost(WittVector(mixed.coords)) * to_ghost(WittVector(u.coords)))
    v = from_ghost(to_ghost(w))
    kept = witt._kept_ghost(u)
    to_ghost(u)
    assert witt._kept_ghost(u) is kept

    def refuse(*args):
        raise AssertionError("a Z[x] ring operation left the kept dicts")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__mul__"):
            patch.setattr(GhostVector, name, refuse)
        patch.setattr(witt, "from_ghost", refuse)
        got = witt_mul(v, u), witt_add(u, u), witt_mul(mixed, u)
    expected = product, total, mixed_product
    assert [json_dumps(witt_to_obj(r)) for r in got] == [json_dumps(witt_to_obj(r)) for r in expected]
    assert [to_ghost(r) for r in got] == [to_ghost(r) for r in expected]
    assert witt._kept_ghost(mixed)[0] == witt._kept_ghost(got[2])[0] == ("a",)


def test_a_ghost_that_does_not_pull_back_is_a_library_defect(monkeypatch):
    """A ring operation whose ghost is not integral raises GhostInvariantViolation, naming the operation and
    the index: with ``witt.x_mul`` adding x to every product, g_2 - c_1^2 gains x - x^2 - 2 c_1 x, odd at x."""
    x = SparsePolynomial.variable("x")
    u, v = WittVector([x, 1 + x]), WittVector([2 * x, x])
    to_ghost(u), to_ghost(v)  # both sieved before the patch
    real = witt.x_mul
    monkeypatch.setattr(witt, "x_mul", lambda a, b: {**(p := real(a, b)), 1: p.get(1, 0) + 1})
    with pytest.raises(GhostInvariantViolation, match=r"^witt_mul produced a non-integral ghost vector at index 2; "):
        witt_mul(u, v)


@pytest.mark.parametrize("n", [True, Fraction(2), 2.0], ids=["bool", "fraction", "float"])
@pytest.mark.parametrize("polynomial", [False, True], ids=["Z", "Z[x]"])
def test_scale_takes_only_an_int(n, polynomial):
    """witt_scale_int refuses every n but an int, over Z and over Z[x] alike, before any sieve."""
    u = rand_vector(random.Random(3), 4, polynomial=polynomial)
    with pytest.raises(TypeError, match=f"^witt_scale_int scales by an int, not {type(n).__name__}$"):
        witt_scale_int(n, u)
    assert u._ghost is None


# -- the sieve over {x exponent: int} dicts ------------------------------------------------


def _naive_to_ghost(coords):
    """The divisor sums ``g_m = sum_{d|m} d * a_d^(m/d)`` over SparsePolynomial arithmetic, each
    power one product past the last, summed into ``0`` in increasing d."""
    entries = [0] * len(coords)
    for d, a in enumerate(coords, start=1):
        if a:
            power = a
            for m in range(d, len(coords) + 1, d):
                entries[m - 1] = entries[m - 1] + d * power
                power = power * a
    return entries


def _naive_from_ghost(entries):
    """Coordinates and kept ghost of the ghost recursion over SparsePolynomial arithmetic, or the
    IntegralityError it stops at."""
    n = len(entries)
    rest, ghost, coords = list(entries), [0] * n, []
    for k in range(1, n + 1):
        try:
            coords.append(divide_exact(rest[k - 1], k))
        except NonIntegralError as exc:
            if not is_integral(rest[k - 1]):
                raise IntegralityError(k, f"g_{k} = {entries[k - 1]} is not an integer") from exc
            raise IntegralityError(k, str(exc)) from exc
        a, power = coords[-1], coords[-1]
        for m in range(k, n + 1, k) if a else ():
            rest[m - 1] = rest[m - 1] - k * power
            ghost[m - 1] = ghost[m - 1] + k * power
            power = power * a
    return coords, ghost


def _typed(values):
    """Each value's type and object, and the type of each of its coefficients."""
    return [(type(v), value_to_obj(v), sorted((e, type(c)) for e, c in getattr(v, "terms", {}).items()))
            for v in values]


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except (IntegralityError, ValueError) as exc:
        return "error", type(exc), str(exc), getattr(exc, "index", None)


def _random_value(rng, kinds):
    kind = rng.choice(kinds)
    coefficient = lambda: rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == "zero":
        return 0
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "zero-x":
        return SparsePolynomial(("x",), {})
    if kind == "x":
        return SparsePolynomial(("x",), {(e,): coefficient() for e in rng.sample(range(4), rng.randint(1, 3))})
    if kind == "y":
        return SparsePolynomial(("y",), {(e,): coefficient() for e in rng.sample(range(3), rng.randint(1, 2))})
    if kind == "xy":
        return SparsePolynomial(("x", "y"), {(1, 0): coefficient(), (0, rng.randint(0, 1)): coefficient()})
    return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))  # "fraction", a ghost entry only


def _zx_route(values):
    """The variables a vector of ints, fractions and polynomials in x keeps dicts over: ("x",) if it has no
    fraction and a polynomial, else None."""
    kinds = set(map(type, values))
    return ("x",) if SparsePolynomial in kinds and kinds <= {int, SparsePolynomial} else None


def test_sieve_over_dicts_matches_a_naive_sieve():
    """to_ghost and from_ghost return what the divisor sums and the ghost recursion over
    SparsePolynomial arithmetic return, value, type and variables of every coordinate and every
    kept-ghost entry, or fail at the same index with the same text, and over Z[x] keep dicts;
    most inputs are vectors over Z[x] with ints and zero polynomials among their values, the
    rest mix in polynomials in y or in x and y, and rational ghost entries and coefficients.  The last trials run at lengths
    10-16, as the benchmark's Witt requests do, so the powers reach a^16."""
    # at index 4 the x^1 term of the remainder cancels and comes back, after the constant term,
    # and both coefficients are not divisible by 4: the message names the constant's
    terms = [{1: 3, 0: -1}, {2: -3, 0: 3}, {1: -3, 0: -1}, {0: 1, 1: -1}, {}, {1: 1, 2: -3}]
    entries = [SparsePolynomial(("x",), {(e,): c for e, c in t.items()}) for t in terms]
    assert _outcome(from_ghost, GhostVector(entries)) == _outcome(_naive_from_ghost, entries) == (
        "error", IntegralityError, "integrality failure at index 4: -1 is not divisible by 4", 4)
    rng = random.Random(40)
    zx, mixed = ["zero", "int", "zero-x", "x", "x", "x"], ["zero", "int", "zero-x", "x", "y", "xy"]
    failures, lengths = 0, set()
    for trial in range(440):
        n = rng.randint(1, 9) if trial < 400 else rng.randint(10, 16)
        lengths.add(n)
        kinds = zx if trial % 3 else mixed
        coords = [_random_value(rng, kinds) for _ in range(n)]
        expected = _outcome(_naive_to_ghost, coords)
        w = WittVector(coords)
        got = _outcome(lambda: list(to_ghost(w)))
        if expected[0] == "value":
            assert got[0] == "value" and _typed(got[1]) == _typed(expected[1])
            if kinds is zx:  # ints ride the dict route beside polynomials in x
                assert witt._kept_ghost(w)[0] == _zx_route(coords)
            entries = list(expected[1])
        else:
            assert got[:3] == expected[:3]
            entries = [_random_value(rng, kinds) for _ in range(n)]
        if rng.random() < 0.4:  # spoil one entry: a remainder that k may not divide
            k, extra = rng.randrange(n), _random_value(rng, kinds + ["int", "fraction"])
            entries[k] = extra if _outcome(lambda: entries[k] + extra)[0] == "error" else entries[k] + extra
        expected = _outcome(_naive_from_ghost, entries)
        got = _outcome(from_ghost, GhostVector(entries))
        if expected[0] == "value":
            assert got[0] == "value"
            coords, ghost = expected[1]
            assert _typed(got[1].coords) == _typed(coords)
            assert _typed(to_ghost(got[1]).entries) == _typed(ghost)
            assert kinds is not zx or got[1]._ghost[0] == _zx_route(entries)
        else:
            assert got == expected
            failures += expected[1] is IntegralityError
    assert failures > 50 and 16 in lengths


def test_sieve_over_zx_multiplies_no_polynomials(monkeypatch):
    """Over Z[x] both directions of the ghost map run on dicts: no SparsePolynomial product."""
    products = []

    def counted(self, other, real=SparsePolynomial.__mul__):
        products.append(other)
        return real(self, other)

    x = SparsePolynomial.variable("x")
    w = WittVector([0, x + 1, SparsePolynomial(("x",), {}), 3 * x**2 - x, 2 + 0 * x])
    g = GhostVector(_naive_to_ghost(w.coords))
    monkeypatch.setattr(SparsePolynomial, "__mul__", counted)
    monkeypatch.setattr(SparsePolynomial, "__rmul__", counted)
    assert _typed(to_ghost(w)) == _typed(g)
    assert from_ghost(g) == w
    assert products == []
    to_ghost(WittVector([x + 1, SparsePolynomial(("y",), {(0,): 2})]))  # two variables: the generic sieve
    assert products


def test_zx_requests_build_no_polynomial_but_their_results(monkeypatch, capsys):
    """A witt request over Z[x] reads its coordinates without the validating constructor, keeps its
    ghost entries as dicts between the sieve and the pullback, and makes polynomials only of the
    coordinates it reads and the values it prints, each once: no SparsePolynomial.__init__, no
    polynomial sum or product, and one trusted construction per polynomial read or printed."""
    from wittkit.cli import main

    calls, built = [], []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("__init__", "__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__neg__"):
        monkeypatch.setattr(SparsePolynomial, name, counted(name, getattr(SparsePolynomial, name)))
    canonical = SparsePolynomial._canonical
    monkeypatch.setattr(SparsePolynomial, "_canonical", lambda *args: built.append(1) or canonical(*args))
    rng = random.Random(41)
    for length in (6, 13):
        u, v = (json.dumps({"coords": [0, {"variables": ["x"], "terms": []}, *(
            {"variables": ["x"], "terms": [{"exponents": [e], "coefficient": str(rng.randint(-2, 2))} for e in (0, 1)]}
            for _ in range(length - 2))]}) for _ in range(2))
        for argv in (("add", "--u", u, "--v", v), ("mul", "--u", u, "--v", v),
                     ("frobenius", "--m", "2", "--u", u), ("ghost", "--u", v)):
            for fmt in ("json", "tsv"):
                built.clear()
                assert main(["witt", "--op", *argv, "--format", fmt]) == 0
                out = capsys.readouterr().out
                if fmt == "json":  # every polynomial read (length - 1 a vector) and printed, built once
                    read = (length - 1) * sum(arg.startswith("{") for arg in argv)
                    assert len(built) == read + out.count('"variables":["x"]')
    assert calls == []
