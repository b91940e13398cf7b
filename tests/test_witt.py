import random
from math import gcd

import pytest

from wittkit import witt
from wittkit.polynomials import SparsePolynomial
from wittkit.serialize import json_dumps, value_to_obj, witt_to_obj
from wittkit.series import TruncatedSeries
from wittkit.witt import (
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
    pullback summed: to_ghost hands back the same object every time, and
    the sieve runs once on each operand and never on a result."""
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
            assert to_ghost(r) is ghost
            assert all(to_ghost(w) is to_ghost(w) for w in operands)
            assert witt_add(r, r) == witt_scale_int(2, r)
            assert len(sieved) == 2 * r.length  # two pullbacks, no sieve at all
            assert [value_to_obj(x) for x in ghost] == _sieved(r)
