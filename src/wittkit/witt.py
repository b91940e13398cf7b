"""Truncated generalized (big) Witt vectors over torsion-free rings.

A length-``n`` vector with coordinates ``a_1..a_n`` stands for the power
series ``prod_i (1 - a_i t^i)^(-1)`` in the multiplicative group
``1 + t*A[[t]]``, taken modulo ``1 + t^(n+1)*A[[t]]``.  Addition is series
multiplication.  The ring product and the Frobenius operators are defined
through the ghost map

    g_k = sum over divisors d of k of  d * a_d^(k/d),

which is an injective ring homomorphism onto entrywise arithmetic whenever the
coefficient ring is torsion-free; it and its inverse are computed by a sieve
over multiples.  Every operation here computes on ghost components and pulls
back, asserting exact divisibility at each step; the rings in scope (Z and
Z[x]) make that pullback exact by theory, so a divisibility failure inside a
ring operation is a library defect, not a data error.

A vector keeps its ghost, written once, by the sieve or by the pullback, which
sums the powers ``k * a_k^(m/k)`` it subtracts; two threads that race on it only
compute equal values twice.  Each ring operation is one entrywise op on ghosts.
Over Z[x] (``polynomials.x_variables``) the sieve, the op and the pullback run
on ``{x exponent: int}`` dicts and ints, with SparsePolynomial's types: an
entry is an int until a dict term reaches it.  Equality, hashing and repr read
only the coordinates, which must be integral: rings with torsion are rejected
at construction.  All values are immutable and all operations pure.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul
from typing import Iterable

from .polynomials import NonIntegralError, Value, _value_repr, as_integral, divide_exact, is_integral
from .polynomials import SparsePolynomial, x_mul, x_polynomial, x_terms, x_variables
from .series import TruncatedSeries


class IntegralityError(ValueError):
    """A ghost vector is not the ghost of an integral Witt vector."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        message = f"integrality failure at index {index}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class GhostInvariantViolation(RuntimeError):
    """Internal defect: a ring operation produced a non-integral result."""


class GhostVector:
    """Plain container for ghost components, with entrywise arithmetic."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Value]):
        self.entries = tuple(entries)
        if not self.entries:
            raise ValueError("ghost vectors need at least one entry")

    @property
    def length(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GhostVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.length)

    def __repr__(self):
        return f"GhostVector([{', '.join(map(_value_repr, self.entries))}])"

    def _zip(self, other: "GhostVector") -> zip:
        if not isinstance(other, GhostVector):
            raise TypeError("expected a GhostVector")
        if self.length != other.length:
            raise ValueError(f"ghost length mismatch: {self.length} vs {other.length}")
        return zip(self.entries, other.entries)

    def __add__(self, other):
        return GhostVector(a + b for a, b in self._zip(other))

    def __mul__(self, other):
        return GhostVector(a * b for a, b in self._zip(other))


class WittVector:
    """A length-``n`` generalized Witt vector with integral coordinates."""

    __slots__ = ("coords", "_ghost")

    def __init__(self, coords: Iterable[Value]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("Witt vectors need length >= 1")
        checked = []
        for i, a in enumerate(coords, start=1):
            try:
                checked.append(as_integral(a))
            except NonIntegralError as exc:
                raise ValueError(
                    f"coordinate a_{i} must lie in a torsion-free integral ring: {exc}"
                ) from exc
        self.coords = tuple(checked)
        self._ghost: tuple | None = None  # (variables, entries): see _kept_ghost

    @property
    def length(self) -> int:
        return len(self.coords)

    @classmethod
    def zero(cls, length: int) -> "WittVector":
        return cls([0] * length)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WittVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.length)

    def __repr__(self):
        return f"WittVector([{', '.join(map(_value_repr, self.coords))}])"

    def to_series(self, order: int | None = None, variable: str = "t") -> TruncatedSeries:
        """The series ``prod (1 - a_i t^i)^(-1)`` modulo ``t^(order+1)``."""
        order = self.length if order is None else order
        denom = TruncatedSeries.constant(1, variable, order)
        for i, a in enumerate(self.coords, start=1):
            if a and i <= order:
                denom = denom * TruncatedSeries(variable, [1] + [0] * (i - 1) + [-a], order)
        return denom.inverse()

    @classmethod
    def from_series(cls, series: TruncatedSeries) -> "WittVector":
        """Read coordinates off a series with constant term 1.

        Inverse of :meth:`to_series`; the length is the series order.
        """
        if series.coefficient(0) != 1:
            raise ValueError("Witt coordinates require a series with constant term 1")
        n = series.order
        if n < 1:
            raise ValueError("need order >= 1 to carry coordinates")
        coords: list[Value] = []
        h = series
        for i in range(1, n + 1):
            a = h.coefficient(i)
            coords.append(a)
            if a:
                h = h * TruncatedSeries(series.variable, [1] + [0] * (i - 1) + [-a], n)
        return cls(coords)


def teichmueller(a: Value, length: int) -> WittVector:
    """The multiplicative lift ``(a, 0, ..., 0)``, the series (1-at)^(-1)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return WittVector([a] + [0] * (length - 1))


def _ghost_terms(d: int, a: Value | dict, n: int):
    """``(m - 1, d * a^(m/d))`` for each multiple m <= n of d, one product per multiple, of a value or a dict: d * a^j
    is (d * a^(j-1)) * a, at d = 1 a itself, no copy; for a dict, ``x_mul``'s loop written out, no call per power."""
    if not a:
        return
    if type(a) is not dict:
        yield from zip(range(d - 1, n, d), accumulate(repeat(a), mul, initial=a * d if d > 1 else a))
        return
    term = x_mul(a, d) if d > 1 else a
    yield d - 1, term
    for i in range(2 * d - 1, n, d):
        out: dict = {}
        for e1, c1 in term.items():
            for e2, c2 in a.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        term = out if all(out.values()) else {e: c for e, c in out.items() if c}
        yield i, term


def _kept_ghost(w: WittVector) -> tuple:
    """The ghost ``w`` keeps, the sieve run once: ``(variables, entries)``; over Z[x] an entry is an
    ``{x exponent: int}`` dict where to_ghost has a polynomial and an int where it has one, else
    ``variables`` is None and the entries are to_ghost's."""
    if w._ghost is None:
        n, variables = w.length, x_variables(w.coords)
        entries: list = [0] * n  # over Z[x], an entry is an int until a dict term reaches it
        for d, a in enumerate(w.coords, start=1):
            for i, term in _ghost_terms(d, x_terms(a) if variables and type(a) is not int else a, n):
                acc = entries[i]
                if type(acc) is not dict and type(term) is not dict:  # values, or ints of a Z[x] vector
                    entries[i] = acc + term
                    continue
                if type(acc) is not dict:
                    acc = entries[i] = {0: acc} if acc else {}
                for e, c in term.items() if type(term) is dict else ((0, term),):
                    acc[e] = acc.get(e, 0) + c
        w._ghost = variables, [s if type(s) is int or all(s.values()) else {e: c for e, c in s.items() if c}
                               for s in entries] if variables else entries
    return w._ghost


def to_ghost(w: WittVector) -> GhostVector:
    """Ghost components ``g_k = sum_{d|k} d * a_d^(k/d)``, by a sieve over
    multiples; the vector keeps them, so the sieve runs once per vector, and
    each call reads them into a fresh GhostVector."""
    variables, entries = _kept_ghost(w)
    return GhostVector(entries if variables is None else
                       [x_polynomial(variables, s) if type(s) is dict else s for s in entries])


def from_ghost(g: GhostVector) -> WittVector:
    """Solve the ghost recursion; raises IntegralityError when the input is not the ghost of an integral
    vector (first failing index reported).  The result keeps the ghost summed from the powers it subtracts."""
    variables = x_variables(g.entries)  # over Z[x], a coefficient Fraction(n, 1) is read as the int n
    return _solve(variables, [x_terms(as_integral(a) if is_integral(a) else a) if type(a) is SparsePolynomial else a
                              for a in g] if variables else g.entries, g.entries)


def _solve(variables: tuple | None, entries, values=()) -> WittVector:
    """The ghost recursion on to_ghost's entries, or on its dicts and ints, which it leaves as they are, and
    the result keeps its ghost in the same form; ``values``, if given, are the entries as to_ghost has them."""
    n = len(entries)
    rest, ghost, coords = [dict(a) if type(a) is dict else a for a in entries], [0] * n, []
    for k, rk in enumerate(rest, start=1):  # rk: rest[k - 1] as the terms of every d < k left it
        try:
            coords.append({e: divide_exact(c, k) for e, c in rk.items()} if type(rk) is dict else divide_exact(rk, k))
        except NonIntegralError as exc:
            if values and not is_integral(values[k - 1]):
                raise IntegralityError(k, f"g_{k} = {values[k - 1]} is not an integer") from exc
            raise IntegralityError(k, str(exc)) from exc
        for i, term in _ghost_terms(k, coords[-1], n):
            acc = rest[i]  # in the term order of SparsePolynomial's differences, which drop a zero term
            if type(term) is dict:  # ghost[i]: a dict term reached entry i, so the kept ghost is the entry
                ghost[i], terms = True, term.items()
                if type(acc) is not dict:  # r - P is -P, then the constant r
                    terms = [*terms, (0, -acc)] if acc else terms
                    acc = rest[i] = {}
            elif type(acc) is dict:  # P - c
                terms = ((0, term),)
            else:
                rest[i], ghost[i] = acc - term, ghost[i] + term
                continue
            for e, c in terms:
                if c := acc.get(e, 0) - c:
                    acc[e] = c
                else:
                    del acc[e]
    w = object.__new__(WittVector)  # integral by construction: no second as_integral scan
    if variables:  # a coordinate is a polynomial where its remainder was a dict, a ghost entry where a dict term came
        coords = [x_polynomial(variables, a) if type(a) is dict else a for a in coords]
        ghost = [(e if type(e) is dict else {0: e} if e else {}) if r is True else e if type(e) is int
                 else e.get(0, 0) for e, r in zip(entries, ghost)]
    w.coords, w._ghost = tuple(coords), (variables, ghost)
    return w


def _pullback(operation: str, op, *vectors: WittVector) -> WittVector:
    """``op``, an entrywise list operation, of the vectors' ghosts, pulled back: of their kept dicts and ints if
    every vector keeps dicts over the same variable, else of to_ghost's values, through from_ghost."""
    if vectors[0].length != vectors[-1].length:
        raise ValueError(f"length mismatch: {vectors[0].length} vs {vectors[-1].length}")
    kept = [_kept_ghost(w) for w in vectors]
    try:
        if kept[0][0] and all(g[0] == kept[0][0] for g in kept):
            return _solve(kept[0][0], op(*(g[1] for g in kept)))
        return from_ghost(GhostVector(op(*(to_ghost(w).entries for w in vectors))))
    except IntegralityError as exc:
        raise GhostInvariantViolation(
            f"{operation} produced a non-integral ghost vector at index {exc.index}; "
            "this is a library defect for torsion-free coefficient rings"
        ) from exc


def _x_add(a, b) -> dict:
    """``a + b`` for dicts and ints, one a dict, with the SparsePolynomial sum's term order: c + P is P + c."""
    a, b = (a, b) if type(a) is dict else (b, a)
    out = {**a, **({0: a.get(0, 0) + b} if type(b) is int else {e: a.get(e, 0) + c for e, c in b.items()})}
    return out if all(out.values()) else {e: c for e, c in out.items() if c}


def witt_add(u: WittVector, v: WittVector) -> WittVector:
    """Group law of 1 + tA[[t]]: multiplication of the series forms."""
    add = lambda a, b: [_x_add(s, t) if type(s) is dict or type(t) is dict else s + t for s, t in zip(a, b)]
    return _pullback("witt_add", add, u, v)


def witt_neg(u: WittVector) -> WittVector:
    return _pullback("witt_neg", lambda a: [x_mul(s, -1) if type(s) is dict else -s for s in a], u)


def witt_mul(u: WittVector, v: WittVector) -> WittVector:
    """Ring product, defined by entrywise ghost multiplication.

    >>> w = witt_mul(WittVector([1, 2]), WittVector([3, 0]))
    >>> w, to_ghost(w)
    (WittVector([3, 18]), GhostVector([3, 45]))
    """
    times = lambda a, b: [x_mul(s, t) if type(s) is dict else x_mul(t, s) if type(t) is dict else s * t
                          for s, t in zip(a, b)]
    return _pullback("witt_mul", times, u, v)


def witt_scale_int(n: int, u: WittVector) -> WittVector:
    """Multiplication by the integer n (n-fold addition); any other n, a bool too, raises TypeError."""
    if type(n) is not int:
        raise TypeError(f"witt_scale_int scales by an int, not {type(n).__name__}")
    return _pullback("witt_scale_int", lambda a: [x_mul(s, n) if type(s) is dict else s * n for s in a], u)


def witt_frobenius(m: int, w: WittVector, length: int | None = None) -> WittVector:
    """F_m: ghost components are reindexed by ``g_j -> g_{mj}``.

    A length-``mk`` input is needed for a length-``k`` output.  F_1 is a
    truncation.
    """
    if m < 1:
        raise ValueError("Frobenius index must be >= 1")
    if length is not None and length < 1:
        raise ValueError("length must be >= 1")
    k_max = w.length // m
    k = k_max if length is None else length
    if k < 1 or k > k_max:
        raise ValueError(f"insufficient input length {w.length} for F_{m} at output length {k or 1}")
    if m == 1:
        return witt_truncate(w, k)
    return _pullback("witt_frobenius", lambda a: a[m - 1:m * k:m], w)


def witt_verschiebung(m: int, w: WittVector, length: int | None = None) -> WittVector:
    """V_m: the substitution ``t -> t^m`` on series forms.

    A length-``n`` input honestly determines ``m*n + m - 1`` output
    coordinates (coordinate ``a_i`` lands at index ``m*i``, all others are
    zero); pass ``length`` to truncate.
    """
    if m < 1:
        raise ValueError("Verschiebung index must be >= 1")
    if length is not None and length < 1:
        raise ValueError("length must be >= 1")
    full = m * w.length + m - 1
    out_len = full if length is None else length
    if out_len > full:
        raise ValueError(f"V_{m} of length {w.length} determines at most {full} coordinates")
    coords: list[Value] = [0] * out_len
    for i, a in enumerate(w.coords, start=1):
        if m * i <= out_len:
            coords[m * i - 1] = a
    return WittVector(coords)


def witt_truncate(w: WittVector, k: int) -> WittVector:
    """Drop coordinates beyond index k; a ring homomorphism."""
    if k < 1 or k > w.length:
        raise ValueError(f"cannot truncate length {w.length} to {k}")
    return WittVector(w.coords[:k])
