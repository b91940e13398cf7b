"""Truncated generalized (big) Witt vectors over torsion-free rings.

A length-``n`` vector with coordinates ``a_1..a_n`` stands for the power
series ``prod_i (1 - a_i t^i)^(-1)`` in the multiplicative group
``1 + t*A[[t]]``, taken modulo ``1 + t^(n+1)*A[[t]]``.  Addition is series
multiplication.  The ring product and the Frobenius operators are defined
through the ghost map

    g_k = sum over divisors d of k of  d * a_d^(k/d),

which is an injective ring homomorphism onto entrywise arithmetic whenever
the coefficient ring is torsion-free; it and its inverse are computed by a
sieve over multiples.  Every operation here computes on ghost components and
pulls back, asserting exact divisibility at each step; the coefficient rings
in scope (Z and Z[x]) make that pullback exact by theory, so a divisibility
failure inside a ring operation is a library defect, not a data error.

A vector keeps its ghost: the pullback sums the powers ``k * a_k^(m/k)`` it
subtracts into the ghost of its result, and ``to_ghost`` runs the sieve at
most once per vector.  The kept ghost is what the sieve would return, entry
for entry; equality, hashing and repr read only the coordinates.

Coordinates must be integral (ints, or polynomials with integer
coefficients); rings with torsion are rejected at construction.  All values
are immutable and all operations pure; the kept ghost is written once, and
two threads that race on it only compute equal values twice.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul
from typing import Iterable

from .polynomials import NonIntegralError, Value, as_integral, divide_exact, is_integral
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
        return f"GhostVector({list(self.entries)!r})"

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

    def __neg__(self):
        return GhostVector(-a for a in self.entries)

    def scale(self, c: int) -> "GhostVector":
        return GhostVector(a * c for a in self.entries)


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
        self._ghost: GhostVector | None = None

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
        return f"WittVector({list(self.coords)!r})"

    def __add__(self, other):
        if isinstance(other, WittVector):
            return witt_add(self, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, WittVector):
            return witt_mul(self, other)
        return NotImplemented

    def __neg__(self):
        return witt_neg(self)

    def __sub__(self, other):
        if isinstance(other, WittVector):
            return witt_add(self, witt_neg(other))
        return NotImplemented

    def to_series(self, order: int | None = None, variable: str = "t") -> TruncatedSeries:
        """The series ``prod (1 - a_i t^i)^(-1)`` modulo ``t^(order+1)``."""
        order = self.length if order is None else order
        denom = TruncatedSeries.constant(1, variable, order)
        for i, a in enumerate(self.coords, start=1):
            if not a or i > order:
                continue
            factor_coeffs: list[Value] = [0] * (order + 1)
            factor_coeffs[0] = 1
            factor_coeffs[i] = -a
            denom = denom * TruncatedSeries(variable, factor_coeffs, order)
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
                factor_coeffs: list[Value] = [0] * (n + 1)
                factor_coeffs[0] = 1
                factor_coeffs[i] = -a
                h = h * TruncatedSeries(series.variable, factor_coeffs, n)
        return cls(coords)


def teichmueller(a: Value, length: int) -> WittVector:
    """The multiplicative lift ``(a, 0, ..., 0)``, the series (1-at)^(-1)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return WittVector([a] + [0] * (length - 1))


def _ghost_terms(d: int, a: Value, n: int):
    """``(m - 1, d * a^(m/d))`` for each multiple m <= n of d, one product per multiple."""
    if not a:
        return ()
    return ((m - 1, d * power) for m, power in zip(range(d, n + 1, d), accumulate(repeat(a), mul)))


def to_ghost(w: WittVector) -> GhostVector:
    """Ghost components ``g_k = sum_{d|k} d * a_d^(k/d)``, by a sieve over
    multiples; the vector keeps them, so the sieve runs once per vector."""
    if w._ghost is None:
        entries: list[Value] = [0] * w.length
        for d, a in enumerate(w.coords, start=1):
            for i, term in _ghost_terms(d, a, w.length):
                entries[i] = entries[i] + term
        w._ghost = GhostVector(entries)
    return w._ghost


def from_ghost(g: GhostVector) -> WittVector:
    """Solve the ghost recursion; raises IntegralityError when the input is
    not the ghost of an integral vector (first failing index reported).

    The result keeps the ghost summed from the powers the recursion
    subtracts, in the order ``to_ghost`` sums them.
    """
    rest, ghost = list(g.entries), [0] * g.length
    coords: list[Value] = []
    for k in range(1, g.length + 1):
        try:
            coords.append(divide_exact(rest[k - 1], k))
        except NonIntegralError as exc:
            # the subtracted terms are integral, so a non-integral rest means g_k is not
            if not is_integral(rest[k - 1]):
                raise IntegralityError(k, f"g_{k} = {g.entries[k - 1]} is not an integer") from exc
            raise IntegralityError(k, str(exc)) from exc
        for i, term in _ghost_terms(k, coords[-1], g.length):
            rest[i] = rest[i] - term
            ghost[i] = ghost[i] + term
    w = WittVector(coords)
    w._ghost = GhostVector(ghost)
    return w


def _pullback(g: GhostVector, operation: str) -> WittVector:
    try:
        return from_ghost(g)
    except IntegralityError as exc:
        raise GhostInvariantViolation(
            f"{operation} produced a non-integral ghost vector at index {exc.index}; "
            "this is a library defect for torsion-free coefficient rings"
        ) from exc


def _check_lengths(u: WittVector, v: WittVector) -> None:
    if u.length != v.length:
        raise ValueError(f"length mismatch: {u.length} vs {v.length}")


def witt_add(u: WittVector, v: WittVector) -> WittVector:
    """Group law of 1 + tA[[t]]: multiplication of the series forms."""
    _check_lengths(u, v)
    return _pullback(to_ghost(u) + to_ghost(v), "witt_add")


def witt_neg(u: WittVector) -> WittVector:
    return _pullback(-to_ghost(u), "witt_neg")


def witt_mul(u: WittVector, v: WittVector) -> WittVector:
    """Ring product, defined by entrywise ghost multiplication.

    >>> w = witt_mul(WittVector([1, 2]), WittVector([3, 0]))
    >>> w, to_ghost(w)
    (WittVector([3, 18]), GhostVector([3, 45]))
    >>> to_ghost(w) is to_ghost(w)
    True
    """
    _check_lengths(u, v)
    return _pullback(to_ghost(u) * to_ghost(v), "witt_mul")


def witt_scale_int(n: int, u: WittVector) -> WittVector:
    """Multiplication by the integer n (n-fold addition)."""
    return _pullback(to_ghost(u).scale(n), "witt_scale_int")


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
    g = to_ghost(w)
    g = GhostVector(g.entries[m * j - 1] for j in range(1, k + 1))
    return _pullback(g, "witt_frobenius")


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
