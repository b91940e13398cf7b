"""One-dimensional formal group laws from logarithms, and their curves.

A logarithm is a sequence of integral coefficients ``a_1..a_M`` with
``a_1 = 1``, standing for ``l(t) = sum a_m/m t^m``.  The group law it
generates is ``G(t1, t2) = l^(-1)(l(t1) + l(t2))``.  Synthesis needs no
reversion: ``G`` is the flow of the invariant derivation ``D = w(t) d/dt``,
``w = 1/l'(t)`` (integral, as ``a_1 = 1``), run from ``t1`` for time
``l(t2)``, so ``G = sum_k D^k(t1) l(t2)^k / k!``.  Every input of that sum
is integral up to one known denominator: with ``L = lcm(1..deg)``,
``L*l(t)`` is integral, so the sum is taken over integer numerators and
the common denominator ``L^deg * deg!`` is divided out once per
coefficient, at the end: the quotient is an int where the division is
exact, a Fraction otherwise.  ``G`` is commutative, so only the
coefficients ``G_ij`` with ``j <= i`` are summed: the flow runs
``floor(deg/2)`` steps, and each pair ``{G_ij, G_ji}`` is divided once,
into terms laid out in print order: a :class:`FormalGroupLaw` is its degree
and those nonzero terms ``{(i, j): G_ij}``, with no series around them.  The
flow's series are lists of coefficients: ``{x exponent: int}`` dicts, summed
in place and made polynomials once, at the division, when every ``a_m`` used
is a polynomial in one and the same variable, else the values.  Whether the
law has integral coefficients is a certificate checked after synthesis,
never an assumption.

Curves in the formal group are kept in log-coordinates ``eta = l(gamma)``:
formal-group addition becomes literal addition of series, scaling ``gamma(t)
-> gamma(at)`` multiplies the m-th coefficient by ``a^m``, ``V_k`` is the
substitution ``t -> t^k``, and ``F_k`` collapses to the reindexing

    eta = sum c_m t^m   |-->   F_k eta = sum_m' k * c_{k m'} t^m',

so no roots of unity are ever constructed.  The t-coordinate form
``gamma = l^(-1)(eta)`` is recovered on demand by series reversion, the
only use of reversion here.

For the multiplicative law (all ``a_m = 1``) the map ``gamma(t) ->
(1 - gamma(t))^(-1)`` identifies curves with Witt vectors and intertwines
every operator here with its Witt counterpart.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Iterable

from .polynomials import NonIntegralError, SparsePolynomial, Value, _value_repr, as_integral, is_integral
from .polynomials import x_add_products, x_mul, x_terms, x_variables
from .series import TruncatedSeries, TruncationError
from .witt import GhostVector, WittVector, from_ghost


class AmbientMismatchError(ValueError):
    """Two curves do not live over the same logarithm and truncation."""


class Logarithm:
    """Integral coefficient sequence ``a_1..a_M`` of a formal group logarithm."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Value]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a logarithm needs at least the coefficient a_1")
        checked = []
        for m, a in enumerate(coeffs, start=1):
            try:
                checked.append(as_integral(a))
            except NonIntegralError as exc:
                raise ValueError(f"coefficient a_{m} must be integral: {exc}") from exc
        if checked[0] != 1:
            raise ValueError("a logarithm requires a_1 = 1")
        self.coeffs = tuple(checked)

    @classmethod
    def _canonical(cls, coeffs: tuple) -> "Logarithm":
        """Trusted constructor for a new tuple of integral values, ints not Fractions, ``a_1 = 1``."""
        log = object.__new__(cls)
        log.coeffs = coeffs
        return log

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def coefficient(self, m: int) -> Value:
        """The stored integral coefficient ``a_m`` (1-indexed)."""
        if m < 1 or m > self.truncation:
            raise ValueError(f"a_{m} is outside truncation {self.truncation}")
        return self.coeffs[m - 1]

    def series(self, order: int | None = None, variable: str = "t") -> TruncatedSeries:
        """``l(t) = sum a_m/m t^m`` as a truncated series."""
        order = self.truncation if order is None else order
        if order > self.truncation:
            raise ValueError(f"order {order} exceeds logarithm truncation {self.truncation}")
        coeffs: list[Value] = [0]
        for m in range(1, order + 1):
            coeffs.append(self.coeffs[m - 1] * Fraction(1, m))
        return TruncatedSeries(variable, coeffs, order)

    def inverse_series(self, order: int, variable: str = "t") -> TruncatedSeries:
        """Compositional inverse of the logarithm."""
        return self.series(order, variable).reversion()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Logarithm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(len(self.coeffs))

    def __repr__(self):
        return f"Logarithm([{', '.join(map(_value_repr, self.coeffs))}])"

    def is_multiplicative(self) -> bool:
        return all(a == 1 for a in self.coeffs)


def multiplicative_logarithm(truncation: int) -> Logarithm:
    """All coefficients 1; the law t1 + t2 - t1*t2."""
    return Logarithm([1] * truncation)


class FormalGroupLaw:
    """A two-variable law truncated at total degree ``degree``: its nonzero terms
    ``{(i, j): G_ij}`` in print order (total degree, then i)."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        if degree < 0:
            raise ValueError("total-degree truncation must be nonnegative")
        for key in terms:
            if type(key) is not tuple or len(key) != 2 or any(type(e) is not int or e < 0 for e in key):
                raise ValueError(f"a term's key is a pair of ints >= 0, not {key!r}")
            if sum(key) > degree:
                raise TruncationError(f"term {key!r} exceeds total-degree truncation {degree}")
        self.degree = degree
        self.terms = {e: c for e, c in sorted(terms.items(), key=lambda item: (sum(item[0]), item[0])) if c}

    @classmethod
    def _canonical(cls, degree: int, terms: dict) -> "FormalGroupLaw":
        """Trusted constructor for a new dict of nonzero terms within ``degree``, in print order."""
        law = object.__new__(cls)
        law.degree, law.terms = degree, terms
        return law

    def sorted_terms(self) -> list[tuple[tuple, Value]]:
        """The terms ``((i, j), G_ij)`` as stored: by total degree, then by i."""
        return list(self.terms.items())

    def coefficient(self, i: int, j: int) -> Value:
        if i < 0 or j < 0:
            raise IndexError("negative degree")
        if i + j > self.degree:
            raise TruncationError(f"coefficient {(i, j)!r} unknown at total-degree truncation {self.degree}")
        return self.terms.get((i, j), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalGroupLaw):
            return NotImplemented
        return (self.degree, self.terms) == (other.degree, other.terms)

    def __hash__(self):
        return hash((self.degree, len(self.terms)))

    def as_integral(self) -> "FormalGroupLaw":
        """The same law with coefficients certified integral (raises if not)."""
        return FormalGroupLaw._canonical(self.degree, {e: as_integral(c) for e, c in self.terms.items()})


def group_law_from_logarithm(log: Logarithm, degree: int) -> FormalGroupLaw:
    """Synthesize ``G = l^(-1)(l(t1) + l(t2))`` to the given total degree,
    as ``sum_k f_k(t1) l(t2)^k / k!`` with ``f_0 = t``, ``f_(k+1) = f_k' w``.

    With ``L = lcm(1..degree)`` and ``lam = L*l`` (integral), the term ``k``
    is ``f_k(t1) lam(t2)^k * D/(L^k k!)`` over ``D = L^degree * degree!``:
    the integer numerators are summed.  As ``G_ij = G_ji``, only ``j <= i`` is
    summed, so ``k <= j <= degree // 2``: the flow stops at ``f_(degree//2)``
    and ``lam^k`` is needed only to that order.  Each pair ``{G_ij, G_ji}`` is
    divided by ``D`` once, into terms in ``FormalGroupLaw.sorted_terms`` order.

    >>> law = group_law_from_logarithm(multiplicative_logarithm(4), 4)
    >>> [(exps, str(c)) for exps, c in law.sorted_terms()]
    [((0, 1), '1'), ((1, 0), '1'), ((1, 1), '-1')]
    """
    if degree > log.truncation:
        raise ValueError(
            f"total degree {degree} exceeds logarithm truncation {log.truncation}"
        )
    if degree < 1:
        raise ValueError("total degree must be >= 1")
    common, half = lcm(*range(1, degree + 1)), degree // 2  # L clears every 1/m of l; j <= half
    denominator = scale = common**degree * factorial(degree)  # scale = D/(L^k k!)
    a = log.coeffs[:degree]
    zero, one, times, add_products, variables = int, 1, mul, _add_products, x_variables(a)
    if variables and not any(type(c) is int for c in a):  # an int 0 keeps the value path's types
        a = [x_terms(p) for p in a]
        zero, one, times, add_products = dict, {0: 1}, x_mul, x_add_products

    def product(u, v):  # the series u * v, to the lesser order
        out = [zero() for _ in range(min(len(u), len(v)))]
        for i, c in enumerate(u[:len(out)]):
            if c:
                add_products(out, i, c, v[:len(out) - i])
        return out

    lam = [zero()] + [times(c, common // m) for m, c in enumerate(a[:half], 1)]
    w, sums = [one], [zero() for _ in range(degree)]  # w = 1/l'(t), sums[n] = -w[n]
    for n in range(1, degree):
        add_products(sums, n, w[-1], a[1:degree - n + 1])
        w.append(times(sums[n], -1))
    f, power = [zero(), a[0]] + [zero()] * (degree - 1), [one] + [zero()] * half  # never summed into
    columns = [[zero() for _ in range(degree - j + 1)] for j in range(half + 1)]  # columns[j][i]: G_ij
    for k in range(half + 1):
        for j, c in enumerate(power[k:], k):
            if c:
                add_products(columns[j], j, times(c, scale), f[j:degree - j + 1])
        if k < half:
            f, power = product([times(c, i) for i, c in enumerate(f[1:], 1)], w), product(power, lam)
            scale //= common * (k + 1)

    for j, column in enumerate(columns):  # each G_ij, j <= i, is divided by D once: G_ji is the same value
        for i, n in enumerate(column[j:], j):
            if type(n) is int:
                q, r = divmod(n, denominator)
                column[i] = Fraction(n, denominator) if r else q
            elif n:  # a Z[x] dict, made a polynomial here, once, or a polynomial
                x_form, quotients = type(n) is dict, {}
                for e, c in n.items() if x_form else n.terms.items():
                    q, r = divmod(c, denominator)
                    quotients[(e,) if x_form else e] = Fraction(c, denominator) if r else q
                column[i] = SparsePolynomial._canonical(variables if x_form else n.variables, quotients)
    terms = {(i, d - i): c for d in range(1, degree + 1) for i in range(d + 1)  # print order: d = i + j, then i
             if (c := columns[i][d - i] if i + i <= d else columns[d - i][i])}  # G_00 = 0
    return FormalGroupLaw._canonical(degree, terms)


def _add_products(out: list, start: int, c: Value, row) -> None:
    """``out[start + j] += c * row[j]`` for every nonzero ``row[j]``."""
    for j, b in enumerate(row, start):
        if b:
            out[j] = out[j] + c * b


class IntegralityReport:
    """Outcome of the denominator certificate for a synthesized law."""

    __slots__ = ("passed", "failures")

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.passed = not self.failures

    def __bool__(self) -> bool:
        return self.passed

    def __repr__(self):
        if self.passed:
            return "IntegralityReport(pass)"
        return f"IntegralityReport(failures={[(i, j) for i, j, _ in self.failures]})"


def integrality_report(law: FormalGroupLaw) -> IntegralityReport:
    """List every coefficient of the law that carries a denominator."""
    return IntegralityReport([(i, j, c) for (i, j), c in law.sorted_terms() if not is_integral(c)])


class Curve:
    """A formal curve, stored in log-coordinates ``eta = l(gamma)``."""

    __slots__ = ("logarithm", "eta")

    def __init__(self, logarithm: Logarithm, eta: TruncatedSeries):
        if eta.coefficient(0):
            raise ValueError("curves have zero constant term")
        if eta.order > logarithm.truncation:
            raise ValueError(
                f"curve truncation {eta.order} exceeds logarithm truncation "
                f"{logarithm.truncation}"
            )
        self.logarithm = logarithm
        self.eta = eta

    @property
    def order(self) -> int:
        return self.eta.order

    @classmethod
    def from_gamma(cls, logarithm: Logarithm, gamma: TruncatedSeries) -> "Curve":
        """Build a curve from its t-coordinate form gamma (zero constant term)."""
        return cls(logarithm, logarithm.series(gamma.order, gamma.variable).compose(gamma))

    def gamma(self) -> TruncatedSeries:
        """Recover the t-coordinate form ``gamma = l^(-1)(eta)``."""
        return self.logarithm.inverse_series(self.order, self.eta.variable).compose(self.eta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        return self.logarithm == other.logarithm and self.eta == other.eta

    def __hash__(self):
        return hash((self.logarithm, self.eta))

    def __repr__(self):
        return f"Curve(order={self.order}, eta={self.eta})"


def canonical_curve(log: Logarithm, order: int | None = None) -> Curve:
    """The coordinatizing curve gamma(t) = t, i.e. eta = l(t)."""
    order = log.truncation if order is None else order
    return Curve(log, log.series(order))


def _check_ambient(c1: Curve, c2: Curve) -> None:
    if c1.logarithm != c2.logarithm or c1.order != c2.order:
        raise AmbientMismatchError(
            "curves must share a logarithm and truncation to be combined"
        )


def fg_add(c1: Curve, c2: Curve) -> Curve:
    """Formal-group addition; literal addition in log-coordinates."""
    _check_ambient(c1, c2)
    return Curve(c1.logarithm, c1.eta + c2.eta)


def curve_scale(a: Value, c: Curve) -> Curve:
    """The operator gamma(t) -> gamma(at): multiplies c_m by a^m."""
    coeffs: list[Value] = [0]
    for m in range(1, c.order + 1):
        coeffs.append(c.eta.coefficients[m] * a**m)
    return Curve(c.logarithm, TruncatedSeries(c.eta.variable, coeffs, c.order))


def curve_verschiebung(k: int, c: Curve) -> Curve:
    """The operator gamma(t) -> gamma(t^k)."""
    if k < 1:
        raise ValueError("Verschiebung index must be >= 1")
    order = min(k * c.order + k - 1, c.logarithm.truncation)
    coeffs: list[Value] = [0] * (order + 1)
    for m in range(1, c.order + 1):
        if k * m <= order:
            coeffs[k * m] = c.eta.coefficients[m]
    return Curve(c.logarithm, TruncatedSeries(c.eta.variable, coeffs, order))


def curve_frobenius(k: int, c: Curve) -> Curve:
    """F_k in log-coordinates: coefficient m' of the result is k * c_{k m'}."""
    if k < 1:
        raise ValueError("Frobenius index must be >= 1")
    order = c.order // k
    if order < 1:
        raise ValueError(
            f"curve truncation {c.order} is insufficient for F_{k}"
        )
    coeffs: list[Value] = [0] * (order + 1)
    for m in range(1, order + 1):
        coeffs[m] = k * c.eta.coefficients[k * m]
    return Curve(c.logarithm, TruncatedSeries(c.eta.variable, coeffs, order))


def frobenius_matrix_1d(log: Logarithm, k: int) -> Value:
    """Degree-1 coefficient of F_k on the canonical curve; equals ``a_k``."""
    if k < 1 or k > log.truncation:
        raise ValueError(f"index {k} outside logarithm truncation {log.truncation}")
    image = curve_frobenius(k, canonical_curve(log, k))
    return as_integral(image.eta.coefficient(1))


def witt_cartier_bridge(c: Curve) -> WittVector:
    """Identify a curve over the multiplicative law with a Witt vector.

    Sends gamma(t) to the series ``(1 - gamma(t))^(-1)`` read off as a
    length-``n`` vector, ``n`` the curve truncation.  Under this map
    formal-group addition becomes Witt addition, gamma(at) becomes
    multiplication by the multiplicative lift of ``a``, and the V_k / F_k
    operators match on both sides.  As ``eta = -log(1 - gamma)``, that
    series is ``exp(eta)``, whose ghost components are ``g_k = k * c_k``
    for ``eta = sum c_k t^k``; no reversion is needed.
    """
    if not c.logarithm.is_multiplicative():
        raise AmbientMismatchError(
            "the Witt identification needs the multiplicative law (all a_m = 1)"
        )
    return from_ghost(GhostVector(k * c.eta.coefficients[k] for k in range(1, c.order + 1)))
