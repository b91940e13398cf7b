"""Truncated formal power series with exact coefficients.

A :class:`TruncatedSeries` keeps coefficients for degrees ``0..order`` in one
formal variable; degrees beyond the order are unknown, never assumed zero, and
no operation ever reports one.  Mixing two series takes the minimum order, so
precision loss is always explicit.  Coefficients may be ints, Fractions, or
:class:`~wittkit.polynomials.SparsePolynomial` values.

:class:`MultiTruncatedSeries` is the several-variable analogue, truncated in
total degree, and :func:`substitute_univariate` evaluates a one-variable
series at a several-variable one.  No library code runs either: they are the
tests' two-variable reference for group laws, which keep only their terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .polynomials import SparsePolynomial, Value, _is_scalar


class TruncationError(ValueError):
    """An operation asked for coefficients beyond the truncation order."""


class TruncatedSeries:
    """One-variable formal power series truncated at a stated order."""

    __slots__ = ("variable", "order", "coefficients")

    def __init__(self, variable: str, coefficients: Iterable[Value], order: int | None = None):
        coeffs = list(coefficients)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        elif len(coeffs) > order + 1:
            raise TruncationError(
                f"{len(coeffs)} coefficients supplied for truncation order {order}"
            )
        self.variable = variable
        self.order = order
        self.coefficients = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Value, variable: str, order: int) -> "TruncatedSeries":
        return cls(variable, [value], order)

    # -- queries -------------------------------------------------------------

    def coefficient(self, degree: int) -> Value:
        if degree < 0:
            raise IndexError("negative degree")
        if degree > self.order:
            raise TruncationError(
                f"coefficient of degree {degree} unknown at truncation order {self.order}"
            )
        return self.coefficients[degree]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise TruncationError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.variable, self.coefficients[: order + 1], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variable, self.order, self.coefficients) == (
            other.variable, other.order, other.coefficients
        )

    def __hash__(self):
        return hash((self.variable, self.order, len(self.coefficients)))

    def __str__(self) -> str:
        from .polynomials import format_value

        parts = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            text = format_value(c)
            if k == 0:
                parts.append(text)
            else:
                parts.append(f"({text})*{self.variable}^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.variable}^{self.order + 1})"

    __repr__ = __str__

    def _check_same_variable(self, other: "TruncatedSeries") -> None:
        if self.variable != other.variable:
            raise ValueError(
                f"series variables differ: {self.variable!r} vs {other.variable!r}"
            )

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if _is_scalar(other) or isinstance(other, SparsePolynomial):
            coeffs = list(self.coefficients)
            coeffs[0] = coeffs[0] + other
            return TruncatedSeries(self.variable, coeffs, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_same_variable(other)
        order = min(self.order, other.order)
        return TruncatedSeries(
            self.variable,
            [self.coefficients[k] + other.coefficients[k] for k in range(order + 1)],
            order,
        )

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_same_variable(other)
        order = min(self.order, other.order)
        coeffs: list[Value] = [0] * (order + 1)
        for i in range(order + 1):
            a = self.coefficients[i]
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coefficients[j]
                if not b:
                    continue
                coeffs[i + j] = coeffs[i + j] + a * b
        return TruncatedSeries(self.variable, coeffs, order)

    __rmul__ = __mul__

    # -- the three nontrivial operations --------------------------------------

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with constant term 1.

        >>> one_minus_t = TruncatedSeries("t", [1, -1], 3)
        >>> one_minus_t.inverse().coefficients
        (1, 1, 1, 1)
        """
        if self.coefficients[0] != 1:
            raise ValueError("series inverse requires constant term 1")
        coeffs: list[Value] = [1] + [0] * self.order
        for n in range(1, self.order + 1):
            acc: Value = 0
            for k in range(1, n + 1):
                a = self.coefficients[k]
                if not a:
                    continue
                acc = acc + a * coeffs[n - k]
            coeffs[n] = -acc
        return TruncatedSeries(self.variable, coeffs, self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (zero constant term) into this series."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        if inner.coefficients[0]:
            raise ValueError("composition requires the inner constant term to vanish")
        order = min(self.order, inner.order)
        inner = inner.truncate(order)
        result = TruncatedSeries.constant(self.coefficients[order], inner.variable, order)
        for k in range(order - 1, -1, -1):
            result = result * inner + self.coefficients[k]
        return result

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse of ``t + higher order``.

        Defined by ``self.compose(result) == t`` up to truncation; computed by
        Lagrange inversion: with ``h = (self/t)^(-1)``, the degree-n
        coefficient of the result is ``[t^(n-1)] h^n / n``.
        """
        if self.order < 1:
            raise TruncationError("reversion needs order >= 1")
        if self.coefficients[0]:
            raise ValueError("reversion requires zero constant term")
        if self.coefficients[1] != 1:
            raise ValueError("reversion requires leading coefficient 1")
        h = TruncatedSeries(self.variable, self.coefficients[1:], self.order - 1).inverse()
        coeffs: list[Value] = [0, h.coefficients[0]]
        power = h
        for n in range(2, self.order + 1):
            power = power * h
            coeffs.append(power.coefficients[n - 1] * Fraction(1, n))
        return TruncatedSeries(self.variable, coeffs, self.order)


class MultiTruncatedSeries:
    """Formal power series in several variables, truncated in total degree."""

    __slots__ = ("variables", "degree", "terms")

    def __init__(self, variables: Iterable[str], degree: int, terms=None):
        variables = tuple(variables)
        if degree < 0:
            raise ValueError("total-degree truncation must be nonnegative")
        clean: dict[tuple, Value] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)  # as FormalGroupLaw's keys: no int() that truncates, no negative exponent
            if len(exps) != len(variables) or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"exponent vector {exps!r} is not {len(variables)} ints >= 0 for {variables!r}")
            if sum(exps) > degree:
                raise TruncationError(f"term {exps!r} exceeds total-degree truncation {degree}")
            if c:
                clean[exps] = clean.get(exps, 0) + c
        self.variables = variables
        self.degree = degree
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def constant(cls, value: Value, variables: Iterable[str], degree: int) -> "MultiTruncatedSeries":
        variables = tuple(variables)
        return cls(variables, degree, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str], degree: int) -> "MultiTruncatedSeries":
        variables = tuple(variables)
        exps = tuple(1 if v == name else 0 for v in variables)
        if 1 not in exps:
            raise ValueError(f"{name!r} not among {variables!r}")
        return cls(variables, degree, {exps: 1})

    def coefficient(self, exps: Sequence[int]) -> Value:
        exps = tuple(exps)
        if sum(exps) > self.degree:
            raise TruncationError(
                f"coefficient {exps!r} unknown at total-degree truncation {self.degree}"
            )
        return self.terms.get(exps, 0)

    def constant_coefficient(self) -> Value:
        return self.terms.get((0,) * len(self.variables), 0)

    def _check_compatible(self, other: "MultiTruncatedSeries") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"series variables differ: {self.variables!r} vs {other.variables!r}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiTruncatedSeries):
            return NotImplemented
        # the constructor drops zero terms, so equal series have equal term dicts
        return (self.variables, self.degree, self.terms) == (
            other.variables, other.degree, other.terms
        )

    def __hash__(self):
        return hash((self.variables, self.degree, len(self.terms)))

    def __add__(self, other):
        if _is_scalar(other) or isinstance(other, SparsePolynomial):
            other = MultiTruncatedSeries.constant(other, self.variables, self.degree)
        if not isinstance(other, MultiTruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        degree = min(self.degree, other.degree)
        terms: dict[tuple, Value] = {}
        for source in (self.terms, other.terms):
            for e, c in source.items():
                if sum(e) <= degree:
                    terms[e] = terms.get(e, 0) + c
        return MultiTruncatedSeries(self.variables, degree, terms)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, MultiTruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        degree = min(self.degree, other.degree)
        terms: dict[tuple, Value] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 > degree:
                continue
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > degree:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiTruncatedSeries(self.variables, degree, terms)

    __rmul__ = __mul__


def substitute_univariate(outer: TruncatedSeries, inner: MultiTruncatedSeries) -> MultiTruncatedSeries:
    """Evaluate a one-variable series at a multivariate argument."""
    if inner.constant_coefficient():
        raise ValueError("composition requires the inner constant term to vanish")
    degree = min(outer.order, inner.degree)
    result = MultiTruncatedSeries.constant(
        outer.coefficients[degree], inner.variables, degree
    )
    inner = MultiTruncatedSeries(
        inner.variables, degree, {e: c for e, c in inner.terms.items() if sum(e) <= degree}
    )
    for k in range(degree - 1, -1, -1):
        result = result * inner + outer.coefficients[k]
    return result
