"""Theta-operator algebra over Z[x] and the two congruence checks.

Operators are stored in the normal form ``L = sum_k q_k(x) theta^k`` with
``theta = x d/dx``, so applying L to a monomial is the eigenvalue rule
``theta^k (x^n) = n^k x^n``; over Z, L applies by x-shift, one pass per d in
``L = sum_d x^d P_d(theta)``.  Products of ``(theta + c)`` factors are
expanded at construction; moving an x-monomial across theta uses
``theta x^n = x^n (theta + n)``.  Records are named tuples.

The two checks: L annihilating the distinguished solution series exactly
through a stated order, and the coefficient congruence ``L a_k = 0 mod k``
in Z[x] for logarithm coefficients a_k, read one k at a time from a rule or a
walk.  It applies L to ``a_k mod k`` as an int dict: L is over Z[x], so the
residual is L a_k's, without L a_k's big integers.  An operator holds its
coefficients and their shift groups ``(d, P_d)`` only: the eigenvalue tables
``{n: P_d(n)}`` are the call's, one per shift for a check, fresh for an ``apply``.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .polynomials import SparsePolynomial, Value, as_x_polynomial, x_polynomial, x_residues, x_terms
from .series import TruncatedSeries

X = "x"


class ThetaOperator:
    """``sum_k q_k(x) theta^k`` with exact Z[x] coefficients, q_r != 0."""

    __slots__ = ("coefficients", "_shifts")

    def __init__(self, coefficients: tuple[SparsePolynomial, ...]):
        if not coefficients:
            raise ValueError("an operator needs at least one coefficient")
        if not coefficients[-1].terms:
            raise ValueError("the leading theta-coefficient must be nonzero")
        self.coefficients = coefficients
        shifts: dict[int, list] = {}  # L = sum_d x^d P_d(theta): P_d's coefficients, theta^0 up
        for k, q in enumerate(coefficients):
            for (d,), c in q.terms.items():
                shifts.setdefault(d, [0] * len(coefficients))[k] = c
        integral = all(type(c) is int for q in coefficients for c in q.terms.values())
        self._shifts = tuple(shifts.items()) if integral else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaOperator):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.coefficients,))

    def __repr__(self):
        return f"ThetaOperator(coefficients={self.coefficients!r})"

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def apply(self, f):
        """Apply the operator to a polynomial, a truncated series or an ``{x exponent: coefficient}`` dict in x.

        The eigenvalue rule is exact; x-multiplication inside the operator
        only moves known low-degree coefficients upward, so a series input
        keeps its truncation order.  A dict's image is a dict, zeros and all.
        """
        if type(f) is dict:
            return self._apply_terms(f)
        if isinstance(f, TruncatedSeries):
            if f.variable != X:
                raise ValueError(f"expected a series in {X!r}")
            out = self._apply_terms({n: c for n, c in enumerate(f.coefficients) if c})
            return TruncatedSeries(X, [out.get(n, 0) for n in range(f.order + 1)], f.order)
        return x_polynomial((X,), self._apply_terms(x_terms(as_x_polynomial(f))))

    def _apply_terms(self, terms: dict[int, Value]) -> dict[int, Value]:
        """The image of ``{n: c}``: over Z by ``_shift``; else by + and * (zero sums set types)."""
        if self._shifts is None or not all(type(c) is int for c in terms.values()):
            return x_terms(sum(q * x_polynomial(q.variables, {n: c * n**k for n, c in terms.items()})
                               for k, q in enumerate(self.coefficients)))
        return self._shift(terms, [{} for _ in self._shifts])

    def _shift(self, terms: dict[int, int], tables: list[dict]) -> dict[int, int]:
        """The image of an int dict under an operator over Z (``_shifts`` set): by x-shift, P_d(n) from the
        caller's table for shift d, filled on first use."""
        out: dict[int, int] = {}
        for (d, P), table in zip(self._shifts, tables):
            for n, c in terms.items():
                v = table[n] if n in table else table.setdefault(n, sum(a * n**k for k, a in enumerate(P)))
                out[n + d] = out.get(n + d, 0) + v * c  # ints: a zero sum is a plain 0
        return out


def expand_operator(terms: Iterable[tuple[int, int, Sequence[int]]]) -> ThetaOperator:
    """Normal form of a sum of (coefficient, x-power, theta-shift factors).

    Each term stands for ``coefficient * x^xpow * prod_c (theta + c)``; the
    theta-product is expanded into elementary symmetric sums so the result
    is ``sum_k q_k(x) theta^k``.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("an operator needs at least one term")
    max_order = max(len(tuple(shifts)) for _, _, shifts in terms)
    coeffs = [SparsePolynomial.zero((X,)) for _ in range(max_order + 1)]
    for coefficient, xpow, shifts in terms:
        if xpow < 0:
            raise ValueError("x-powers must be nonnegative")
        # expand prod (theta + c) into theta-polynomial coefficients
        poly = [1]
        for c in shifts:
            nxt = [0] * (len(poly) + 1)
            for k, e in enumerate(poly):
                nxt[k + 1] += e
                nxt[k] += e * c
            poly = nxt
        mono = SparsePolynomial((X,), {(xpow,): coefficient})
        for k, e in enumerate(poly):
            if e:
                coeffs[k] = coeffs[k] + mono * e
    while len(coeffs) > 1 and not coeffs[-1].terms:
        coeffs.pop()
    return ThetaOperator(tuple(coeffs))


class CoefficientCongruence(NamedTuple):
    """One row of the ``pf-check`` table, its fields in column order."""

    k: int
    passed: bool
    residual: SparsePolynomial | None


def pf_congruence_check(
    operator: ThetaOperator, coefficient: Callable[[int], Value] | Iterable[Value | dict], k_max: int
) -> tuple[CoefficientCongruence, ...]:
    """Verdicts of ``L a_k = 0 mod k Z[x]`` for k = 1..k_max, from L (a_k mod k).

    ``coefficient`` is a rule k -> a_k, such as a ``Logarithm``'s ``coefficient``, or values or int dicts
    a_1..a_(k_max), such as a catalog entry's ``closed_forms(k_max)``; each a_k is dropped after its check."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not all(q.is_integral() for q in operator.coefficients):
        raise ValueError("the coefficient congruence needs an operator over Z[x]")
    results, tables = [], [{} for _ in operator._shifts or ()]  # over ints, each k's residues are ints
    apply = operator.apply if operator._shifts is None else lambda a: operator._shift(a, tables)
    coefficients = map(coefficient, range(1, k_max + 1)) if callable(coefficient) else coefficient
    for k, a in zip(range(1, k_max + 1), coefficients):
        residual = {n: r for n, c in apply(x_residues(a, k)).items() if (r := c % k)}
        results.append(CoefficientCongruence(k, not residual, x_polynomial((X,), residual) if residual else None))
    if len(results) < k_max:
        raise ValueError(f"the coefficients end at a_{len(results)}, before k_max = {k_max}")
    return tuple(results)


class SolutionCheck(NamedTuple):
    passed: bool
    checked_through: int
    first_failure: int | None
    residual: Value | None


def series_solution_check(
    operator: ThetaOperator, f: TruncatedSeries, through: int
) -> SolutionCheck:
    """Does L annihilate the series exactly through the stated order?"""
    if through < 0:
        raise ValueError(f"cannot check a solution through a negative order {through}")
    if f.order < through:
        raise ValueError(f"series supplied to order {f.order}, cannot check through {through}")
    image = operator.apply(f)
    for d in range(through + 1):
        c = image.coefficient(d)
        if c:
            return SolutionCheck(False, through, d, c)
    return SolutionCheck(True, through, None, None)
