"""Theta-operator algebra over Z[x] and the two congruence checks.

Operators are stored in the normal form ``L = sum_k q_k(x) theta^k`` with
``theta = x d/dx``, so applying L to a monomial is the eigenvalue rule
``theta^k (x^n) = n^k x^n``.  Products of ``(theta + c)`` factors are
expanded at construction; moving an x-monomial across theta uses
``theta x^n = x^n (theta + n)``.  Records are named tuples.

The two checks: L annihilating the distinguished solution series exactly
through a stated order, and the coefficient congruence ``L a_k = 0 mod k``
in Z[x] for logarithm coefficients a_k, read from a coefficient rule
``k -> a_k`` one k at a time.  The congruence applies L to ``a_k mod k``,
whose coefficients are below k: L has Z[x] coefficients, so the residual is
the one L a_k gives, without L a_k's big integers.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .polynomials import SparsePolynomial, Value, as_x_polynomial
from .series import TruncatedSeries

X = "x"


class ThetaOperator:
    """``sum_k q_k(x) theta^k`` with exact Z[x] coefficients, q_r != 0."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[SparsePolynomial, ...]):
        if not coefficients:
            raise ValueError("an operator needs at least one coefficient")
        if not coefficients[-1].terms:
            raise ValueError("the leading theta-coefficient must be nonzero")
        self.coefficients = coefficients

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
        """Apply the operator to a polynomial or truncated series in x.

        The eigenvalue rule is exact; x-multiplication inside the operator
        only moves known low-degree coefficients upward, so a series input
        keeps its truncation order.
        """
        if isinstance(f, TruncatedSeries):
            if f.variable != X:
                raise ValueError(f"expected a series in {X!r}")
            out = self._apply_terms({(n,): c for n, c in enumerate(f.coefficients) if c})
            return TruncatedSeries(X, [out.get((n,), 0) for n in range(f.order + 1)], f.order)
        return SparsePolynomial._canonical((X,), self._apply_terms(as_x_polynomial(f).terms))

    def _apply_terms(self, terms: dict[tuple, Value]) -> dict[tuple, Value]:
        """The image of ``sum c x^n``, given and returned as ``{(n,): c}``."""
        out: dict[tuple, Value] = {}
        for k, q in enumerate(self.coefficients):
            # theta^k x^n = n^k x^n; zero sums drop out per step, as in + and *, to keep types
            part: dict[tuple, Value] = {}
            powered = [(n, c * n**k) for (n,), c in terms.items() if n or not k]
            for (d,), qc in q.terms.items():
                for n, c in powered:
                    part[(n + d,)] = part.get((n + d,), 0) + qc * c
            for e, v in part.items():
                if v:
                    out[e] = out.get(e, 0) + v
                    if not out[e]:
                        del out[e]
        return out

    def __str__(self) -> str:
        parts = []
        for k, q in enumerate(self.coefficients):
            if not q.terms:
                continue
            head = f"({q})"
            parts.append(head if k == 0 else f"{head}*theta^{k}")
        return " + ".join(parts) if parts else "0"


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
    operator: ThetaOperator, coefficient: Callable[[int], Value], k_max: int
) -> tuple[CoefficientCongruence, ...]:
    """Verdicts of ``L a_k = 0 mod k Z[x]`` for k = 1..k_max, from L (a_k mod k).

    ``coefficient`` is a rule k -> a_k, such as a catalog entry's ``closed_form``;
    each a_k is reduced mod k and dropped before the next is read."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not all(q.is_integral() for q in operator.coefficients):
        raise ValueError("the coefficient congruence needs an operator over Z[x]")
    results = []
    for k in range(1, k_max + 1):
        image = operator.apply(as_x_polynomial(coefficient(k)).reduce_mod(k))
        residual = image.reduce_mod(k)
        if residual.terms:
            results.append(CoefficientCongruence(k, False, residual))
        else:
            results.append(CoefficientCongruence(k, True, None))
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
