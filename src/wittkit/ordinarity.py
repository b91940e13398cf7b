"""Per-prime ordinariness diagnostics for the built-in pencils.

For an odd prime p the fiber at a smooth parameter value is called ordinary
when the p-th logarithm coefficient a_p, evaluated mod p, does not vanish.
For the elliptic pencil this is checked against an independent oracle: count
the points of the fiber over F_p by brute force, take the Frobenius trace
t = p + 1 - count, and call the fiber supersingular exactly when t = 0 mod p.
The two verdicts must agree; the scan records every comparison.  One
enumeration of P^N(F_p) counts the points of all p fibers at once.

p = 2 is rejected throughout (the base ring inverts 2).  For the K3 and
threefold pencils no ordinariness verdict is issued, only the vanishing
locus of a_p: nonvanishing there is necessary for ordinariness but not known
to be sufficient.

Singular parameter values are declared per catalog family rather than
detected by Jacobian rank at runtime.  For the elliptic pencil the declared
set is x = 0 together with 27x^3 = 1 and 27x^3 = -1: the fibers on the
latter branch factor into three lines (substitute x = -1/3), so both signs
must be excluded before any point count is interpreted as an elliptic trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isqrt, prod

from .families import builtin_family, resolve_family_id
from .formal_groups import Logarithm
from .polynomials import SparsePolynomial, as_integral, as_x_polynomial

#: Routine-use budget: an enumeration of P^N(F_p) is refused beyond this many
#: points.  p <= 31 with N = 2 needs 993 points; N = 3 at p = 31 needs 30784.
DEFAULT_POINT_BUDGET = 100_000

ELLIPTIC_FAMILIES = ("hesse-cubic",)


class BudgetExceededError(RuntimeError):
    """A point enumeration would exceed the allowed budget."""


class OracleUnavailableError(ValueError):
    """Point-count verdicts exist only for pencils of relative dimension 1."""


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _require_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("p = 2 is excluded: the base ring inverts 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class FiberClassification:
    prime: int
    parameter: int
    verdict: str  # "ordinary" | "supersingular" | "singular"
    point_count: int | None = None
    trace: int | None = None


@dataclass(frozen=True)
class FiberRow:
    prime: int
    parameter: int
    hasse_witt_value: int
    verdict: str  # from a_p; "" when the family supports no verdict
    oracle_verdict: str  # "" when the oracle was not run
    agree: bool | None


@dataclass(frozen=True)
class PrimeScan:
    prime: int
    nonordinary: tuple[int, ...]
    rows: tuple[FiberRow, ...]
    agree: bool | None


@dataclass(frozen=True)
class OrdinarityReport:
    family: str
    prime_bound: int
    with_oracle: bool
    scans: tuple[PrimeScan, ...]

    @property
    def all_agree(self) -> bool:
        return all(s.agree is not False for s in self.scans)


def declared_singular(family_id: str, lam: int, p: int) -> bool:
    """Membership of the parameter value in the declared singular locus mod p."""
    entry = builtin_family(family_id)
    if lam % p == 0:
        return True
    return any(
        (c * pow(lam, e, p) - 1) % p == 0 for c, e in entry.singular_rules
    )


def hasse_witt_poly(family_id: str, p: int) -> SparsePolynomial:
    """a_p(x) reduced mod p, from the closed-form coefficient rule."""
    _require_odd_prime(p)
    entry = builtin_family(family_id)
    return entry.closed_form(p).reduce_mod(p)


def hasse_witt_value(family_id: str, lam: int, p: int) -> int:
    poly = hasse_witt_poly(family_id, p)
    return as_integral(poly.evaluate({"x": lam % p})) % p


def nonordinary_locus(family_id: str, p: int) -> tuple[int, ...]:
    """Smooth parameter values where a_p vanishes mod p, by enumeration."""
    _require_odd_prime(p)
    family_id = resolve_family_id(family_id)
    poly = hasse_witt_poly(family_id, p)
    out = []
    for lam in range(p):
        if declared_singular(family_id, lam, p):
            continue
        if as_integral(poly.evaluate({"x": lam})) % p == 0:
            out.append(lam)
    return tuple(out)


def _projective_points(nvars: int, p: int):
    """Canonical representatives of P^(nvars-1)(F_p): first nonzero entry 1."""
    for lead in range(nvars):
        prefix = (0,) * lead + (1,)
        for tail in product(range(p), repeat=nvars - lead - 1):
            yield prefix + tail


def projective_point_total(dimension: int, p: int) -> int:
    return (p ** (dimension + 1) - 1) // (p - 1)


def _check_budget(nvars: int, p: int, budget: int | None) -> None:
    budget = DEFAULT_POINT_BUDGET if budget is None else budget
    total = projective_point_total(nvars - 1, p)
    if total > budget:
        raise BudgetExceededError(
            f"P^{nvars - 1}(F_{p}) has {total} points, over the budget {budget}"
        )


def _form_mod(h: SparsePolynomial, p: int):
    """The map point -> h(point) mod p, for a form with integral coefficients."""
    terms = [(exps, as_integral(c) % p) for exps, c in h.terms.items()]
    return lambda point: sum(
        c * prod(pow(v, e, p) for v, e in zip(point, exps)) for exps, c in terms
    ) % p


def point_count_projective(
    h: SparsePolynomial, p: int, budget: int | None = None
) -> int:
    """Number of zeros of a homogeneous form in P^N(F_p), by enumeration."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    nvars = len(h.variables)
    if nvars < 2:
        raise ValueError("need at least two homogeneous coordinates")
    degrees = {sum(e) for e in h.terms}
    if len(degrees) > 1:
        raise ValueError("the form must be homogeneous")
    _check_budget(nvars, p, budget)
    value = _form_mod(h, p)
    return sum(1 for point in _projective_points(nvars, p) if value(point) == 0)


def fiber_point_counts(family_id: str, p: int, budget: int | None = None) -> tuple[int, ...]:
    """#X_lambda(F_p) for lambda = 0..p-1, from one enumeration of P^N(F_p).

    The pencil is x*A(Z) + B(Z).  A point with A != 0 lies on the single
    fiber lambda = -B/A; a point with A = B = 0 lies on every fiber.
    """
    _require_odd_prime(p)
    family = builtin_family(family_id).family
    pencil = family.polynomials[0]
    nvars = len(family.coordinate_variables())
    _check_budget(nvars, p, budget)
    a_mod = _form_mod(pencil.coefficient_of({"x": 1}), p)
    b_mod = _form_mod(pencil.coefficient_of({"x": 0}), p)
    counts = [0] * p
    on_every_fiber = 0
    for point in _projective_points(nvars, p):
        a, b = a_mod(point), b_mod(point)
        if a:
            counts[-b * pow(a, -1, p) % p] += 1
        elif not b:
            on_every_fiber += 1
    return tuple(c + on_every_fiber for c in counts)


def _classify_count(p: int, lam: int, count: int) -> FiberClassification:
    """The Frobenius-trace verdict for a smooth elliptic fiber with this count."""
    trace = p + 1 - count
    verdict = "supersingular" if trace % p == 0 else "ordinary"
    return FiberClassification(p, lam, verdict, count, trace)


def classify_elliptic_fiber(
    family_id: str, lam: int, p: int, budget: int | None = None
) -> FiberClassification:
    """Point-count verdict for a fiber of an elliptic pencil.

    Independent of a_p: singular parameters come from the declared locus,
    everything else is counted over F_p and judged by the Frobenius trace.
    """
    _require_odd_prime(p)
    family_id = resolve_family_id(family_id)
    if family_id not in ELLIPTIC_FAMILIES:
        raise OracleUnavailableError(
            f"{family_id} has relative dimension != 1; no point-count verdict"
        )
    lam = lam % p
    if declared_singular(family_id, lam, p):
        return FiberClassification(p, lam, "singular")
    return _classify_count(p, lam, fiber_point_counts(family_id, p, budget)[lam])


def _scan_prime(family_id: str, p: int, with_oracle: bool, budget: int | None) -> PrimeScan:
    elliptic = family_id in ELLIPTIC_FAMILIES
    poly = hasse_witt_poly(family_id, p)
    singular = [declared_singular(family_id, lam, p) for lam in range(p)]
    # hesse at p = 7 has no smooth parameter: count nothing, so no budget applies
    counts = None
    if with_oracle and not all(singular):
        counts = fiber_point_counts(family_id, p, budget)
    rows = []
    locus = []
    for lam in range(p):
        value = as_integral(poly.evaluate({"x": lam})) % p
        if singular[lam]:
            verdict = "singular"
        elif elliptic:
            verdict = "supersingular" if value == 0 else "ordinary"
        else:
            verdict = ""
        if not singular[lam] and value == 0:
            locus.append(lam)
        if with_oracle:
            oracle = "singular" if singular[lam] else _classify_count(p, lam, counts[lam]).verdict
            rows.append(FiberRow(p, lam, value, verdict, oracle, oracle == verdict))
        else:
            rows.append(FiberRow(p, lam, value, verdict, "", None))
    agree = all(r.agree for r in rows) if with_oracle else None
    return PrimeScan(p, tuple(locus), tuple(rows), agree)


def ordinarity_scan(
    family_id: str,
    prime_bound: int,
    with_oracle: bool = False,
    budget: int | None = None,
) -> OrdinarityReport:
    """Non-ordinary loci for every odd prime up to the bound.

    With the oracle enabled (elliptic pencils only) every smooth parameter
    value is cross-checked against the point-count classification.
    """
    if prime_bound < 3:
        raise ValueError("the scan needs a prime bound >= 3")
    family_id = resolve_family_id(family_id)
    if with_oracle and family_id not in ELLIPTIC_FAMILIES:
        raise OracleUnavailableError(
            f"{family_id} has relative dimension != 1; scan without --oracle"
        )
    scans = [
        _scan_prime(family_id, p, with_oracle, budget)
        for p in range(3, prime_bound + 1)
        if is_prime(p)
    ]
    return OrdinarityReport(family_id, prime_bound, with_oracle, tuple(scans))


@dataclass(frozen=True)
class CongruenceCheck:
    prime: int
    exponent: int
    passed: bool
    residual: SparsePolynomial | None


def frobenius_power_congruence(log: Logarithm, p: int, nu: int) -> CongruenceCheck:
    """Check  a_{p^nu} = a_p * (a_{p^(nu-1)})^p  mod p  in F_p[x]."""
    _require_odd_prime(p)
    if nu < 2:
        raise ValueError("the congruence concerns prime powers p^nu with nu >= 2")
    if p**nu > log.truncation:
        raise ValueError(
            f"logarithm truncation {log.truncation} is below p^nu = {p ** nu}"
        )

    def coeff_mod(m: int) -> SparsePolynomial:
        return as_x_polynomial(log.coefficient(m)).reduce_mod(p)

    lhs = coeff_mod(p**nu)
    rhs = (coeff_mod(p) * coeff_mod(p ** (nu - 1)) ** p).reduce_mod(p)
    residual = (lhs - rhs).reduce_mod(p)
    if residual.terms:
        return CongruenceCheck(p, nu, False, residual)
    return CongruenceCheck(p, nu, True, None)
