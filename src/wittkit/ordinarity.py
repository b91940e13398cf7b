"""Per-prime ordinariness diagnostics for the built-in pencils.

For an odd prime p the fiber at a smooth parameter value is called ordinary
when the p-th logarithm coefficient a_p, reduced mod p and evaluated there by
Horner's rule over F_p, does not vanish.  For the elliptic pencil this is
checked against an independent oracle: count the points of the fiber over
F_p by brute force, take the Frobenius trace t = p + 1 - count, and call the
fiber supersingular exactly when t = 0 mod p.  The two verdicts must agree;
the scan records every comparison.  One enumeration of P^N(F_p) counts the
points of all p fibers at once.  Records are named tuples.

a_p mod p is never built over Z: the catalog's ``closed_form_mod`` reads it
from tables of factorial unit parts mod p, in O(p) small-int operations, and
the ``congruence`` command reads a_(p^nu) mod p the same way.

Point counts stay exhaustive, and so independent of a_p, but evaluate a
form a row at a time: a row fixes every coordinate but the last, and the
form's value along it is sum_k q_k * z^k over the last coordinate z, each
q_k computed once per row and z^k read from a per-prime table of powers.

p = 2 is rejected throughout (the base ring inverts 2).  For the K3 and
threefold pencils no ordinariness verdict is issued, only the vanishing
locus of a_p: nonvanishing there is necessary for ordinariness but not known
to be sufficient.

Singular parameter values are declared per catalog family rather than
detected by Jacobian rank at runtime.  For the elliptic pencil the declared
set is x = 0 together with 27x^3 = 1 and 27x^3 = -1: the fibers on the
latter branch factor into three lines (substitute x = -1/3); those on the
former are smooth away from 2 and 3 and are skipped only because declared.
One pass per prime flags all p parameter values; ``declared_singular`` reads
the same flags.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod
from typing import Callable, Iterable, NamedTuple

from .families import FAMILY_IDS, builtin_family, is_prime, resolve_family_id
from .polynomials import SparsePolynomial, Value, as_integral, as_x_polynomial

#: Routine-use budget: an enumeration of P^N(F_p) is refused beyond this many
#: points.  p <= 31 with N = 2 needs 993 points; N = 3 at p = 31 needs 30784.
DEFAULT_POINT_BUDGET = 100_000

#: The catalog pencils of relative dimension 1: the point-count oracle's scope.
ELLIPTIC_FAMILIES = tuple(f for f in FAMILY_IDS if builtin_family(f).dimension == 1)


class BudgetExceededError(RuntimeError):
    """A point enumeration would exceed the allowed budget."""


class OracleUnavailableError(ValueError):
    """Point-count verdicts exist only for pencils of relative dimension 1."""


def _require_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("p = 2 is excluded: the base ring inverts 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class FiberClassification(NamedTuple):
    prime: int
    parameter: int
    verdict: str  # "ordinary" | "supersingular" | "singular"
    point_count: int | None = None
    trace: int | None = None


class FiberRow(NamedTuple):
    """One fiber's row of the scan table, its fields in the table's column order."""

    prime: int
    parameter: int
    hasse_witt_value: int
    verdict: str  # from a_p; "" when the family supports no verdict
    oracle_verdict: str  # "" when the oracle was not run
    agree: bool | None


class PrimeScan(NamedTuple):
    prime: int
    nonordinary: tuple[int, ...]
    rows: tuple[FiberRow, ...]
    agree: bool | None


class OrdinarityReport(NamedTuple):
    family: str
    prime_bound: int
    with_oracle: bool
    scans: tuple[PrimeScan, ...]

    @property
    def all_agree(self) -> bool:
        return all(s.agree is not False for s in self.scans)


def declared_singular(family_id: str, lam: int, p: int) -> bool:
    """Membership of the parameter value in the declared singular locus mod p."""
    _require_odd_prime(p)
    return _singular_flags(builtin_family(family_id).singular_rules, p)[lam % p]


def _singular_flags(rules: tuple[tuple[int, int], ...], p: int) -> list[bool]:
    """For lam = 0..p-1: lam = 0, or c * lam^e = 1 mod p for some rule (c, e)."""
    flags = [True] + [False] * (p - 1)
    for c, e in rules:
        for lam in range(1, p):
            if c * pow(lam, e, p) % p == 1:
                flags[lam] = True
    return flags


def hasse_witt_poly(family_id: str, p: int) -> SparsePolynomial:
    """a_p(x) reduced mod p, from the closed-form rule evaluated mod p."""
    _require_odd_prime(p)
    return builtin_family(family_id).closed_form_mod(p, p, 1)


def _hasse_witt_residues(family_id: str, p: int, lams: Iterable[int]):
    """Yield a_p(lambda) mod p for each lambda in lams: Horner over F_p in x^g (deg a_p < p).

    Only y = lambda^g mod p enters, so each distinct y is evaluated once.
    """
    terms = hasse_witt_poly(family_id, p).terms
    g = gcd(*(e for (e,) in terms)) or 1  # a_p is a polynomial in x^g
    dense = [terms.get((e,), 0) for e in reversed(range(0, p, g))]
    by_y: dict[int, int] = {}
    for lam in lams:
        y = pow(lam, g, p)
        if y not in by_y:
            value = 0
            for c in dense:
                value = (value * y + c) % p
            by_y[y] = value
        yield by_y[y]


def hasse_witt_value(family_id: str, lam: int, p: int) -> int:
    return next(_hasse_witt_residues(family_id, p, [lam % p]))


def projective_point_total(dimension: int, p: int) -> int:
    return (p ** (dimension + 1) - 1) // (p - 1)


def _check_budget(nvars: int, p: int, budget: int | None) -> None:
    budget = DEFAULT_POINT_BUDGET if budget is None else budget
    total = projective_point_total(nvars - 1, p)
    if total > budget:
        raise BudgetExceededError(
            f"P^{nvars - 1}(F_{p}) has {total} points, over the budget {budget}"
        )


def _form_rows(h: SparsePolynomial, p: int):
    """h mod p over the canonical points of P^N(F_p), one row at a time.

    A row fixes a canonical prefix (first nonzero entry 1) of every
    coordinate but the last and runs the last coordinate z over F_p; the
    lone point (0, ..., 0, 1) is one extra row of length 1.  Grouping the
    monomials by their exponent k of z writes h = sum_k q_k * z^k, so a row
    is sum_k q_k * T_k[z] with T_e = [v^e mod p for v in F_p] (T_0 is all
    ones, as pow(0, 0, p) == 1).
    """
    nvars = len(h.variables)
    exponents = {e for exps in h.terms for e in exps}
    tables = {e: [pow(v, e, p) for v in range(p)] for e in exponents}
    by_last: dict[int, list] = {}  # exponent k of z -> [(c mod p, [(i, T_e_i)])]
    for exps, c in h.terms.items():
        factors = [(i, tables[e]) for i, e in enumerate(exps[:-1]) if e]
        by_last.setdefault(exps[-1], []).append((as_integral(c) % p, factors))
    groups = [(tables[k], monomials) for k, monomials in by_last.items()]

    def row(prefix: tuple[int, ...]) -> list[int]:
        values = [0] * p
        for table, monomials in groups:
            q = sum(c * prod(t[prefix[i]] for i, t in factors) for c, factors in monomials) % p
            if q:
                values = [v + q * t for v, t in zip(values, table)]
        return [v % p for v in values]

    for lead in range(nvars - 1):
        head = (0,) * lead + (1,)
        for tail in product(range(p), repeat=nvars - lead - 2):
            yield row(head + tail)
    yield row((0,) * (nvars - 1))[1:2]


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
    return sum(row.count(0) for row in _form_rows(h, p))


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
    a_rows = _form_rows(pencil.coefficient_of({"x": 1}), p)
    b_rows = _form_rows(pencil.coefficient_of({"x": 0}), p)
    neg_inverse = [0] + [-pow(a, -1, p) for a in range(1, p)]
    counts = [0] * p
    on_every_fiber = 0
    for a_row, b_row in zip(a_rows, b_rows):
        for a, b in zip(a_row, b_row):
            if a:
                counts[b * neg_inverse[a] % p] += 1
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
    residues = tuple(_hasse_witt_residues(family_id, p, range(p)))
    singular = _singular_flags(builtin_family(family_id).singular_rules, p)
    # hesse at p = 7 has no smooth parameter: count nothing, so no budget applies
    counts = None
    if with_oracle and not all(singular):
        counts = fiber_point_counts(family_id, p, budget)
    rows = []
    for lam, value in enumerate(residues):
        if singular[lam]:
            verdict = "singular"
        elif elliptic:
            verdict = "supersingular" if value == 0 else "ordinary"
        else:
            verdict = ""
        if with_oracle:
            oracle = "singular" if singular[lam] else _classify_count(p, lam, counts[lam]).verdict
            rows.append(FiberRow(p, lam, value, verdict, oracle, oracle == verdict))
        else:
            rows.append(FiberRow(p, lam, value, verdict, "", None))
    agree = all(r.agree for r in rows) if with_oracle else None
    locus = tuple(lam for lam, value in enumerate(residues) if value == 0 and not singular[lam])
    return PrimeScan(p, locus, tuple(rows), agree)


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


class CongruenceCheck(NamedTuple):
    """The ``congruence`` table's one row, its fields in column order."""

    prime: int
    exponent: int
    passed: bool
    residual: SparsePolynomial | None


def frobenius_power_congruence(
    coefficient: Callable[[int], Value], p: int, nu: int
) -> CongruenceCheck:
    """Check  a_{p^nu} = a_p * (a_{p^(nu-1)})^p  mod p  in F_p[x].

    ``coefficient`` is a rule m -> a_m (or a_m mod p), such as a catalog
    entry's ``closed_form``, its ``closed_form_mod`` at s = 1 or a
    ``Logarithm``'s ``coefficient``; only a_p, a_(p^(nu-1)) and a_(p^nu) are
    read, and the p-th power is f(x^p), which it equals in F_p[x].
    """
    _require_odd_prime(p)
    if nu < 2:
        raise ValueError("the congruence concerns prime powers p^nu with nu >= 2")

    def coeff_mod(m: int) -> SparsePolynomial:
        return as_x_polynomial(coefficient(m)).reduce_mod(p)

    lhs = coeff_mod(p**nu)
    pth_power = {(e * p,): c for (e,), c in coeff_mod(p ** (nu - 1)).terms.items()}
    rhs = (coeff_mod(p) * SparsePolynomial(("x",), pth_power)).reduce_mod(p)
    residual = (lhs - rhs).reduce_mod(p)
    if residual.terms:
        return CongruenceCheck(p, nu, False, residual)
    return CongruenceCheck(p, nu, True, None)
