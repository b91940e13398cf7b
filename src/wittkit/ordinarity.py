"""Per-prime ordinariness diagnostics for the built-in pencils.

For an odd prime p the fiber at a smooth parameter value is called ordinary
when the p-th logarithm coefficient a_p, reduced mod p and evaluated there,
does not vanish.  For the elliptic pencil this is checked against an
independent oracle: count the points of the fiber over F_p, take the
Frobenius trace t = p + 1 - count, and call the fiber supersingular exactly
when t = 0 mod p.  The two verdicts must agree; the scan records every
comparison.  The scan sieves its primes and tests none again; oracle verdicts
come from the counts mod p, from one pass per prime over all p fibers.  A scan
keeps each prime's table as columns; every record is a named tuple.

a_p mod p is the catalog's period F0 = sum_j eps^j (nj)!/(j!)^n x^(nj), eps = (-sign)^n, below x^p
(Dwork, 1969): C(p-1, nj) = (-1)^(nj) mod p makes the closed form's term j F0's when n is odd or
sign = 1, as in every catalog pencil.  The scan reads F0 to x^pmax once and evaluates each a_p at all
p values by one chirp-transform product of two big integers, below ``SCAN_PRIME_BOUND``; the reference
``hasse_witt_value`` (Horner over F_p) and ``congruence`` read ``closed_form_mod``'s term-ratio walk,
an int dict; the congruence keeps its residues as such dicts until a nonzero residual.

Point counts read only the pencil's shape prod Z_i + sign*x*sum Z_i^n in
P^(n-1), never a_p; the budget is still compared with #P^N(F_p).  A smooth
cubic fiber is 3-isogenous to a Weierstrass cubic with as many F_p-points, which
one Legendre-symbol correlation counts at every fiber in O(p) steps; fibers of
three F_p-rational lines are set apart.  The K3 and threefold pencils, and the
tests' cubic reference, walk the torus a coordinate at a time (the
character-free form of the diagonal-hypersurface counts of Weil, Bull. AMS 55,
1949, and Koblitz, Compositio Math. 48, 1983).  ``point_count_projective``
counts any form's zeros by evaluating it at every point of P^N(F_p): the counts'
reference.

p = 2 is rejected throughout (the base ring inverts 2).  For the K3 and
threefold pencils no ordinariness verdict is issued, only the vanishing
locus of a_p: nonvanishing there is necessary for ordinariness but not known
to be sufficient.

Singular parameter values are declared per catalog family rather than
detected by Jacobian rank at runtime.  For the elliptic pencil the declared
set is x = 0 together with 27x^3 = 1 and 27x^3 = -1: the fibers on the
latter branch factor into three lines (substitute x = -1/3); those on the
former are smooth away from 2 and 3 and are skipped only because declared.
The scan flags all p parameter values at once from a primitive root's
powers; ``declared_singular`` tests the rules at one value.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, compress, cycle, product, repeat
from math import comb, gcd, isqrt, prod
from struct import Struct
from typing import Callable, NamedTuple

from .families import (
    FAMILY_IDS, PRIMALITY_BOUND, BudgetExceededError, builtin_family, is_prime, resolve_family_id,
)
from .polynomials import SparsePolynomial, Value, as_integral, x_polynomial, x_residues

#: Routine-use budget: a point count is refused when P^N(F_p) has more than this
#: many points.  p <= 31 with N = 2 needs 993 points; N = 3 at p = 31 needs 30784.
DEFAULT_POINT_BUDGET = 100_000

#: A prime-power congruence is refused when p^nu, the index of the last
#: coefficient it reads, exceeds this.  p = 211, nu = 3 (9,393,931) fits.
CONGRUENCE_INDEX_BUDGET = 10_000_000

#: The least P with P^3 >= 2^64: a scan's residue table packs sums below p^3 into
#: slots of at most 64 bits (``_hasse_witt_table``), so ``ordinarity_scan`` refuses pmax >= P.
SCAN_PRIME_BOUND = 2_642_246

#: The catalog pencils of relative dimension 1: the point-count oracle's scope.
ELLIPTIC_FAMILIES = tuple(f for f in FAMILY_IDS if builtin_family(f).dimension == 1)


class OracleUnavailableError(ValueError):
    """Point-count verdicts exist only for pencils of relative dimension 1."""


def _require_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("p = 2 is excluded: the base ring inverts 2")
    if p >= PRIMALITY_BOUND:
        raise BudgetExceededError(f"p = {p} is at or above the primality bound {PRIMALITY_BOUND}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class FiberClassification(NamedTuple):
    prime: int
    parameter: int
    verdict: str  # "ordinary" | "supersingular" | "singular"
    point_count: int | None = None
    trace: int | None = None


class PrimeScan(NamedTuple):
    """One prime's scan: its non-ordinary locus, and its table as columns indexed by lambda."""

    prime: int
    nonordinary: tuple[int, ...]
    hasse_witt_values: list[int]  # a_p(lambda) mod p
    verdicts: list[str]  # from a_p; "" when the family supports no verdict
    oracle_verdicts: list[str] | None  # None when the oracle was not run
    agreements: list[bool] | None
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
    lam, rules = lam % p, builtin_family(family_id).singular_rules
    return lam == 0 or any(c * pow(lam, e, p) % p == 1 for c, e in rules)


def _primitive_root_powers(p: int) -> list[int]:
    """r^i mod p for i = 0..p-2, r the least primitive root mod p (p - 1 factored by trial division)."""
    n, factors = p - 1, set()
    for q in range(2, isqrt(p - 1) + 1):
        while not n % q:
            n //= q
            factors.add(q)
    factors.add(n)  # the prime factor left over, or 1
    r = next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in factors - {1}))
    x = 1
    return [1] + [x := x * r % p for _ in range(p - 2)]


def _singular_flags(rules: tuple[tuple[int, int], ...], p: int, powers: list[int]) -> list[bool]:
    """For lam = 0..p-1: lam = 0, or c * lam^e = 1 mod p for some rule (c, e).  With lam = r^i and
    1/c = r^k (``powers`` lists r^i), that is e*i = k mod p - 1: never when c = 0 mod p, else for
    the G = gcd(e, p - 1) roots i = i0 + s(p - 1)/G when G divides k."""
    flags = [True] + [False] * (p - 1)
    for c, e in rules:
        if c % p:
            k, roots = powers.index(pow(c, -1, p)), gcd(e, p - 1)
            step = (p - 1) // roots
            if not k % roots:
                for i in range(k // roots * pow(e // roots, -1, step) % step, p - 1, step):
                    flags[powers[i]] = True
    return flags


def hasse_witt_poly(family_id: str, p: int) -> SparsePolynomial:
    """a_p(x) reduced mod p, from the closed-form rule evaluated mod p."""
    _require_odd_prime(p)
    return x_polynomial(("x",), builtin_family(family_id).closed_form_mod(p, p, 1))


def _packed_product(u: list[int], v: list[int], start: int, count: int, top: int) -> tuple[int, ...]:
    """``count`` slots from ``start`` of (sum u_i z^i)(sum v_j z^j), u, v >= 0, slot sums <= top."""
    size, code = (4, "I") if top < 1 << 32 else (8, "Q")
    # Struct objects, not struct.pack, whose cache would keep a format per length alive
    a, b = (int.from_bytes(Struct(f"<{len(w)}{code}").pack(*w), "little") for w in (u, v))
    return Struct(f"<{count}{code}").unpack_from((a * b).to_bytes(size * (len(u) + len(v)), "little"), size * start)


def _hasse_witt_table(coefficients: list[int], g: int, p: int, powers: list[int]) -> list[int]:
    """f(lambda) mod p for lambda = 0..p-1, from one big-integer product (Bluestein's chirp transform).

    f = sum_(j<=d) c_j y^j in y = x^g, c_j = ``coefficients[j]`` any integers and d < p.  ``powers`` lists
    r^i for a primitive root r, so h = r^g has order m = (p-1)/gcd(g, p-1) and lambda = r^i has
    y = h^(i mod m).  As w_t = h^(t(t-1)/2) gives h^(jk) = w_(j+k) / (w_j w_k), f(h^k) * w_k is slot
    d + k of the product of the integers sum_j (c_j/w_j) z^(d-j) and sum_t w_t z^t at z = 2^32 or 2^64:
    each slot sum is below (d+1)(p-1)^2 < p^3, which 64 bits hold below ``SCAN_PRIME_BOUND``."""
    d, m = len(coefficients) - 1, (p - 1) // gcd(g, p - 1)
    logs = [g * t % (p - 1) for t in accumulate(range(m + d - 1), initial=0)]  # w_t = r^logs[t]
    scaled = [coefficients[j] % p * powers[-logs[j]] % p for j in reversed(range(d + 1))]
    chirp = [powers[i] for i in logs]  # a local to the end: freed sooner, hesse pmax 8000 read 149, not 131 MiB
    slots = _packed_product(scaled, chirp, d, m, p**3)  # every slot sum is below p^3
    values = [v * powers[-i] % p for v, i in zip(slots, logs)]
    table = [coefficients[0] % p] * p
    for lam, value in zip(powers, cycle(values)):
        table[lam] = value
    return table


def hasse_witt_value(family_id: str, lam: int, p: int) -> int:
    """a_p(lambda) mod p at one value, by Horner over F_p; the scan reads every value at once."""
    value = 0
    for c in _hasse_witt_coefficients(family_id, p):
        value = (value * lam + c) % p
    return value


@lru_cache(maxsize=128)  # a_p mod p, dense, the leading coefficient first: built once per (family, p)
def _hasse_witt_coefficients(family_id: str, p: int) -> tuple[int, ...]:
    terms = hasse_witt_poly(family_id, p).terms
    return tuple(terms.get((e,), 0) for e in reversed(range(max(e for (e,) in terms) + 1)))


def projective_point_total(dimension: int, p: int) -> int:
    return (p ** (dimension + 1) - 1) // (p - 1)


def _check_budget(nvars: int, p: int, budget: int | None) -> None:
    budget = DEFAULT_POINT_BUDGET if budget is None else budget
    total = projective_point_total(nvars - 1, p)
    if total > budget:
        raise BudgetExceededError(
            f"P^{nvars - 1}(F_{p}) has {total} points, over the budget {budget}"
        )


def point_count_projective(
    h: SparsePolynomial, p: int, budget: int | None = None
) -> int:
    """Number of zeros of a homogeneous form in P^N(F_p): h mod p at each canonical point (first
    nonzero coordinate 1); the budget is checked before primality."""
    nvars = len(h.variables)
    if nvars < 2:
        raise ValueError("need at least two homogeneous coordinates")
    if len({sum(e) for e in h.terms}) > 1:
        raise ValueError("the form must be homogeneous")
    if p > 1:  # P^N(F_p) has (p^(N+1) - 1) / (p - 1) points
        _check_budget(nvars, p, budget)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    terms = [(as_integral(c) % p, exps) for exps, c in h.terms.items()]
    count = 0
    for lead in range(nvars):
        for tail in product(range(p), repeat=nvars - lead - 1):
            point = (0,) * lead + (1,) + tail
            count += not sum(c * prod(map(pow, point, exps)) for c, exps in terms) % p
    return count


def fiber_point_counts(family_id: str, p: int, budget: int | None = None) -> tuple[int, ...]:
    """#X_lambda(F_p) for lambda = 0..p-1 on the pencil prod Z_i + sign*x*sum Z_i^n in P^(n-1); p is
    checked, then the budget against #P^N(F_p) (the scan's ``_fiber_counts`` skips the first check).

    n = 3 (``_cubic_counts``): at c = sign*lambda != 0, (u, A) = (z_1 z_2, z_1^3) with z_i = Z_i/Z_0
    maps the fiber onto A^2 + (1 + u/c) A + u^3 = 0, 3-isogenous to it, so with as many F_p-points
    (Silverman, ch. V).  Completing the square and setting u = -c/v give #X = p + 2 + G(4c^3) with
    G(mu) = sum_v (v|p) (mu + v(v - 1)^2|p), the correlation of (.|p) with F[d] = sum of (v|p) over
    v(v - 1)^2 = d.  Fiber 0 has 3p points, and so has each fiber with 27c^3 = -1 when p = 1 mod 3:
    three F_p-rational lines, outside the isogeny argument (when p = 2 mod 3, G counts its points).

    n >= 4 (``_torus_counts``, also the n = 3 reference in tests): a point with a zero coordinate
    lies on fiber 0, and on every other fiber exactly when its sum Z_i^n vanishes.  A torus point
    (1, z_1, ..., z_(n-1)) lies on the one fiber -prod z / (sign * (1 + sum z^n)), and on none when
    that sum is 0.  The torus is walked a coordinate at a time as a Counter of (prod z, 1 + sum z^n);
    the cells of step j whose sum is 0 count the Fermat points on each support of j + 1 coordinates;
    each cell's last coordinate adds the cell's count to the fibers its points lie on.
    """
    _require_odd_prime(p)
    return _fiber_counts(family_id, p, budget)


def _fiber_counts(family_id: str, p: int, budget: int | None, powers: list[int] | None = None) -> tuple[int, ...]:
    """``fiber_point_counts`` at a checked p; r^i is listed past the budget unless ``powers`` lists it."""
    pencil = builtin_family(family_id).family.polynomials[0]
    n = len(pencil.variables) - 1
    sign = pencil.terms[(1, n) + (0,) * (n - 1)]  # of x * Z_0^n
    _check_budget(n, p, budget)
    return _cubic_counts(sign, p, powers or _primitive_root_powers(p)) if n == 3 else _torus_counts(n, sign, p)


def _torus_counts(n: int, sign: int, p: int) -> tuple[int, ...]:
    """``fiber_point_counts`` for any n, by the torus walk over at most p(p-1) cells."""
    units = range(1, p)
    nth = [pow(z, n, p) for z in units]
    walk = Counter({(1, 1): 1})
    on_every_fiber = 0
    for j in range(1, n - 1):
        step = Counter()
        for (q, s), c in walk.items():
            for z, w in zip(units, nth):
                step[q * z % p, (s + w) % p] += c
        walk = step
        on_every_fiber += comb(n, j + 1) * sum(c for (q, s), c in walk.items() if not s)
    fiber = [0] + [-pow(sign * s, -1, p) for s in units]  # a sum of 0 lands on fiber 0, unread
    torus = [0] * p  # indexed by lambda; each cell's points add its weight c
    for (q, s), c in walk.items():
        for lam in [q * z * fiber[(s + w) % p] % p for z, w in zip(units, nth)]:
            torus[lam] += c
    zero_fiber = projective_point_total(n - 1, p) - (p - 1) ** (n - 1)
    return (zero_fiber, *(t + on_every_fiber for t in torus[1:]))


def _cubic_counts(sign: int, p: int, powers: list[int]) -> tuple[int, ...]:
    """``fiber_point_counts`` for n = 3, in O(p) steps and one big-integer product; (v|p) is +1 at
    the even and -1 at the odd powers r^i in ``powers`` (flipping the sign of (.|p) changes no slot)."""
    chi = [0] + [1] * (p - 1)  # (v|p)
    for v in powers[1::2]:
        chi[v] = -1
    weights = [3] * p  # 3 + F[d], in [0, 6]: v(v - 1)^2 = d has at most three roots
    for v, c in enumerate(chi):
        weights[v * (v - 1) * (v - 1) % p] += c
    # slot p - 1 + mu is sum_d (3 + F[d]) (1 + (d + mu|p)) = G(mu) + 3p, as F and (.|p) sum to 0
    # over F_p; each slot sum is at most 12p, below 2^64 for every p whose tables fit in memory
    slots = _packed_product(weights[::-1], [1 + c for c in chi] * 2, p - 1, p, 12 * p)
    by_mu = [s - 2 * p + 2 for s in slots]  # #X at mu = 4c^3
    if p % 3 == 1:  # the fibers with 27c^3 = -1 are three lines
        by_mu[-4 * pow(27, -1, p) % p] = 3 * p
    k = 4 * sign**3 % p
    return (3 * p, *[by_mu[k * lam * lam * lam % p] for lam in range(1, p)])


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
    count = fiber_point_counts(family_id, p, budget)[lam]
    trace = p + 1 - count
    return FiberClassification(p, lam, "ordinary" if trace % p else "supersingular", count, trace)


def _scan_prime(family_id: str, p: int, period: tuple, g: int, with_oracle: bool, budget: int | None) -> PrimeScan:
    powers = _primitive_root_powers(p)
    residues = _hasse_witt_table(period[:p:g], g, p, powers)  # a_p mod p: F0, a series in x^g, below x^p
    singular = _singular_flags(builtin_family(family_id).singular_rules, p, powers)
    elliptic = family_id in ELLIPTIC_FAMILIES  # a pencil without verdicts marks only its singular rows
    verdicts = ["ordinary" if v else "supersingular" for v in residues] if elliptic else [""] * p
    for lam in compress(range(p), singular):
        verdicts[lam] = "singular"
    locus = tuple(compress(range(p), [not (v or s) for v, s in zip(residues, singular)]))
    oracle = agreements = agree = None
    if with_oracle:
        # every parameter declared singular (hesse at p = 7, where only 27 lam^3 = 1 is): count nothing, no budget
        counts = repeat(0) if all(singular) else _fiber_counts(family_id, p, budget, powers)
        oracle = ["singular" if s else "ordinary" if (n - 1) % p else "supersingular"
                  for s, n in zip(singular, counts)]  # the trace p + 1 - n is 0 mod p when n - 1 is
        agreements = list(map(str.__eq__, oracle, verdicts))
        agree = all(agreements)
    return PrimeScan(p, locus, residues, verdicts, oracle, agreements, agree)


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
    if prime_bound >= SCAN_PRIME_BOUND:
        raise BudgetExceededError(f"pmax = {prime_bound} is at or above the scan bound {SCAN_PRIME_BOUND}")
    sieve = bytearray([0, 0]) + bytearray([1]) * (prime_bound - 1)  # Eratosthenes: sieve[n] = n is prime
    for q in range(2, isqrt(prime_bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes((prime_bound - q * q) // q + 1)
    period, n = (entry := builtin_family(family_id)).period(prime_bound).coefficients, entry.family.degrees[0]
    scans = [_scan_prime(family_id, p, period, n, with_oracle, budget)
             for p in compress(range(3, prime_bound + 1), sieve[3:])]
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

    ``coefficient`` is a rule m -> a_m or an int dict of a_m mod p, such as a catalog entry's
    ``closed_form_mod`` at s = 1, or a ``Logarithm``'s ``coefficient``; a_(p^nu), a_(p^(nu-1))
    and a_p are read once each, in that order, by ``x_residues`` (``NonIntegralError`` on a
    fraction).  In F_p[x] f^p is f(x^p), so a_p[r] * a_(p^(nu-1))[E] is subtracted at r + pE
    straight into a_(p^nu)'s residues, with no product built: deg a_p < p, so no two meet.
    The residual is a polynomial only when nonzero.
    p^nu above ``CONGRUENCE_INDEX_BUDGET`` raises ``BudgetExceededError``.
    """
    _require_odd_prime(p)
    if nu < 2:
        raise ValueError("the congruence concerns prime powers p^nu with nu >= 2")
    # p^nu >= 3^nu > 2^nu passes the budget once nu passes its bit length, so a
    # huge nu is refused without forming p^nu
    if nu > CONGRUENCE_INDEX_BUDGET.bit_length() or p**nu > CONGRUENCE_INDEX_BUDGET:
        raise BudgetExceededError(
            f"p^nu = {p}^{nu} is over the budget {CONGRUENCE_INDEX_BUDGET}"
        )

    residual = x_residues(coefficient(p**nu), p)
    lower = x_residues(coefficient(p ** (nu - 1)), p)
    for r, a in x_residues(coefficient(p), p).items():
        for e, b in lower.items():
            residual[r + p * e] = (residual.get(r + p * e, 0) - a * b) % p  # small shared ints, reduced at once
    residual = {e: c for e, c in residual.items() if c}
    return CongruenceCheck(p, nu, not residual, x_polynomial(("x",), residual) if residual else None)
