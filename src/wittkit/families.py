"""Built-in complete-intersection pencils and their logarithm coefficients.

The m-th coefficient of the formal group logarithm of the family cut out by
homogeneous ``P_1..P_s`` in projective space (degrees summing to the number
of homogeneous coordinates) is

    a_m = coefficient of (Z_0 * ... * Z_N)^(m-1)  in  (P_1 * ... * P_s)^(m-1),

an element of Z[x] for the one-parameter pencils shipped here.  Three pencils
are built in, each with its closed form, walked in m, as an independent oracle
(the extraction path is the authority if the two ever disagree), its
Picard-Fuchs operator and its holomorphic period, all read from (n, sign).
Extraction makes one pass over the monomials of P_1*...*P_s less its Z_0*...*Z_N term;
a_m's terms ascend in x (see ``am_logarithm``).

The regular-sequence and smoothness hypotheses behind the construction are
not verified (they are not decidable at this level); outputs are meaningful
on the parameter locus where those hypotheses hold.  Records are named tuples.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb, prod
from typing import Callable, Iterator, NamedTuple

from .formal_groups import Logarithm
from .picard_fuchs import ThetaOperator, expand_operator
from .polynomials import SparsePolynomial, as_integral, x_mul, x_polynomial
from .series import TruncatedSeries

PARAMETER = "x"


class UnknownFamilyError(ValueError):
    """The requested identifier is not in the catalog."""


class BudgetExceededError(RuntimeError):
    """A point count, a congruence or a primality test would exceed its budget."""


class CompleteIntersectionFamily:
    """Homogeneous polynomials cutting out a pencil of Calabi-Yau varieties.

    At most N polynomials, each in Z[x][Z_0..Z_N].  Derived from them: ``ambient_dim`` = N
    and ``degrees``, each polynomial's degree (>= 1) in the Z-variables, summing to N+1.
    """

    __slots__ = ("name", "polynomials", "ambient_dim", "degrees")

    def __init__(self, name: str, polynomials: tuple[SparsePolynomial, ...]):
        self.name, self.polynomials = name, polynomials
        if not polynomials:
            raise ValueError("need at least one polynomial")
        variables = polynomials[0].variables
        if any(poly.variables != variables for poly in polynomials):
            raise ValueError(f"every polynomial must declare the variables {variables}")
        if PARAMETER not in variables:
            raise ValueError(f"variables {variables} do not contain the parameter {PARAMETER!r}")
        if len(variables) < 2:
            raise ValueError(f"variables {variables} hold no coordinate besides {PARAMETER!r}")
        self.ambient_dim, x = len(variables) - 2, variables.index(PARAMETER)
        degrees = [{sum(e) - e[x] for e in poly.terms} for poly in polynomials]
        for poly, found in zip(polynomials, degrees):
            if len(found) != 1:
                raise ValueError(f"{poly} is not a nonzero form in {self.coordinate_variables()}")
            if found == {0}:
                raise ValueError(f"{poly} has degree 0 in {self.coordinate_variables()}")
        self.degrees = tuple(found.pop() for found in degrees)
        if sum(self.degrees) != self.ambient_dim + 1:
            raise ValueError(
                f"degrees {self.degrees} must sum to N+1 = {self.ambient_dim + 1}"
            )
        if self.dimension < 0:
            raise ValueError(
                f"dimension N - codimension = {self.ambient_dim} - {self.codimension} is negative"
            )

    def _key(self) -> tuple:
        return self.name, self.polynomials

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompleteIntersectionFamily):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"CompleteIntersectionFamily({fields})"

    def coordinate_variables(self) -> tuple[str, ...]:
        return tuple(v for v in self.polynomials[0].variables if v != PARAMETER)

    @property
    def codimension(self) -> int:
        return len(self.polynomials)

    @property
    def dimension(self) -> int:
        return self.ambient_dim - self.codimension


class FamilyCatalogEntry(NamedTuple):
    identifier: str
    family: CompleteIntersectionFamily
    closed_forms: Callable[[int], Iterator[dict]]  # m_max -> a_1..a_(m_max) over Z as int dicts
    # (m, p, s) -> a_m mod p^s from the same formula, over small ints
    closed_form_mod: Callable[[int, int, int], SparsePolynomial]
    # the Picard-Fuchs operator, and its holomorphic period to a given order
    picard_fuchs: ThetaOperator
    period: Callable[[int], TruncatedSeries]
    # declared singular parameter values: x = 0 plus every (c, e) condition
    # c * x^e = 1.  For the cubic pencil both 27x^3 = 1 and 27x^3 = -1 are
    # declared; the latter fibers factor into three lines (check x = -1/3), the
    # former are smooth away from 2 and 3 and are skipped only as declared.
    singular_rules: tuple[tuple[int, int], ...] = ()

    @property
    def dimension(self) -> int:
        return self.family.dimension


def _pencil_poly(zvars: tuple[str, ...], sign: int) -> SparsePolynomial:
    """prod Z_i + sign * x * (sum Z_i^n)  with n the number of coordinates."""
    variables = (PARAMETER,) + zvars
    n = len(zvars)
    terms = {}
    prod_exps = (0,) + (1,) * n
    terms[prod_exps] = 1
    for i in range(n):
        exps = [1] + [0] * n
        exps[1 + i] = n
        terms[tuple(exps)] = sign
    return SparsePolynomial(variables, terms)


def _symmetric_closed_forms(n: int, sign: int) -> Callable[[int], Iterator[dict]]:
    """a_1..a_(m_max) as ``{x exponent: int}`` dicts, a_m = sum_j sign^j (nj)!/(j!)^n C(m-1, nj) x^(nj).

    Term j of a_m is a_(m-1)'s times (m-1)/(m-1-nj), exact over Z; when m-1 = nj, a_m gains the top
    term, the last top term times sign * (nj-n+1) ... (nj) / j^n.  Only the last a_m is held.
    """

    def walk(m_max: int) -> Iterator[dict]:
        terms, top = {}, 1
        for m1 in range(m_max):  # m - 1
            terms = {e: c * m1 // (m1 - e) for e, c in terms.items()}
            if not m1 % n:
                top = terms[m1] = top * sign * prod(range(m1 - n + 1, m1 + 1)) // (m1 // n) ** n if m1 else 1
            yield terms

    return walk


#: psi_12, the least strong pseudoprime to the prime bases 2..37 (Sorenson-Webster 2017).
PRIMALITY_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin, bases 2..37: exact below PRIMALITY_BOUND; then BudgetExceededError unless a base divides n."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(not n % b for b in bases):
        return n in bases
    if n >= PRIMALITY_BOUND:
        raise BudgetExceededError(f"{n} is at or above the primality bound {PRIMALITY_BOUND}")
    d = n - 1
    r = (d & -d).bit_length() - 1  # d = odd * 2^r
    return n < 41 * 41 or all(  # below 41^2, no factor up to 37 means prime
        pow(b, d >> r, n) == 1 or d in (pow(b, d >> i, n) for i in range(1, r + 1))
        for b in bases
    )


def _symmetric_closed_form_mod(n: int, sign: int) -> Callable[[int, int, int], SparsePolynomial]:
    """a_m mod p^s for a prime p, term j from term j-1 by sign * (m-nj) ... (m-nj+n-1) / j^n.

    Term j is unit * p^e with unit (sign^j included) prime to p and kept mod
    p^s: each numerator factor m-nj+i (never 0) adds its p-valuation to e and
    multiplies its p-free part into unit, and j^n takes n v_p(j) from e and
    divides unit by the n-th power of j's p-free part.  A term with e >= s
    vanishes mod p^s.  For hesse, a_7 = 1 + 120 x^3 + 90 x^6 with 120 = 3 * 40
    and 90 = 3^2 * 10, so mod 9:

    >>> print(builtin_family("hesse-cubic").closed_form_mod(7, 3, 2))
    1+3*x^3
    """

    def rule(m: int, p: int, s: int) -> SparsePolynomial:
        if p >= PRIMALITY_BOUND:
            raise BudgetExceededError(f"p = {p} is at or above the primality bound {PRIMALITY_BOUND}")
        if m < 1 or s < 1 or not is_prime(p):
            raise ValueError(f"need m >= 1, a prime p and s >= 1; got m = {m}, p = {p}, s = {s}")
        q = p**s
        terms = {(0,): 1}
        unit, e = 1, 0
        for j in range(1, (m - 1) // n + 1):
            for k in range(m - n * j, m - n * j + n):
                while not k % p:
                    k //= p
                    e += 1
                unit = unit * k % q
            k = j
            while not k % p:
                k //= p
                e -= n
            unit = sign * unit * pow(k, -n, q) % q
            if e < s:
                terms[(n * j,)] = unit * p**e % q
        return SparsePolynomial._canonical((PARAMETER,), terms)

    return rule


def _symmetric_picard_fuchs(n: int, sign: int) -> ThetaOperator:
    """theta^(n-1) - eps n^n x^n (theta+1)(theta+2)...(theta+n-1), eps = (-sign)^n."""
    return expand_operator([(1, 0, (0,) * (n - 1)), (-((-sign) ** n) * n**n, n, range(1, n))])


def _symmetric_period(n: int, sign: int) -> Callable[[int], TruncatedSeries]:
    """sum_j eps^j (nj)!/(j!)^n x^(nj), eps = (-sign)^n, truncated at a given order;
    term j+1 is term j times eps (nj+1) (nj+2) ... (nj+n) / (j+1)^n."""

    def period(order: int) -> TruncatedSeries:
        coeffs = [0] * (order + 1)
        c = 1
        for j in range(order // n + 1):
            coeffs[n * j] = c
            c = c * (-sign) ** n * prod(range(n * j + 1, n * j + n + 1)) // (j + 1) ** n
        return TruncatedSeries(PARAMETER, coeffs, order)

    return period


def _build_catalog() -> dict[str, FamilyCatalogEntry]:
    pencils = (  # identifier, coordinates, sign, singular rules
        ("hesse-cubic", ("X", "Y", "Z"), 1, ((27, 3), (-27, 3))),
        ("quartic-k3", ("W", "X", "Y", "Z"), 1, ((256, 4),)),
        ("quintic-cy3", ("Z0", "Z1", "Z2", "Z3", "Z4"), -1, ((3125, 5),)),
    )
    catalog = {}
    for name, zvars, sign, rules in pencils:
        n = len(zvars)
        family = CompleteIntersectionFamily(name, (_pencil_poly(zvars, sign),))
        catalog[name] = FamilyCatalogEntry(
            name, family, _symmetric_closed_forms(n, sign), _symmetric_closed_form_mod(n, sign),
            _symmetric_picard_fuchs(n, sign), _symmetric_period(n, sign), rules,
        )
    return catalog


_CATALOG = _build_catalog()

FAMILY_IDS = tuple(sorted(_CATALOG))

_ALIASES = {"hesse": "hesse-cubic", "quartic": "quartic-k3", "quintic": "quintic-cy3"}


def resolve_family_id(identifier: str) -> str:
    identifier = _ALIASES.get(identifier, identifier)
    if identifier not in _CATALOG:
        raise UnknownFamilyError(
            f"unknown family {identifier!r}; available: {', '.join(FAMILY_IDS)}"
        )
    return identifier


def builtin_family(identifier: str) -> FamilyCatalogEntry:
    return _CATALOG[resolve_family_id(identifier)]


def am_logarithm(family: CompleteIntersectionFamily, m_max: int) -> Logarithm:
    """Logarithm of the family with coefficients a_1..a_{m_max}, by extraction.

    Q = P_1 * ... * P_s is c * D + R, with D = Z_0 * ... * Z_N and c in Z[x] (maybe 0).
    As c * D and R commute, a_{k+1} = [D^k] Q^k = sum_j C(k, j) c^(k-j) b_j, where, for
    R = sum_r R_r Z^(z_r) with R_r in Z[x], b_j = [D^j] R^j = sum (j; alpha) prod_r R_r^alpha_r
    over every alpha with sum_r alpha_r z_r = (j, ..., j).

    Every b_j comes from one pass over R's monomials.  A state is a partial Z vector v
    holding {x exponent: coefficient}; monomial r moves it to v + a z_r times
    C(t + a, a) R_r^a, with t = |v| / (N+1) the monomials used so far (Q is homogeneous
    of degree N+1), and these binomials multiply to (j; alpha).  A coordinate that no
    later monomial touches is final and must equal j; every other stays <= j and below
    m_max, and once j is known the multiplicity that closes a coordinate is one
    division.  The monomials touching the fewest-touched coordinates go first, so one
    closes early.  After the last monomial, b_j is the state (j, ..., j).  The terms of
    a_m ascend in x.

    >>> am_logarithm(builtin_family("hesse-cubic").family, 7).coefficient(7).terms
    {(0,): 1, (3,): 120, (6,): 90}
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    q = as_integral(prod(family.polynomials[1:], start=family.polynomials[0]))  # in Z[x], or refused: a_m is too
    zidx = [q.variables.index(v) for v in family.coordinate_variables()]
    xidx = q.variables.index(PARAMETER)
    rows: dict[tuple, dict] = {}
    for e, c in q.terms.items():
        rows.setdefault(tuple(e[i] for i in zidx), {})[e[xidx]] = c
    n = len(zidx)
    c_of_d = rows.pop((1,) * n, {})  # c; the rows left are R's
    rare = sorted(range(n), key=lambda i: sum(1 for z in rows if z[i]))
    rows = dict(sorted(rows.items(), key=lambda zr: min(rare.index(i) for i, e in enumerate(zr[0]) if e)))
    last = {i: r for r, z in enumerate(rows) for i, e in enumerate(z) if e}  # the step that closes i
    states = {(0,) * n: {0: 1}}
    for r, (z, row) in enumerate(rows.items()):
        final, closing = [i for i in range(n) if last.get(i, -1) < r], [i for i in range(n) if last.get(i) == r]
        support, powers, nxt = [(i, e) for i, e in enumerate(z) if e], _powers(row, (m_max - 1) // max(z)), {}
        c0, rest = closing[0] if closing else None, closing[1:]
        for v, value in states.items():
            top, t = v[final[0]] if final else m_max - 1, sum(v) // n  # top is j once a coordinate is final
            fits = ((top - v[c0]) // z[c0],) if final and closing else range(  # one division closes c0 at j
                min([(top - v[i]) // e for i, e in support]) + 1)
            for a in fits:
                w = list(v)
                for i, e in support:
                    w[i] += a * e
                w = tuple(w)
                if closing and (w[c0] != (j := max(w)) or rest and any(w[i] != j for i in rest)):  # w[c0] <= top caps j
                    continue
                k, power, out = comb(t + a, a), powers[a], nxt.setdefault(w, {})
                for x1, c1 in value.items():  # out += C(t + a, a) row^a value
                    c1 *= k
                    for x2, c2 in power:
                        out[x1 + x2] = out.get(x1 + x2, 0) + c1 * c2
        states = nxt
    sums, c_powers = [{} for _ in range(m_max)], _powers(c_of_d, m_max - 1)
    for j in range(m_max):
        b_j = list(states.get((j,) * n, {}).items())
        for i in range(m_max - j) if b_j else ():  # a_(j+i+1)'s sum += C(j + i, i) b_j c^i
            out, b = sums[j + i], comb(j + i, i)
            for x1, c1 in b_j:
                c1 *= b
                for x2, c2 in c_powers[i]:
                    out[x1 + x2] = out.get(x1 + x2, 0) + c1 * c2
    return Logarithm._canonical(tuple(SparsePolynomial._canonical((PARAMETER,), {(x,): s[x] for x in sorted(s)})
                                      for s in sums))


def _powers(p: dict, k: int) -> list[list]:
    """The terms of p^0 .. p^k (p a dict in x) as (x exponent, coefficient) lists; a monomial's by a power each."""
    return ([[(e * a, c**a)] for ((e, c),) in [p.items()] for a in range(k + 1)] if len(p) == 1
            else [list(q.items()) for q in accumulate(repeat(p, k), x_mul, initial={0: 1})])


def closed_form_logarithm(identifier: str, m_max: int) -> Logarithm:
    """Logarithm from the printed binomial/factorial rule of a built-in family."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    walk = builtin_family(identifier).closed_forms(m_max)
    return Logarithm._canonical(tuple(x_polynomial((PARAMETER,), a) for a in walk))


def family_logarithm(identifier: str, m_max: int, method: str = "extraction") -> Logarithm:
    entry = builtin_family(identifier)
    if method == "extraction":
        return am_logarithm(entry.family, m_max)
    if method == "closed-form":
        return closed_form_logarithm(identifier, m_max)
    raise ValueError(f"unknown method {method!r}; use 'extraction' or 'closed-form'")
