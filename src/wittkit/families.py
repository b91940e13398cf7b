"""Built-in complete-intersection pencils and their logarithm coefficients.

The m-th coefficient of the formal group logarithm of the family cut out by
homogeneous ``P_1..P_s`` in projective space (degrees summing to the number
of homogeneous coordinates) is

    a_m = coefficient of (Z_0 * ... * Z_N)^(m-1)  in  (P_1 * ... * P_s)^(m-1),

an element of Z[x] for the one-parameter pencils shipped here.  Three pencils
are built in, each with a closed-form coefficient rule used as an independent
oracle (the extraction path is the authority if the two ever disagree), its
Picard-Fuchs operator and its holomorphic period, all read from (n, sign).
Extraction expands P_1*...*P_s less its Z_0*...*Z_N term; a_m's terms ascend in x (see ``am_logarithm``).

The regular-sequence and smoothness hypotheses behind the construction are
not verified (they are not decidable at this level); outputs are meaningful
on the parameter locus where those hypotheses hold.  Records are named tuples.
"""

from __future__ import annotations

from math import comb, prod
from operator import add
from typing import Callable, NamedTuple

from .formal_groups import Logarithm
from .picard_fuchs import ThetaOperator, expand_operator
from .polynomials import SparsePolynomial
from .series import TruncatedSeries

PARAMETER = "x"


class UnknownFamilyError(ValueError):
    """The requested identifier is not in the catalog."""


class BudgetExceededError(RuntimeError):
    """A point enumeration, a congruence or a primality test would exceed its budget."""


class CompleteIntersectionFamily:
    """Homogeneous polynomials cutting out a pencil of Calabi-Yau varieties.

    Each polynomial lives in Z[x][Z_0..Z_N].  Derived from them: ``ambient_dim`` = N and
    ``degrees``, each polynomial's degree in the Z-variables; the degrees must sum to N+1.
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
        self.ambient_dim, x = len(variables) - 2, variables.index(PARAMETER)
        degrees = [{sum(e) - e[x] for e in poly.terms} for poly in polynomials]
        for poly, found in zip(polynomials, degrees):
            if len(found) != 1:
                raise ValueError(f"{poly} is not a nonzero form in {self.coordinate_variables()}")
        self.degrees = tuple(found.pop() for found in degrees)
        if sum(self.degrees) != self.ambient_dim + 1:
            raise ValueError(
                f"degrees {self.degrees} must sum to N+1 = {self.ambient_dim + 1}"
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
    closed_form: Callable[[int], SparsePolynomial]
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


def _symmetric_closed_form(n: int, sign: int) -> Callable[[int], SparsePolynomial]:
    """a_m = sum_j sign^j (nj)!/(j!)^n C(m-1, nj) x^(nj).

    Each term comes from the previous one: the ratio of the j-th to the
    (j-1)-th is sign * (m-nj) (m-nj+1) ... (m-nj+n-1) / j^n.
    """

    def rule(m: int) -> SparsePolynomial:
        if m < 1:
            raise ValueError("coefficients are indexed from 1")
        terms = {(0,): 1}
        c = 1
        for j in range(1, (m - 1) // n + 1):
            c = c * sign * prod(range(m - n * j, m - n * j + n)) // j**n
            terms[(n * j,)] = c
        return SparsePolynomial._canonical((PARAMETER,), terms)

    return rule


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
    """a_m mod p^s for a prime p, along the ratio ``_symmetric_closed_form`` walks.

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
            name, family, _symmetric_closed_form(n, sign), _symmetric_closed_form_mod(n, sign),
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
    As c * D and R commute, a_{k+1} = [D^k] Q^k = sum_j C(k, j) c^(k-j) b_j, and step j
    of one expansion of R^(m_max - 1) gives b_j = [D^j] R^j.  Partial terms with a
    Z-exponent of m_max or more are discarded: exponents only grow, and no b_j, j < m_max, has one.

    The expansion maps each Z vector to {x exponent: coefficient} and groups
    R's terms by Z part, so each (Z vector, Z part of R) pair costs one
    canonicalization and one prune test.  One Z vector is kept per orbit of
    the Z permutations fixing Q (and R: all fix D), valued at the orbit's
    coefficient sums.  If (Z_0 Z_1) and (Z_0 ... Z_N) fix Q, x exponents and
    coefficients included, the key is the sorted Z vector, else the vector
    as is.  With S the kept sums, a step adds S[v] * R_r to S'[canon(v + r)]: exact, since
    sigma(v) + sigma(r) lies in the orbit of v + r and R_sigma(r) = R_r, and
    the prune's largest Z-exponent is the same across an orbit.  The diagonal
    (j, ..., j) is an orbit of one, so its orbit sum is b_j itself, with
    no division.  The terms of a_m ascend in x.

    >>> am_logarithm(builtin_family("hesse-cubic").family, 7).coefficient(7).terms
    {(0,): 1, (3,): 120, (6,): 90}
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    q = prod(family.polynomials[1:], start=family.polynomials[0])
    zidx = [q.variables.index(v) for v in family.coordinate_variables()]
    xidx = q.variables.index(PARAMETER)
    qterms = {(tuple(e[i] for i in zidx), e[xidx]): c for e, c in q.terms.items()}
    ids = tuple(range(len(zidx)))
    symmetric = all(qterms == {(tuple(z[i] for i in p), x): c for (z, x), c in qterms.items()}
                    for p in (ids[1::-1] + ids[2:], ids[1:] + ids[:1]))
    canon = sorted if symmetric else list
    qrows: dict[tuple, list] = {}
    for (qz, qx), qc in qterms.items():
        qrows.setdefault(qz, []).append((qx, qc))
    c_of_d = qrows.pop((1,) * len(zidx), [])  # c; the rows left are R's
    partial = {(0,) * len(zidx): {0: 1}}
    b, c_powers, coeffs = [], [{0: 1}], []  # (j, b_j) for b_j != 0, and c^j, over x
    for k in range(m_max):
        if k:
            nxt: dict[tuple, dict[int, int]] = {}
            for z, row in partial.items():
                for qz, qrow in qrows.items():
                    nz = canon(map(add, z, qz))
                    if max(nz) < m_max:
                        out = nxt.setdefault(tuple(nz), {})
                        for x, c in row.items():
                            for qx, qc in qrow:
                                out[x + qx] = out.get(x + qx, 0) + c * qc
            partial = {z: r for z, row in nxt.items() if (r := {x: c for x, c in row.items() if c})}
            c_powers.append(c_k := {})
            for x, c in c_powers[-2].items():
                for qx, qc in c_of_d:
                    c_k[x + qx] = c_k.get(x + qx, 0) + c * qc
        if (k,) * len(zidx) in partial:
            b.append((k, partial[(k,) * len(zidx)]))
        a_k: dict[int, int] = {}
        for j, b_j in b:
            for cx, cc in c_powers[k - j].items():
                for x, c in b_j.items():
                    a_k[x + cx] = a_k.get(x + cx, 0) + comb(k, j) * cc * c
        coeffs.append(SparsePolynomial._canonical((PARAMETER,), {(x,): a_k[x] for x in sorted(a_k)}))
    return Logarithm(coeffs)


def closed_form_logarithm(identifier: str, m_max: int) -> Logarithm:
    """Logarithm from the printed binomial/factorial rule of a built-in family."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    entry = builtin_family(identifier)
    return Logarithm([entry.closed_form(m) for m in range(1, m_max + 1)])


def family_logarithm(identifier: str, m_max: int, method: str = "extraction") -> Logarithm:
    entry = builtin_family(identifier)
    if method == "extraction":
        return am_logarithm(entry.family, m_max)
    if method == "closed-form":
        return closed_form_logarithm(identifier, m_max)
    raise ValueError(f"unknown method {method!r}; use 'extraction' or 'closed-form'")
