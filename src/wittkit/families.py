"""Built-in complete-intersection pencils and their logarithm coefficients.

The m-th coefficient of the formal group logarithm of the family cut out by
homogeneous ``P_1..P_s`` in projective space (degrees summing to the number
of homogeneous coordinates) is

    a_m = coefficient of (Z_0 * ... * Z_N)^(m-1)  in  (P_1 * ... * P_s)^(m-1),

an element of Z[x] for the one-parameter pencils shipped here.  Three pencils
are built in, each with a closed-form coefficient rule used as an independent
oracle; the extraction path is the authority if the two ever disagree.
Extraction keys orbit sums by Z vector; a_m's terms ascend in x (see ``am_logarithm``).

The regular-sequence and smoothness hypotheses behind the construction are
not verified (they are not decidable at this level); outputs are meaningful
on the parameter locus where those hypotheses hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, prod
from operator import add
from typing import Callable

from .formal_groups import Logarithm
from .polynomials import SparsePolynomial

PARAMETER = "x"


class UnknownFamilyError(ValueError):
    """The requested identifier is not in the catalog."""


@dataclass(frozen=True)
class CompleteIntersectionFamily:
    """Homogeneous polynomials cutting out a pencil of Calabi-Yau varieties.

    Each polynomial lives in Z[x][Z_0..Z_N]; ``degrees`` are the homogeneous
    degrees in the Z-variables, which must sum to N+1.
    """

    name: str
    ambient_dim: int
    polynomials: tuple[SparsePolynomial, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.polynomials or len(self.polynomials) != len(self.degrees):
            raise ValueError("need at least one polynomial and one degree per polynomial")
        if sum(self.degrees) != self.ambient_dim + 1:
            raise ValueError(
                f"degrees {self.degrees} must sum to N+1 = {self.ambient_dim + 1}"
            )
        variables = self.polynomials[0].variables
        if any(poly.variables != variables for poly in self.polynomials):
            raise ValueError(f"every polynomial must declare the variables {variables}")
        if PARAMETER not in variables:
            raise ValueError(f"variables {variables} do not contain the parameter {PARAMETER!r}")
        zvars = self.coordinate_variables()
        if len(zvars) != self.ambient_dim + 1:
            raise ValueError(
                f"expected {self.ambient_dim + 1} coordinate variables, found {zvars}"
            )
        for poly, degree in zip(self.polynomials, self.degrees):
            if not poly.is_homogeneous(degree, zvars):
                raise ValueError(
                    f"{poly} is not homogeneous of degree {degree} in {zvars}"
                )

    def coordinate_variables(self) -> tuple[str, ...]:
        return tuple(v for v in self.polynomials[0].variables if v != PARAMETER)

    @property
    def codimension(self) -> int:
        return len(self.polynomials)

    @property
    def dimension(self) -> int:
        return self.ambient_dim - self.codimension


@dataclass(frozen=True)
class FamilyCatalogEntry:
    identifier: str
    family: CompleteIntersectionFamily
    closed_form: Callable[[int], SparsePolynomial] = field(compare=False)
    # (m, p, s) -> a_m mod p^s from the same formula, over small ints
    closed_form_mod: Callable[[int, int, int], SparsePolynomial] = field(compare=False)
    # declared singular parameter values: x = 0 plus every (c, e) condition
    # c * x^e = 1.  For the cubic pencil both 27x^3 = 1 and 27x^3 = -1 are
    # declared; the latter fibers factor into three lines (check x = -1/3).
    singular_rules: tuple[tuple[int, int], ...] = field(compare=False, default=())

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


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _symmetric_closed_form_mod(n: int, sign: int) -> Callable[[int, int, int], SparsePolynomial]:
    """a_m mod p^s for a prime p, in O(m) operations on ints below p^s.

    Write k! = p^v(k) u(k) with u(k) prime to p (v by Legendre).  The
    coefficient of x^(nj) is sign^j (m-1)! / ((j!)^n (m-1-nj)!), that is
    sign^j u(m-1) u(j)^(-n) u(m-1-nj)^(-1) p^e with e = v(m-1) - n v(j) -
    v(m-1-nj); it vanishes mod p^s when e >= s.  The inverses of u(k) come
    from one inversion and a backward pass.
    """

    def rule(m: int, p: int, s: int) -> SparsePolynomial:
        if m < 1 or s < 1 or not is_prime(p):
            raise ValueError(f"need m >= 1, a prime p and s >= 1; got m = {m}, p = {p}, s = {s}")
        q = p**s
        parts, units, vals = [1] * m, [1] * m, [0] * m
        for k in range(1, m):
            part, v = k, vals[k - 1]
            while not part % p:
                part //= p
                v += 1
            parts[k], units[k], vals[k] = part, units[k - 1] * part % q, v
        inverse = [pow(units[m - 1], -1, q)] * m
        for k in range(m - 1, 0, -1):
            inverse[k - 1] = inverse[k] * parts[k] % q
        terms = {}
        for j in range((m - 1) // n + 1):
            r = m - 1 - n * j
            e = vals[m - 1] - n * vals[j] - vals[r]
            if e < s:
                terms[(n * j,)] = sign**j * units[m - 1] * inverse[j] ** n * inverse[r] * p**e % q
        return SparsePolynomial._canonical((PARAMETER,), terms)

    return rule


def _build_catalog() -> dict[str, FamilyCatalogEntry]:
    pencils = (  # identifier, coordinates, sign, singular rules
        ("hesse-cubic", ("X", "Y", "Z"), 1, ((27, 3), (-27, 3))),
        ("quartic-k3", ("W", "X", "Y", "Z"), 1, ((256, 4),)),
        ("quintic-cy3", ("Z0", "Z1", "Z2", "Z3", "Z4"), -1, ((3125, 5),)),
    )
    catalog = {}
    for name, zvars, sign, rules in pencils:
        n = len(zvars)
        family = CompleteIntersectionFamily(name, n - 1, (_pencil_poly(zvars, sign),), (n,))
        catalog[name] = FamilyCatalogEntry(
            name, family, _symmetric_closed_form(n, sign), _symmetric_closed_form_mod(n, sign), rules
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

    With Q = P_1 * ... * P_s, one expansion of Q^(m_max - 1) gives them all:
    after the k-th multiplication by Q, a_{k+1} is the coefficient of
    (Z_0 * ... * Z_N)^k.  Partial terms with a Z-exponent of m_max or more
    are discarded; sound because exponents only grow.

    The expansion maps each Z vector to {x exponent: coefficient} and groups
    Q's terms by Z part, so each (Z vector, Z part of Q) pair costs one
    canonicalization and one prune test.  One Z vector is kept per orbit
    of the Z permutations fixing Q, valued at the orbit's coefficient sums.
    If the generators (Z_0 Z_1) and (Z_0 ... Z_N) fix Q, x exponents and
    coefficients included, the key is the sorted Z vector, else the vector
    as is.  A step adds D[v] * Q_q to D'[canon(v + q)]: exact, since
    sigma(v) + sigma(q) lies in the orbit of v + q and Q_sigma(q) = Q_q, and
    the prune's largest Z-exponent is the same across an orbit.  The diagonal
    (k, ..., k) is an orbit of one, so its orbit sum is a_{k+1} itself, with
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
    partial = {(0,) * len(zidx): {0: 1}}
    coeffs = []
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
        a_k = partial.get((k,) * len(zidx), {})
        coeffs.append(SparsePolynomial((PARAMETER,), {(x,): a_k[x] for x in sorted(a_k)}))
    return Logarithm("Z[x]", coeffs)


def am_coefficient(family: CompleteIntersectionFamily, m: int) -> SparsePolynomial:
    """The m-th logarithm coefficient of the family, by extraction."""
    if m < 1:
        raise ValueError("coefficients are indexed from 1")
    return am_logarithm(family, m).coefficient(m)


def closed_form_logarithm(identifier: str, m_max: int) -> Logarithm:
    """Logarithm from the printed binomial/factorial rule of a built-in family."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    entry = builtin_family(identifier)
    return Logarithm("Z[x]", [entry.closed_form(m) for m in range(1, m_max + 1)])


def family_logarithm(identifier: str, m_max: int, method: str = "extraction") -> Logarithm:
    entry = builtin_family(identifier)
    if method == "extraction":
        return am_logarithm(entry.family, m_max)
    if method == "closed-form":
        return closed_form_logarithm(identifier, m_max)
    raise ValueError(f"unknown method {method!r}; use 'extraction' or 'closed-form'")
