"""Built-in complete-intersection pencils and their logarithm coefficients.

The m-th coefficient of the formal group logarithm of the family cut out by
homogeneous ``P_1..P_s`` in projective space (degrees summing to the number
of homogeneous coordinates) is

    a_m = coefficient of (Z_0 * ... * Z_N)^(m-1)  in  (P_1 * ... * P_s)^(m-1),

an element of Z[x] for the one-parameter pencils shipped here.  Three pencils
are built in, each with a closed-form coefficient rule used as an independent
oracle; the extraction path is the authority if the two ever disagree.

The regular-sequence and smoothness hypotheses behind the construction are
not verified (they are not decidable at this level); outputs are meaningful
on the parameter locus where those hypotheses hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, prod
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
        if len(self.polynomials) != len(self.degrees):
            raise ValueError("one degree per polynomial")
        if sum(self.degrees) != self.ambient_dim + 1:
            raise ValueError(
                f"degrees {self.degrees} must sum to N+1 = {self.ambient_dim + 1}"
            )
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
    dimension: int
    closed_form: Callable[[int], SparsePolynomial] = field(compare=False)
    # declared singular parameter values: x = 0 plus every (c, e) condition
    # c * x^e = 1.  For the cubic pencil both 27x^3 = 1 and 27x^3 = -1 are
    # declared; the latter fibers factor into three lines (check x = -1/3).
    singular_rules: tuple[tuple[int, int], ...] = field(compare=False, default=())


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
    """a_m = sum_j sign^j (nj)!/(j!)^n C(m-1, nj) x^(nj)."""

    def rule(m: int) -> SparsePolynomial:
        if m < 1:
            raise ValueError("coefficients are indexed from 1")
        terms = {}
        j = 0
        while n * j <= m - 1:
            c = comb(m - 1, n * j)
            if c:
                value = (sign**j) * (factorial(n * j) // factorial(j) ** n) * c
                terms[(n * j,)] = value
            j += 1
        return SparsePolynomial((PARAMETER,), terms)

    return rule


def _build_catalog() -> dict[str, FamilyCatalogEntry]:
    hesse = CompleteIntersectionFamily(
        name="hesse-cubic",
        ambient_dim=2,
        polynomials=(_pencil_poly(("X", "Y", "Z"), 1),),
        degrees=(3,),
    )
    quartic = CompleteIntersectionFamily(
        name="quartic-k3",
        ambient_dim=3,
        polynomials=(_pencil_poly(("W", "X", "Y", "Z"), 1),),
        degrees=(4,),
    )
    quintic = CompleteIntersectionFamily(
        name="quintic-cy3",
        ambient_dim=4,
        polynomials=(_pencil_poly(("Z0", "Z1", "Z2", "Z3", "Z4"), -1),),
        degrees=(5,),
    )
    return {
        "hesse-cubic": FamilyCatalogEntry(
            "hesse-cubic",
            hesse,
            hesse.dimension,
            _symmetric_closed_form(3, 1),
            ((27, 3), (-27, 3)),
        ),
        "quartic-k3": FamilyCatalogEntry(
            "quartic-k3",
            quartic,
            quartic.dimension,
            _symmetric_closed_form(4, 1),
            ((256, 4),),
        ),
        "quintic-cy3": FamilyCatalogEntry(
            "quintic-cy3",
            quintic,
            quintic.dimension,
            _symmetric_closed_form(5, -1),
            ((3125, 5),),
        ),
    }


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
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    q = prod(family.polynomials[1:], start=family.polynomials[0])
    zidx = [q.variables.index(v) for v in family.coordinate_variables()]
    xidx = q.variables.index(PARAMETER)
    qterms = list(q.terms.items())

    partial: dict[tuple, int] = {(0,) * len(q.variables): 1}
    coeffs = []
    for k in range(m_max):
        if k:
            nxt: dict[tuple, int] = {}
            for exps, c in partial.items():
                for qexps, qc in qterms:
                    merged = tuple(map(add, exps, qexps))
                    if any(merged[i] >= m_max for i in zidx):
                        continue
                    nxt[merged] = nxt.get(merged, 0) + c * qc
            partial = {e: c for e, c in nxt.items() if c}
        # a diagonal term is fixed by its x-exponent, so no two share a key
        a_k = {(e[xidx],): c for e, c in partial.items() if all(e[i] == k for i in zidx)}
        coeffs.append(SparsePolynomial((PARAMETER,), a_k))
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
