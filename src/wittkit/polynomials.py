"""Exact sparse multivariate polynomial arithmetic.

Coefficients are Python ints or :class:`fractions.Fraction` values; nothing in
this package ever touches floating point.  A polynomial is a map from exponent
vectors to nonzero coefficients, indexed by an ordered tuple of variable
names.  The stored form is canonical (no zero terms, exponent vectors of the
declared length), so two polynomials are equal exactly when their variable
tuples and term maps are equal.

Inputs are validated once, at the public boundary: ``SparsePolynomial(...)``,
the classmethod constructors, ``map_coefficients``, ``evaluate`` and
``serialize.value_from_obj``, whose schema checks a one-variable object's
terms in full and builds it by ``_canonical``, like every result of ``+``,
``-``, ``*``, ``**`` and ``reduce_mod``: it keeps the new dict it is given
unless a zero term must go.  An int scales terms, ``p + 0`` is ``p``.  Over
``Z[x]``, where ``x_variables`` says so (ints ride as constants), the Witt sieve
and group-law synthesis run on ``{x exponent: coefficient}`` dicts, and both
coefficient congruences read their residues through ``x_residues`` into such dicts.

Values are immutable after construction and every operation is a pure
function, so they are safe to share across threads.

>>> x = SparsePolynomial.variable("x")
>>> str(1 + 6 * x**3)
'1+6*x^3'
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

#: Exact scalars.  ``Fraction`` already maintains the canonical form
#: (gcd(|num|, den) = 1, den >= 1) required of every rational in this package.
Scalar = Union[int, Fraction]
Value = Union[int, Fraction, "SparsePolynomial"]


class VariableMismatchError(ValueError):
    """An operation referenced variables a polynomial does not declare."""


class NonIntegralError(ValueError):
    """A value that must be integral has a nontrivial denominator."""


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


class SparsePolynomial:
    """A multivariate polynomial with exact coefficients in canonical form."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, Scalar] | None = None):
        variables = tuple(variables)
        nvars = len(variables)
        if len(set(variables)) != nvars:
            raise VariableMismatchError(f"duplicate variable names in {variables!r}")
        clean: dict[tuple, Scalar] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise VariableMismatchError(
                    f"exponent vector {exps!r} does not match variables {variables!r}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps!r}")
            if not _is_scalar(c):
                raise TypeError(f"coefficient {c!r} is not an exact scalar")
            if c != 0:
                clean[exps] = clean.get(exps, 0) + c
        self.variables = variables
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _canonical(cls, variables: tuple, terms: dict) -> "SparsePolynomial":
        """Trusted constructor for results of validated operands: it keeps ``terms``,
        a new dict no caller touches again, and copies it only to drop zero terms."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms if all(terms.values()) else {e: c for e, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "SparsePolynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, value: Scalar, variables: Iterable[str] = ()) -> "SparsePolynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "SparsePolynomial":
        """The monomial ``name`` inside the ring with the given variables."""
        variables = (name,) if variables is None else tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"{name!r} not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Scalar | None:
        """The scalar this polynomial equals, or None if it is not constant."""
        if not self.terms:
            return 0
        if self.is_constant():
            return next(iter(self.terms.values()))
        return None

    def is_integral(self) -> bool:  # ints first: isinstance(c, Fraction) goes through ABCMeta
        return all(type(c) is int for c in self.terms.values()) or all(
            not isinstance(c, Fraction) or c.denominator == 1 for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def _align(self, other) -> "tuple[SparsePolynomial, SparsePolynomial] | None":
        if isinstance(other, SparsePolynomial) and other.variables == self.variables:
            return self, other
        if not (_is_scalar(other) or isinstance(other, SparsePolynomial)):
            return None
        oc = other if _is_scalar(other) else other.constant_value()
        if oc is not None:
            return self, self._canonical(self.variables, {(0,) * len(self.variables): oc})
        sc = self.constant_value()
        if sc is None:
            raise VariableMismatchError(
                f"cannot combine polynomials over {self.variables!r} and {other.variables!r}"
            )
        return self._canonical(other.variables, {(0,) * len(other.variables): sc}), other

    def __add__(self, other):
        if type(other) is int and not other:  # a value is immutable, so 0 + p is p
            return self
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, 0) + c
        return SparsePolynomial._canonical(a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial._canonical(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, 0) - c
        return SparsePolynomial._canonical(a.variables, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:  # not a bool, which is no scalar (TypeError)
            return SparsePolynomial._canonical(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        terms: dict[tuple, Scalar] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return SparsePolynomial._canonical(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = SparsePolynomial.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if _is_scalar(other):
            return self.constant_value() == other
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if self.variables == other.variables:
            return self.terms == other.terms
        sc, oc = self.constant_value(), other.constant_value()
        return sc is not None and oc is not None and sc == oc

    def __hash__(self):
        cv = self.constant_value()
        if cv is not None:
            return hash(cv)
        return hash((self.variables, frozenset(self.terms.items())))

    # -- structural operations ---------------------------------------------

    def map_coefficients(self, fn) -> "SparsePolynomial":
        return SparsePolynomial(self.variables, {e: fn(c) for e, c in self.terms.items()})

    def reduce_mod(self, modulus: int) -> "SparsePolynomial":
        """Reduce every coefficient into the canonical residue range [0, N).

        >>> str(SparsePolynomial(("x",), {(0,): 1, (3,): 24}).reduce_mod(5))
        '1+4*x^3'
        """
        if not isinstance(modulus, int) or modulus < 1:
            raise ValueError("modulus must be a positive integer")
        return SparsePolynomial._canonical(self.variables, {  # an int's residue needs no as_integral
            e: c % modulus if type(c) is int else as_integral(c) % modulus for e, c in self.terms.items()})

    def evaluate(self, assignment: Mapping[str, Value]):
        """Substitute values for some variables; exact, possibly partial.

        Returns a scalar when every variable is assigned, otherwise a
        polynomial over the remaining variables.  A full assignment's scalar
        is an int or a ``Fraction`` as the arithmetic leaves it, so one call
        and nested partial calls can return equal values of different types
        (``Fraction(3, 1)`` against ``3``): a partial result drops a term
        whose coefficient cancels to ``Fraction(0)``.
        """
        for name in assignment:
            if name not in self.variables:
                raise VariableMismatchError(f"{name!r} not among {self.variables!r}")
        assigned = [(i, assignment[v]) for i, v in enumerate(self.variables) if v in assignment]
        remaining = [i for i, v in enumerate(self.variables) if v not in assignment]
        out, total = {}, 0  # total: the scalar, when every variable is assigned, with no key per term
        for exps, c in self.terms.items():
            for i, v in assigned:
                if exps[i]:
                    c = c * v ** exps[i]
            if remaining:
                key = tuple(exps[i] for i in remaining)
                out[key] = out.get(key, 0) + c
            else:
                total = total + c
        return SparsePolynomial(tuple(self.variables[i] for i in remaining), out) if remaining else total

    # -- formatting ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Scalar]]:
        """Terms in the canonical order: ascending total degree, then ascending exponent vector
        under the declared variable order, which for unique 1-tuples is their plain order."""
        return sorted(self.terms.items(), key=None if len(self.variables) == 1 else lambda t: (sum(t[0]), t[0]))

    def __str__(self) -> str:
        return format_value(self)

    def __repr__(self) -> str:
        terms = ", ".join(f"{e!r}: {_value_repr(c)}" for e, c in self.sorted_terms())
        return f"SparsePolynomial({self.variables!r}, {{{terms}}})"


# -- value helpers (shared by series, Witt vectors, formal groups) ----------


def is_integral(value: Value) -> bool:
    if isinstance(value, int):  # first: isinstance(value, Fraction) goes through ABCMeta
        return True
    if isinstance(value, SparsePolynomial):
        return value.is_integral()
    return isinstance(value, Fraction) and value.denominator == 1


def as_integral(value: Value) -> Value:
    """Convert an integral value to int coefficients; raise otherwise.
    A polynomial whose coefficients are all ints is returned unchanged."""
    if isinstance(value, int):  # first: isinstance(value, Fraction) goes through ABCMeta
        return value
    if isinstance(value, SparsePolynomial):
        if all(isinstance(c, int) for c in value.terms.values()):
            return value
        return value.map_coefficients(as_integral)
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise NonIntegralError(f"{value} is not an integer")
        return int(value)
    raise TypeError(f"not an exact value: {value!r}")


def as_x_polynomial(value: Value) -> SparsePolynomial:
    """A scalar or constant polynomial recast as a polynomial in ``x``;
    polynomials already in ``x`` pass through unchanged."""
    if isinstance(value, SparsePolynomial):
        if value.variables == ("x",):
            return value
        cv = value.constant_value()
        if cv is None:
            raise VariableMismatchError(f"expected a polynomial in 'x', got {value.variables!r}")
        value = cv
    return SparsePolynomial.constant(value, ("x",))


def divide_exact(value: Value, k: int) -> Value:
    """Divide by a positive integer, insisting the division is exact."""
    if isinstance(value, int):
        q, r = divmod(value, k)
        if r:
            raise NonIntegralError(f"{value} is not divisible by {k}")
        return q
    if isinstance(value, Fraction):
        q = value / k
        if q.denominator != 1:
            raise NonIntegralError(f"{value} is not divisible by {k}")
        return int(q)
    if isinstance(value, SparsePolynomial):
        return SparsePolynomial._canonical(
            value.variables, {e: divide_exact(c, k) for e, c in value.terms.items()}
        )
    raise TypeError(f"not an exact value: {value!r}")


def x_variables(values) -> tuple | None:
    """``(v,)`` if each value is an int or a polynomial in v alone, one polynomial at least: the dict form's rule."""
    kinds = {a.variables if type(a) is SparsePolynomial else () for a in values if type(a) is not int}
    return kinds.pop() if len(kinds) == 1 and len(next(iter(kinds))) == 1 else None  # any other value: ()


def x_terms(p: SparsePolynomial) -> dict:
    """A polynomial in one variable as an ``{x exponent: coefficient}`` dict."""
    return {e: c for (e,), c in p.terms.items()}


def x_residues(value: Value | dict, modulus: int) -> dict:
    """The nonzero residues mod ``modulus`` of an int dict, or of a value in x by ``reduce_mod``, as a dict."""
    terms = value if type(value) is dict else x_terms(as_x_polynomial(value).reduce_mod(modulus))
    return {e: r for e, c in terms.items() if (r := c % modulus)}


def x_polynomial(variables: tuple, terms: dict) -> SparsePolynomial:
    """The polynomial over the one variable of ``variables`` with these dict terms, less any zero."""
    return SparsePolynomial._canonical(variables, {(e,): c for e, c in terms.items()})


def x_add_products(out: list, start: int, c: dict, row) -> None:
    """``out[start + j] += c * row[j]`` in place for each nonzero dict ``row[j]``, in SparsePolynomial order."""
    for j, b in enumerate(row, start):
        if b:
            acc = out[j]
            for e1, c1 in c.items():
                for e2, c2 in b.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2


def x_mul(a: dict, b: dict | int) -> dict:
    """``a * b`` for a dict and a dict or an int: a new dict, without the 0s a SparsePolynomial product drops,
    by ``x_add_products``' loop (``witt._ghost_terms`` writes it out once more); ``x_mul(a, 0)`` is ``{}``."""
    if type(b) is int:
        return {e: c * b for e, c in a.items()} if b else {}
    x_add_products(out := [{}], 0, a, (b,))
    return out[0] if all(out[0].values()) else {e: c for e, c in out[0].items() if c}


def format_value(value: Value) -> str:
    """Canonical text form: terms ascending by degree, explicit * and ^, each
    coefficient printed exactly however many digits it has.

    >>> format_value(SparsePolynomial(("x",), {(0,): 1, (5,): -120}))
    '1-120*x^5'
    """
    if _is_scalar(value):
        return _scalar_text(value)
    if not value.terms:
        return "0"
    if len(value.variables) == 1:  # one f-string per term, which refuses ints past str()'s digit limit
        x = value.variables[0]
        one = f"{x}^" if x[:1] == "-" else f"+{x}^"  # a term is signed unless its text starts with "-"
        try:
            text = "".join([(f"+{c}" if c > 0 else f"{c}") if not e else f"{one}{e}" if c == 1 else f"-{x}^{e}"
                            if c == -1 else f"+{c}*{x}^{e}" if c > 0 else f"{c}*{x}^{e}"
                            for (e,), c in sorted(value.terms.items())])
            return text[1:] if text[0] == "+" else text
        except ValueError:  # then term by term, below
            pass
    parts = []
    for exps, c in value.sorted_terms():
        mono = "*".join(f"{v}^{e}" for v, e in zip(value.variables, exps) if e)
        text = (_scalar_text(c) if not mono else mono if c == 1 else "-" + mono if c == -1
                else f"{_scalar_text(c)}*{mono}")
        parts.append(text if not parts or text[0] == "-" else "+" + text)
    return "".join(parts)


def _value_repr(value: Value) -> str:
    """``repr(value)`` whatever its size: ints go through ``_scalar_text``."""
    if isinstance(value, Fraction):
        return f"Fraction({_scalar_text(value.numerator)}, {_scalar_text(value.denominator)})"
    return _scalar_text(value) if isinstance(value, int) else repr(value)


def _scalar_text(c: Scalar) -> str:
    """``str(c)`` for a scalar of any size: CPython's ``str`` refuses ints of
    more than 4,300 digits, and ``decimal`` has no such limit."""
    try:
        return str(c)
    except ValueError:
        if isinstance(c, Fraction) and c.denominator != 1:
            return f"{_scalar_text(c.numerator)}/{_scalar_text(c.denominator)}"
        return str(Decimal(int(c)))
