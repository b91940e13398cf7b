import hashlib
import json

from wittkit.polynomials import SparsePolynomial, VariableMismatchError, _scalar_text
from wittkit.witt import WittVector


def coefficient_of(poly, monomial):
    """Coefficient of the given monomial of ``poly``, in the remaining variables.

    ``monomial`` maps a subset of the declared variables to exponents.
    The result is a SparsePolynomial over the remaining variables, or a
    plain scalar when no variables remain.  Absent monomials give zero.

    >>> p = SparsePolynomial(("X", "Y"), {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    >>> coefficient_of(p, {"X": 1, "Y": 1})
    2
    """
    for name in monomial:
        if name not in poly.variables:
            raise VariableMismatchError(f"{name!r} not among {poly.variables!r}")
    selected = [(i, monomial[v]) for i, v in enumerate(poly.variables) if v in monomial]
    remaining = [i for i, v in enumerate(poly.variables) if v not in monomial]
    out = {}
    for exps, c in poly.terms.items():
        if all(exps[i] == want for i, want in selected):
            key = tuple(exps[i] for i in remaining)
            out[key] = out.get(key, 0) + c
    if not remaining:
        return out.get((), 0)
    return SparsePolynomial(tuple(poly.variables[i] for i in remaining), out)


def value_to_obj(value):
    """Reference for ``serialize.value_text``: a value's polynomial object as a dict.
    Every value is carried as a polynomial; scalars get no variables."""
    if not isinstance(value, SparsePolynomial):
        value = SparsePolynomial.constant(value)
    return {
        "variables": list(value.variables),
        "terms": [
            {"exponents": list(exps), "coefficient": _scalar_text(c)}
            for exps, c in value.sorted_terms()
        ],
    }


def witt_to_obj(w):
    """A Witt vector as the documented object, from ``value_to_obj`` of each coordinate."""
    return {"length": w.length, "coords": [value_to_obj(a) for a in w.coords]}


def _poly(variables, terms):
    """A polynomial object of the documented schema, from (exponents, coefficient text) pairs."""
    return {"variables": variables, "terms": [{"exponents": e, "coefficient": c} for e, c in terms]}


#: A variable name that JSON prints with escapes: a quote, a backslash and a non-ASCII letter.
ODD_NAME = 'q"\\\u00e9'


def golden_cli_requests():
    """One request per documented subcommand shape, in both output formats."""
    w = json.dumps(witt_to_obj(WittVector([2, -1, 3])))
    # a vector over Z[x, y]; a vector, and ghost entries, over a ring whose variable needs escapes
    xy = json.dumps({"coords": [_poly(["x", "y"], [([1, 0], "1"), ([0, 2], "-2")]),
                                _poly(["x", "y"], [([1, 1], "3")]), 5]})
    odd = json.dumps({"coords": [_poly([ODD_NAME, "t"], [([0, 0], "7"), ([2, 1], "-3")]), -4]})
    ghost = json.dumps([_poly([ODD_NAME], [([1], "1")]), _poly([ODD_NAME], [([2], "1")]),
                        _poly([ODD_NAME], [([0], "3"), ([3], "1")])])
    base = [
        ["witt", "--op", "teichmueller", "--a", "7", "--length", "4"],
        ["witt", "--op", "mul", "--u", w, "--v", w],
        ["witt", "--op", "frobenius", "--m", "2", "--u", w],
        ["witt", "--op", "verschiebung", "--m", "3", "--u", w],
        ["witt", "--op", "add", "--u", w, "--v", xy],
        ["witt", "--op", "neg", "--u", odd],
        ["witt", "--op", "ghost", "--u", xy],
        ["witt", "--op", "from-ghost", "--g", ghost],
        ["witt", "--op", "truncate", "--u", w, "--k", "2"],
        ["am-log", "--family", "hesse-cubic", "--mmax", "6"],
        ["am-log", "--family", "quartic-k3", "--mmax", "5", "--mod", "7"],
        ["am-log", "--family", "quintic-cy3", "--mmax", "4", "--method", "closed-form"],
        ["am-log", "--family", "quintic-cy3", "--mmax", "12"],
        ["fgl", "--family", "hesse-cubic", "--deg", "4"],
        ["fgl", "--family", "hesse-cubic", "--deg", "3", "--at-x", "0"],
        ["fgl", "--family", "quartic-k3", "--deg", "8", "--method", "closed-form"],
        ["fgl", "--family", "hesse-cubic", "--deg", "7"],
        ["fgl", "--family", "quintic-cy3", "--deg", "9", "--at-x", "-2"],
        ["scan-ordinary", "--family", "hesse-cubic", "--pmax", "7", "--oracle"],
        ["scan-ordinary", "--family", "hesse-cubic", "--pmax", "31", "--oracle"],
        ["scan-ordinary", "--family", "quintic-cy3", "--pmax", "5"],
        ["pf-check", "--family", "quintic-cy3", "--kmax", "8"],
        ["pf-check", "--family", "hesse-cubic", "--kmax", "8"],
        ["pf-check", "--family", "quartic-k3", "--kmax", "8"],
        ["congruence", "--family", "quintic-cy3", "--p", "3", "--nu", "2"],
        ["congruence", "--family", "hesse-cubic", "--p", "5", "--nu", "2"],
        ["congruence", "--family", "quintic-cy3", "--p", "11", "--nu", "3"],
        ["congruence", "--family", "quintic-cy3", "--p", "17", "--nu", "3"],
    ]
    for request in base:
        for fmt in ("json", "tsv"):
            yield request + ["--format", fmt]
    # extraction at benchmark size, one format each
    yield ["am-log", "--family", "hesse-cubic", "--mmax", "40"]
    yield ["am-log", "--family", "quartic-k3", "--mmax", "30", "--mod", "999983"]
    yield ["am-log", "--family", "quintic-cy3", "--mmax", "25", "--format", "tsv"]


def golden_name(request):
    """File name under tests/golden/ for one request: its arguments joined
    by '_', each flag without its leading '--' (a value such as -2 keeps its
    sign) and each JSON argument shortened to 8 hex digits of its sha256."""
    parts = []
    for arg in request:
        if arg.startswith(("{", "[")):
            arg = hashlib.sha256(arg.encode("utf-8")).hexdigest()[:8]
        parts.append(arg.removeprefix("--"))
    return "_".join(parts) + ".out"
