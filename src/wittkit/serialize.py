"""Deterministic JSON / TSV serialization of numbers, polynomials and Witt vectors.

All numbers travel as decimal strings so arbitrary precision survives the
trip; rationals use the form ``p/q``.  Keys are emitted sorted and rows
sorted, so identical values always produce identical bytes.  Callers hand
over plain values: every number and polynomial is printed here, TSV cells
by the one rule of ``tsv_dumps``.  ``json_dumps`` streams an iterator an
element at a time and writes everything else through the C encoder.  The
schemas and the polynomial text grammar are documented in docs/formats.md.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .polynomials import SparsePolynomial, Value, _scalar_text, format_value
from .witt import WittVector


class SchemaError(ValueError):
    """A serialized value does not follow the documented schema."""


def scalar_from_str(text: str):
    try:
        return Fraction(text) if "/" in text else int(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not an exact number: {text!r}") from exc


def value_to_obj(value: Value) -> dict:
    """Every value is carried as a polynomial; scalars get no variables."""
    if not isinstance(value, SparsePolynomial):
        value = SparsePolynomial.constant(value)
    return {
        "variables": list(value.variables),
        "terms": [
            {"exponents": list(exps), "coefficient": _scalar_text(c)}
            for exps, c in value.sorted_terms()
        ],
    }


def _field(obj, key: str, kind: type | None = None):
    """``obj[key]``, which must exist (and have the JSON type ``kind``, if given)."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"expected an object with key {key!r}")
    return obj[key] if kind is None else _typed(obj[key], kind, repr(key))


def _typed(value, kind: type, what: str):
    if type(value) is kind:  # exact: JSON true and false are bools, not ints
        return value
    raise SchemaError(f"{what} must be {kind.__name__}, not {type(value).__name__}")


def _scalar_from_obj(obj):
    """A JSON integer, or a decimal string, as an exact scalar."""
    if type(obj) is int:
        return obj
    if type(obj) is str:
        return scalar_from_str(obj)
    raise SchemaError(f"a number must be an int or a decimal string, not {type(obj).__name__}")


def value_from_obj(obj) -> Value:
    if not isinstance(obj, dict):
        return _scalar_from_obj(obj)
    variables = tuple(_typed(v, str, "a variable name") for v in _field(obj, "variables", list))
    terms = {}
    for t in _field(obj, "terms", list):
        exps = tuple(_typed(e, int, "an exponent") for e in _field(t, "exponents", list))
        if exps in terms:
            raise SchemaError(f"duplicate exponent vector {list(exps)}")
        terms[exps] = _scalar_from_obj(_field(t, "coefficient"))
    try:
        poly = SparsePolynomial(variables, terms)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if not variables:
        return poly.constant_value()
    return poly


def witt_to_obj(w: WittVector) -> dict:
    return {"length": w.length, "coords": [value_to_obj(a) for a in w.coords]}


def witt_from_obj(obj) -> WittVector:
    coords = [value_from_obj(a) for a in _field(obj, "coords", list)]
    if "length" in obj and _field(obj, "length", int) != len(coords):
        raise SchemaError("declared length does not match coordinate count")
    return WittVector(coords)


class _Encoder(json.JSONEncoder):
    def default(self, o):  # an iterator inside a finished value is listed
        return list(o) if isinstance(o, Iterator) else super().default(o)


_ENCODER = _Encoder(sort_keys=True, separators=(",", ":"))


def json_dumps(obj) -> str:
    """Canonical JSON: string keys sorted, no incidental whitespace differences."""
    return "".join([*_chunks(obj), "\n"])


def _chunks(obj):
    if isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + _ENCODER.encode(key) + ":"
            yield from _chunks(obj[key])
        yield "}" if obj else "{}"
    elif isinstance(obj, Iterator):
        yield "["
        for i, item in enumerate(obj):
            yield ("," if i else "") + _ENCODER.encode(item)
        yield "]"
    else:
        yield _ENCODER.encode(obj)


def tsv_dumps(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The header line, then one line per row, tab-separated.  A cell of
    ``None`` is empty, a bool is ``true``/``false``, a string is printed as
    given, and any other value is its exact ``format_value`` text."""
    lines = ["\t".join(header)]
    lines.extend("\t".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    kind = type(value)  # str and int first: they are most of the cells
    if kind is str:
        return value
    if kind is int:
        return _scalar_text(value)
    if value is None:
        return ""
    if kind is bool:
        return "true" if value else "false"
    return format_value(value)
