"""Deterministic JSON / TSV serialization of numbers, polynomials and Witt vectors.

All numbers travel as decimal strings so arbitrary precision survives the
trip; rationals use the form ``p/q``.  Keys are emitted sorted and rows
sorted, so identical values always produce identical bytes.  Callers hand
over plain values and tables by column: every number and polynomial is
printed here, each column's cells by one rule.  ``json_dumps`` streams an
iterator or ``Records`` an element at a time and writes everything else
through the C encoder.  docs/formats.md documents the schemas and grammar.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import repeat

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


class Records:
    """A JSON array of objects with the same string keys, given as one equal-length column per key."""

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns


def _chunks(obj):
    if isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + _ENCODER.encode(key) + ":"
            yield from _chunks(obj[key])
        yield "}" if obj else "{}"
    elif isinstance(obj, (Iterator, Records)):
        yield "["
        for i, text in enumerate(_records(obj) if isinstance(obj, Records) else map(_ENCODER.encode, obj)):
            yield ("," if i else "") + text
        yield "]"
    else:
        yield _ENCODER.encode(obj)


def _records(records: Records) -> Iterator[str]:
    """Each object's text: its values' texts joined with the constant text between them."""
    keys = sorted(records.columns)
    quotes, texts = zip(*(_column(records.columns[key], _ENCODER.encode) for key in keys))
    opens = ["{", *(quote + "," for quote in quotes[:-1])]
    parts = [part for key, quote, start, values in zip(keys, quotes, opens, texts)
             for part in (repeat(start + _ENCODER.encode(key) + ":" + quote), values)]
    return map("".join, zip(*parts, repeat(quotes[-1] + "}")))


def tsv_dumps(header: Sequence[str], blocks: Iterable[Sequence[Sequence]]) -> str:
    """The header line, then the rows of blocks of equal-length columns, tab-separated.  A cell of
    ``None`` is empty, a bool is ``true``/``false``, a string is printed as given, and any other
    value is its exact ``format_value`` text."""
    text = ["\t".join(header), "\n"]
    for columns in blocks:
        if columns and len(columns[0]):
            cells = [texts for _, texts in map(_column, columns, repeat(_cell))]
            text += "\n".join(map("\t".join, zip(*cells))), "\n"
    return "".join(text)


def _column(values: Sequence, cell) -> tuple[str, Iterable[str]]:
    """A column's texts by ``cell``, and the quote to put around each: ints print at C speed,
    texts that print as themselves between the format's quotes print as given, and each distinct
    text, bool or None prints once."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        try:
            return "", list(map(str, values))
        except ValueError:  # an int past str()'s digit limit
            return "", map(_scalar_text, values)
    if kinds <= {str}:
        quote = cell("")[:1]  # '"' in JSON, nothing in TSV
        joined = "".join(values)  # an escape in any text shows in the join
        if cell(joined) == quote + joined + quote:
            return quote, values
    if kinds <= {bool, type(None), str}:
        texts = {v: cell(v) for v in set(values)}
        return "", map(texts.__getitem__, values)
    if kinds <= {Records}:
        return "", ("[" + ",".join(_records(v)) + "]" for v in values)
    return "", map(cell, values)


def _cell(value) -> str:
    if value is None:
        return ""
    if type(value) is bool:
        return "true" if value else "false"
    return value if type(value) is str else format_value(value)
