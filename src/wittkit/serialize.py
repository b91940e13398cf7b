"""Deterministic JSON / TSV serialization of numbers, polynomials and Witt vectors.

All numbers travel as decimal strings so arbitrary precision survives the
trip; rationals use the form ``p/q``.  Keys are emitted sorted and rows
sorted, so identical values always produce identical bytes.  Callers hand
over tables by column (``Records``).  A cell prints by its ``Values`` printer
or by one rule per format; a row, as constant texts (a one-value column among
them) around the varying ones.  docs/formats.md has the schemas and grammar.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii

from .polynomials import SparsePolynomial, Value, _scalar_text, format_value
from .witt import WittVector


class SchemaError(ValueError):
    """A serialized value does not follow the documented schema."""


def scalar_from_str(text: str):
    try:
        return Fraction(text) if "/" in text else int(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not an exact number: {text!r}") from exc


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
        if type(t) is dict and type(exps := t.get("exponents")) is list and all(type(e) is int for e in exps):
            exps = tuple(exps)
        else:  # a term that fails: the checks that name the first fault
            exps = tuple(_typed(e, int, "an exponent") for e in _field(t, "exponents", list))
        if exps in terms:
            raise SchemaError(f"duplicate exponent vector {list(exps)}")
        c = t["coefficient"] if "coefficient" in t else _field(t, "coefficient")
        terms[exps] = scalar_from_str(c) if type(c) is str else c if type(c) is int else _scalar_from_obj(c)
    if len(variables) == 1 and all(len(e) == 1 and e[0] >= 0 for e in terms):  # every term checked above: no second pass
        return SparsePolynomial._canonical(variables, terms)
    try:
        poly = SparsePolynomial(variables, terms)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return poly if variables else poly.constant_value()


def witt_from_obj(obj) -> WittVector:
    coords = [value_from_obj(a) for a in _field(obj, "coords", list)]
    if "length" in obj and _field(obj, "length", int) != len(coords):
        raise SchemaError("declared length does not match coordinate count")
    return WittVector(coords)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_ROWS = 4096  # tsv_dumps and Values print this many rows at a time, so only a slice's texts live at once


def json_dumps(obj) -> str:
    """Canonical JSON: string keys sorted, no incidental whitespace differences."""
    return "".join([*_chunks(obj), "\n"])


class Records:
    """A JSON array of objects with the same string keys, given as one equal-length column per key."""

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns


def value_text(value: Value | None) -> str:
    """A value's polynomial object as JSON text (None is ``null``): keys sorted, terms in
    ``sorted_terms`` order, coefficients as decimal strings, and a scalar in no variables."""
    if value is None:
        return "null"
    if not isinstance(value, SparsePolynomial):
        term = '{"coefficient":"' + _scalar_text(value) + '","exponents":[]}' if value else ""
        return '{"terms":[' + term + '],"variables":[]}'
    one = len(value.variables) == 1  # an exponent vector of one int prints as that int
    return '{"terms":[' + ",".join([
        '{"coefficient":"' + _scalar_text(c) + '","exponents":[' + (str(e[0]) if one else ",".join(map(str, e)))
        + "]}" for e, c in value.sorted_terms()
    ]) + '],"variables":[' + ",".join(map(encode_basestring_ascii, value.variables)) + "]}"  # as _ENCODER prints them


class Values:
    """A JSON array, or a ``Records`` column, of cells printed by ``text`` as they stand (ring elements by
    ``value_text``).  It is no list, so the C encoder refuses it rather than print an int as a number."""

    def __init__(self, values: Sequence, text: Callable[..., str] = value_text):
        self.values, self.text = values, text

    def __len__(self) -> int:
        return len(self.values)


class Indexed(Values):
    """``Values`` that a TSV block may hold too, such as indices printed from one table of texts."""

    def __getitem__(self, rows: slice) -> Indexed:
        return Indexed(self.values[rows], self.text)


def _chunks(obj):
    if isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + _ENCODER.encode(key) + ":"
            yield from _chunks(obj[key])
        yield "}" if obj else "{}"
    elif isinstance(obj, Records):
        yield "["
        for i, text in enumerate(_records(obj, {})):
            yield ("," if i else "") + text
        yield "]"
    elif isinstance(obj, Values):
        for start in range(0, len(obj.values), _ROWS):
            yield ("," if start else "[") + ",".join(map(obj.text, obj.values[start:start + _ROWS]))
        yield "]" if obj.values else "[]"
    elif isinstance(obj, SparsePolynomial):  # one polynomial, such as a residual, which the C encoder refuses
        yield value_text(obj)
    else:
        yield _ENCODER.encode(obj)


def _records(records: Records, keys: dict[str, str]) -> Iterable[str]:
    """Each object's text, a row whose constant texts are its keys (texts from ``keys``), separators and quotes."""
    items = []
    for i, key in enumerate(sorted(records.columns)):
        text = keys[key] if key in keys else keys.setdefault(key, _ENCODER.encode(key))
        quote, texts = _column(records.columns[key], _ENCODER.encode)
        items += ("," if i else "{") + text + ":" + quote, texts, quote
    return _rows([*items, "}"], "", len(records.columns[key]))


def tsv_dumps(header: Sequence[str], blocks: Iterable[Sequence[Sequence]]) -> str:
    """The header line, then the rows of blocks of equal-length columns, tab-separated.  A cell of ``None`` is
    empty, a bool ``true``/``false``, a string as given, ``Values`` by their printer, the rest by ``format_value``."""
    text = ["\t".join(header), "\n"]
    for columns in blocks:
        for start in range(0, len(columns[0]) if columns else 0, _ROWS):
            rows = columns if len(columns[0]) <= _ROWS else [c[start:start + _ROWS] for c in columns]
            text += "\n".join(_rows([_column(c, _cell)[1] for c in rows], "\t", len(rows[0]))), "\n"
    return "".join(text)


def _rows(items: Sequence, sep: str, n: int) -> Iterable[str]:
    """``n`` rows, each ``sep`` joined over ``items``, constant texts and columns' texts."""
    parts = []
    for constant, run in groupby(items, lambda item: type(item) is str):
        parts += [repeat(sep.join(run), n)] if constant else run
    return map(sep.join, zip(*parts))


def _column(values: Sequence, cell) -> tuple[str, Iterable[str] | str]:
    """A column's texts by ``cell`` and the quote around each, or ``""`` and one text (a ``str``) when its
    cells are one value of one kind.  ``Values`` print by their printer, ints at C speed, plain texts as given."""
    if isinstance(values, Values):
        return "", map(values.text, values.values)
    one = type(values[0]) if values else None
    if one in (str, type(None)) and values.count(values[0]) == len(values):  # only a text equals a text
        return "", cell(values[0])
    kinds = set(map(type, values))
    if kinds in ({int}, {bool}) and values.count(values[0]) == len(values):  # 1 == True, yet they print apart
        return "", (_scalar_text if one is int else cell)(values[0])
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
    if kinds <= {Records}:
        keys: dict[str, str] = {}  # one text per key for the whole column
        return "", ("[" + ",".join(_records(v, keys)) + "]" for v in values)
    return "", map(cell, values)


def _cell(value) -> str:
    if value is None:
        return ""
    if type(value) is bool:
        return "true" if value else "false"
    return value if type(value) is str else format_value(value)
