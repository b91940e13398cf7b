"""Deterministic JSON / TSV serialization for every public value type.

All numbers travel as decimal strings so arbitrary precision survives the
trip; rationals use the form ``p/q``.  Keys are emitted sorted and rows
sorted, so identical values always produce identical bytes.  The schemas and
the polynomial text grammar are documented in docs/formats.md.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .formal_groups import FormalGroupLaw, Logarithm
from .polynomials import SparsePolynomial, Value, format_value
from .series import TruncatedSeries
from .witt import WittVector


def scalar_to_str(value) -> str:
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    return str(value)


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
            {"exponents": list(exps), "coefficient": scalar_to_str(c)}
            for exps, c in value.sorted_terms()
        ],
    }


def value_from_obj(obj) -> Value:
    if isinstance(obj, (int, str)):
        return scalar_from_str(str(obj))
    variables = tuple(obj["variables"])
    terms = {
        tuple(t["exponents"]): scalar_from_str(str(t["coefficient"]))
        for t in obj["terms"]
    }
    try:
        poly = SparsePolynomial(variables, terms)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if not variables:
        return poly.constant_value()
    return poly


def value_to_text(value: Value) -> str:
    return format_value(value)


def series_to_obj(series: TruncatedSeries) -> dict:
    return {
        "variable": series.variable,
        "order": series.order,
        "coefficients": [value_to_obj(c) for c in series.coefficients],
    }


def series_from_obj(obj) -> TruncatedSeries:
    return TruncatedSeries(
        obj["variable"], [value_from_obj(c) for c in obj["coefficients"]], obj["order"]
    )


def witt_to_obj(w: WittVector) -> dict:
    return {"length": w.length, "coords": [value_to_obj(a) for a in w.coords]}


def witt_from_obj(obj) -> WittVector:
    w = WittVector([value_from_obj(a) for a in obj["coords"]])
    if w.length != obj.get("length", w.length):
        raise SchemaError("declared length does not match coordinate count")
    return w


def logarithm_to_obj(log: Logarithm) -> dict:
    return {"ring": log.ring, "coeffs": [value_to_obj(a) for a in log.coeffs]}


def logarithm_from_obj(obj) -> Logarithm:
    return Logarithm(obj["ring"], [value_from_obj(a) for a in obj["coeffs"]])


def law_to_obj(law: FormalGroupLaw) -> dict:
    return {
        "variables": list(law.variables),
        "degree": law.degree,
        "terms": [
            {"i": exps[0], "j": exps[1], "coeff": value_to_obj(c)}
            for exps, c in law.series.sorted_terms()
        ],
    }


def json_dumps(obj) -> str:
    """Canonical JSON: sorted keys, no incidental whitespace differences."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def tsv_dumps(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
