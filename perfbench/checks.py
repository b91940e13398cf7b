"""Correctness gate: exit codes, frozen stdout digests, independent cross-checks.

Every check runs outside the timed region.  A cross-check recomputes the
answer by a path that the timed request does not take, or tests an identity
that any correct output satisfies:

* ``am-log``: each coefficient equals ``closed_form_logarithm`` (reduced
  here, not by the library, under ``--mod``);
* ``fgl``: the law reports ``integral: true`` and satisfies G(t,0) = t and
  G(t1,t2) = G(t2,t1);
* ``scan-ordinary --oracle``: every fiber's point-count verdict agrees;
* ``pf-check``: every congruence passed; ``congruence``: it passed;
* ``witt --op add``: the result equals the product of the ``to_series``
  forms, read back with ``WittVector.from_series`` (no ghost map involved).
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from wittkit.families import closed_form_logarithm
from wittkit.polynomials import SparsePolynomial
from wittkit.witt import WittVector


def digest(out: str) -> str:
    """First 16 hex digits of the sha256 of a request's stdout bytes."""
    return hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]


def options(argv: list[str]) -> dict[str, str]:
    """``--flag value`` pairs of a request; bare flags map to ``""``."""
    opts = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i]] = ""
            i += 1
    return opts


def _tsv(out: str) -> list[dict[str, str]]:
    header, *rows = out.rstrip("\n").split("\n")
    names = header.split("\t")
    return [dict(zip(names, row.split("\t"))) for row in rows]


def _obj_terms(obj: dict) -> dict[int, Fraction]:
    """{x-exponent: coefficient} of a polynomial JSON object in x (or none)."""
    return {
        (t["exponents"][0] if t["exponents"] else 0): Fraction(t["coefficient"])
        for t in obj["terms"]
    }


_TERM = re.compile(r"([+-]?)([^+-]+)")


def _text_terms(text: str) -> dict[int, Fraction]:
    """{x-exponent: coefficient} of a polynomial in x in the text grammar."""
    if text == "0":
        return {}
    out = {}
    for sign, body in _TERM.findall(text):
        if "x^" in body:
            coeff, _, mono = body.rpartition("*")
            exponent = int(mono[2:])
        else:
            coeff, exponent = body, 0
        out[exponent] = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
    return out


def _value_terms(value) -> dict[int, Fraction]:
    if isinstance(value, SparsePolynomial):
        return {(e[0] if e else 0): Fraction(c) for e, c in value.terms.items()}
    return {0: Fraction(value)} if value else {}


def _check_am_log(opts, out, fmt):
    family, mmax = opts["--family"], int(opts["--mmax"])
    mod = int(opts["--mod"]) if "--mod" in opts else None
    want = []
    for a in closed_form_logarithm(family, mmax).coeffs:
        terms = _value_terms(a)
        if mod is not None:
            terms = {e: c % mod for e, c in terms.items() if c % mod}
        want.append(terms)
    if fmt == "json":
        got = [_obj_terms(e["a"]) for e in json.loads(out)["coefficients"]]
    else:
        got = [_text_terms(row["a_m"]) for row in _tsv(out)]
    if len(got) != len(want):
        return f"{len(got)} coefficients, expected {len(want)}"
    for m, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return f"a_{m} differs from the closed form"
    return None


def _check_fgl(opts, out, fmt):
    if fmt == "json":
        doc = json.loads(out)
        integral = doc["integral"] is True and not doc["failures"]
        coeffs = {(t["i"], t["j"]): _obj_terms(t["coeff"]) for t in doc["terms"]}
    else:
        rows = _tsv(out)
        integral = all(row["integral"] == "true" for row in rows)
        coeffs = {(int(r["i"]), int(r["j"])): _text_terms(r["coeff"]) for r in rows}
    if not integral:
        return "group law is not integral"
    if any(coeffs.get((j, i)) != c for (i, j), c in coeffs.items()):
        return "group law is not symmetric"
    if {k: c for k, c in coeffs.items() if 0 in k} != {(1, 0): {0: 1}, (0, 1): {0: 1}}:
        return "group law fails G(t, 0) = t"
    return None


def _check_flag(out, fmt, json_key, tsv_column, what):
    if fmt == "json":
        ok = json.loads(out)[json_key] is True
    else:
        ok = all(row[tsv_column] == "true" for row in _tsv(out))
    return None if ok else f"{what} reported a failure"


def _check_witt_add(opts, out, fmt):
    u, v = (_parse_witt(opts[k]) for k in ("--u", "--v"))
    want = [_value_terms(a) for a in WittVector.from_series(u.to_series() * v.to_series()).coords]
    if fmt == "json":
        got = [_obj_terms(a) for a in json.loads(out)["result"]["coords"]]
    else:
        got = [_text_terms(row["coordinate"]) for row in _tsv(out)]
    return None if got == want else "witt_add differs from the product of series forms"


def _parse_witt(text: str) -> WittVector:
    coords = []
    for obj in json.loads(text)["coords"]:
        terms = {tuple(t["exponents"]): int(t["coefficient"]) for t in obj["terms"]}
        coords.append(SparsePolynomial(obj["variables"], terms))
    return WittVector(coords)


def cross_check(argv: list[str], out: str) -> str | None:
    """The reason an exit-0 output is wrong, or None when every check holds."""
    opts = options(argv)
    fmt = opts.get("--format", "json")
    command = argv[0]
    if command == "am-log":
        return _check_am_log(opts, out, fmt)
    if command == "fgl":
        return _check_fgl(opts, out, fmt)
    if command == "scan-ordinary" and "--oracle" in opts:
        return _check_flag(out, fmt, "all_agree", "agree", "point-count oracle")
    if command == "pf-check":
        return _check_flag(out, fmt, "all_passed", "pass", "differential congruence")
    if command == "congruence":
        return _check_flag(out, fmt, "passed", "pass", "prime-power congruence")
    if command == "witt" and opts["--op"] == "add":
        return _check_witt_add(opts, out, fmt)
    return None


class Gate:
    """Judges each request once per distinct (argv, output) pair.

    ``frozen`` lists the reference digests of one pass, in request order, or
    is None for a seed whose digests were not frozen; then only the exit
    code and the cross-checks apply.
    """

    def __init__(self, frozen: list[str] | None):
        self.frozen = frozen
        self._verdicts: dict[tuple, str | None] = {}

    def failure(self, index: int, argv: list[str], code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        got = digest(out)
        if self.frozen is not None and self.frozen[index] != got:
            return f"stdout digest {got} differs from the frozen {self.frozen[index]}"
        key = (tuple(argv), got)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = cross_check(argv, out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._verdicts[key] = f"unreadable output: {exc!r}"
        return self._verdicts[key]
