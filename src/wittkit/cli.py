"""Command-line front end.

Subcommands: witt, am-log, fgl, scan-ordinary, pf-check, congruence.  Each
run emits exactly one result document (JSON or TSV per --format) on stdout
or at --out, deterministically: identical requests on identical builds give
byte-identical output.  --manifest PATH additionally records the request, a
wall time, and a content hash of the result bytes.

Exit codes: 0 success, 1 usage error (malformed input, unreadable config or
unwritable output path), 2 precondition violation, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .families import FAMILY_IDS, UnknownFamilyError, family_logarithm, resolve_family_id
from .formal_groups import Logarithm, group_law_from_logarithm, integrality_report
from .ordinarity import (
    BudgetExceededError,
    frobenius_power_congruence,
    ordinarity_scan,
)
from .picard_fuchs import (
    pf_congruence_check,
    quintic_picard_fuchs,
)
from .polynomials import SparsePolynomial, as_integral, as_x_polynomial, is_integral
from .serialize import (
    SchemaError,
    json_dumps,
    tsv_dumps,
    value_from_obj,
    value_to_obj,
    value_to_text,
    witt_from_obj,
    witt_to_obj,
)
from .witt import (
    GhostVector,
    WittVector,
    from_ghost,
    teichmueller,
    to_ghost,
    witt_add,
    witt_frobenius,
    witt_mul,
    witt_neg,
    witt_truncate,
    witt_verschiebung,
)

USAGE_ERROR, PRECONDITION_ERROR, BUDGET_ERROR = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class ResultDoc:
    payload: dict
    tsv_header: list[str]
    tsv_rows: list[list[str]]

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return json_dumps(self.payload)
        if fmt == "tsv":
            return tsv_dumps(self.tsv_header, self.tsv_rows)
        raise UsageError(f"unknown format {fmt!r}")


#: What a malformed ring element, Witt vector or ghost list raises while parsed.
_PARSE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, SchemaError)


def _parse_value(text: str):
    """A ring element from the command line: an integer or a polynomial
    object in the documented JSON schema."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return value_from_obj(json.loads(text))
    except _PARSE_ERRORS as exc:
        raise UsageError(f"cannot parse ring element {text!r}: {exc}") from exc


def _parse_witt(text: str) -> WittVector:
    try:
        return witt_from_obj(json.loads(text))
    except _PARSE_ERRORS as exc:
        raise UsageError(f"cannot parse Witt vector {text!r}: {exc}") from exc


def _witt_result(op: str, w: WittVector) -> ResultDoc:
    ghost = to_ghost(w)
    payload = {
        "op": op,
        "result": witt_to_obj(w),
        "ghost": [value_to_obj(g) for g in ghost.entries],
    }
    rows = [
        [str(i), value_to_text(a), value_to_text(g)]
        for i, (a, g) in enumerate(zip(w.coords, ghost.entries), start=1)
    ]
    return ResultDoc(payload, ["index", "coordinate", "ghost"], rows)


def _cmd_witt(args) -> ResultDoc:
    op = args.op
    if op == "teichmueller":
        if args.a is None or args.length is None:
            raise UsageError("teichmueller needs --a and --length")
        return _witt_result(op, teichmueller(_parse_value(args.a), args.length))
    if op in ("add", "mul"):
        if args.u is None or args.v is None:
            raise UsageError(f"{op} needs --u and --v")
        u, v = _parse_witt(args.u), _parse_witt(args.v)
        return _witt_result(op, witt_add(u, v) if op == "add" else witt_mul(u, v))
    if op == "neg":
        if args.u is None:
            raise UsageError("neg needs --u")
        return _witt_result(op, witt_neg(_parse_witt(args.u)))
    if op == "ghost":
        if args.u is None:
            raise UsageError("ghost needs --u")
        w = _parse_witt(args.u)
        ghost = to_ghost(w)
        payload = {"op": op, "ghost": [value_to_obj(g) for g in ghost.entries]}
        rows = [[str(i), value_to_text(g)] for i, g in enumerate(ghost.entries, 1)]
        return ResultDoc(payload, ["index", "ghost"], rows)
    if op == "from-ghost":
        if args.g is None:
            raise UsageError("from-ghost needs --g (JSON list)")
        try:
            entries = [value_from_obj(e) for e in json.loads(args.g)]
        except _PARSE_ERRORS as exc:
            raise UsageError(f"cannot parse ghost entries: {exc}") from exc
        return _witt_result(op, from_ghost(GhostVector(entries)))
    if op == "frobenius":
        if args.u is None or args.m is None:
            raise UsageError("frobenius needs --u and --m")
        return _witt_result(op, witt_frobenius(args.m, _parse_witt(args.u), args.length))
    if op == "verschiebung":
        if args.u is None or args.m is None:
            raise UsageError("verschiebung needs --u and --m")
        return _witt_result(op, witt_verschiebung(args.m, _parse_witt(args.u), args.length))
    if op == "truncate":
        if args.u is None or args.k is None:
            raise UsageError("truncate needs --u and --k")
        return _witt_result(op, witt_truncate(_parse_witt(args.u), args.k))
    raise UsageError(f"unknown Witt operation {op!r}")


def _cmd_am_log(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    log = family_logarithm(family, args.mmax, args.method)
    rows = []
    entries = []
    for m in range(1, args.mmax + 1):
        value = log.coefficient(m)
        if args.mod is not None:
            value = as_x_polynomial(value).reduce_mod(args.mod)
        rows.append([str(m), value_to_text(value)])
        entries.append({"m": m, "a": value_to_obj(value)})
    payload = {
        "family": family,
        "method": args.method,
        "mmax": args.mmax,
        "mod": args.mod,
        "coefficients": entries,
    }
    return ResultDoc(payload, ["m", "a_m"], rows)


def _cmd_fgl(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    log = family_logarithm(family, max(args.deg, 1), args.method)
    if args.at_x is not None:
        evaluated = []
        for a in log.coeffs:
            if isinstance(a, SparsePolynomial):
                a = a.evaluate({"x": args.at_x})
            evaluated.append(a)
        log = Logarithm("Z", evaluated)
    law = group_law_from_logarithm(log, args.deg)
    report = integrality_report(law)
    terms = []
    rows = []
    for (i, j), c in law.series.sorted_terms():
        ok = is_integral(c)
        display = as_integral(c) if ok else c
        terms.append({"i": i, "j": j, "coeff": value_to_obj(display), "integral": ok})
        rows.append([str(i), str(j), value_to_text(display), "true" if ok else "false"])
    payload = {
        "family": family,
        "degree": args.deg,
        "at_x": args.at_x,
        "integral": report.passed,
        "failures": [{"i": i, "j": j} for i, j, _ in report.failures],
        "terms": terms,
    }
    return ResultDoc(payload, ["i", "j", "coeff", "integral"], rows)


def _cmd_scan(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    report = ordinarity_scan(family, args.pmax, args.oracle, args.budget)
    rows = []
    primes = []
    for scan in report.scans:
        for row in scan.rows:
            rows.append(
                [
                    str(row.prime),
                    str(row.parameter),
                    str(row.hasse_witt_value),
                    row.verdict,
                    row.oracle_verdict,
                    "" if row.agree is None else ("true" if row.agree else "false"),
                ]
            )
        primes.append(
            {
                "p": scan.prime,
                "nonordinary": list(scan.nonordinary),
                "agree": scan.agree,
                "rows": [
                    {
                        "lambda": r.parameter,
                        "a_p": str(r.hasse_witt_value),
                        "verdict": r.verdict,
                        "oracle_verdict": r.oracle_verdict,
                        "agree": r.agree,
                    }
                    for r in scan.rows
                ],
            }
        )
    payload = {
        "family": family,
        "pmax": args.pmax,
        "oracle": args.oracle,
        "all_agree": report.all_agree if args.oracle else None,
        "primes": primes,
    }
    header = ["p", "lambda", "a_p_value", "verdict", "oracle_verdict", "agree"]
    return ResultDoc(payload, header, rows)


def _cmd_pf_check(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    if family != "quintic-cy3":
        raise ValueError(
            "only the quintic pencil ships a bundled differential operator; "
            "use the library API to supply one for other families"
        )
    log = family_logarithm(family, args.kmax, "closed-form")
    results = pf_congruence_check(quintic_picard_fuchs(), log, args.kmax)
    rows = []
    checks = []
    for r in results:
        residual = "" if r.residual is None else value_to_text(r.residual)
        rows.append([str(r.k), "true" if r.passed else "false", residual])
        checks.append(
            {
                "k": r.k,
                "passed": r.passed,
                "residual": None if r.residual is None else value_to_obj(r.residual),
            }
        )
    payload = {
        "family": family,
        "kmax": args.kmax,
        "all_passed": all(r.passed for r in results),
        "checks": checks,
    }
    return ResultDoc(payload, ["k", "pass", "residual"], rows)


def _cmd_congruence(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    need = args.p**args.nu
    log = family_logarithm(family, need, "closed-form")
    check = frobenius_power_congruence(log, args.p, args.nu)
    residual = "" if check.residual is None else value_to_text(check.residual)
    payload = {
        "family": family,
        "p": args.p,
        "nu": args.nu,
        "passed": check.passed,
        "residual": None if check.residual is None else value_to_obj(check.residual),
    }
    rows = [[str(args.p), str(args.nu), "true" if check.passed else "false", residual]]
    return ResultDoc(payload, ["p", "nu", "pass", "residual"], rows)


_CONFIG_KEYS = {
    "family": str,
    "format": str,
    "method": str,
    "mmax": int,
    "deg": int,
    "pmax": int,
    "kmax": int,
    "nu": int,
    "p": int,
    "budget": int,
    "mod": int,
    "oracle": lambda v: v.lower() in ("1", "true", "yes", "on"),
}


def load_config(path: str) -> dict:
    """key=value lines; '#' starts a comment; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="wittkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wittkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "tsv"), default=None)
        p.add_argument("--out", default=None, help="write the result document here")
        p.add_argument("--manifest", default=None, help="write a run manifest here")
        p.add_argument("--config", default=None, help="key=value preset file")

    w = sub.add_parser("witt", help="Witt vector arithmetic")
    w.add_argument(
        "--op",
        required=True,
        choices=(
            "teichmueller",
            "add",
            "mul",
            "neg",
            "ghost",
            "from-ghost",
            "frobenius",
            "verschiebung",
            "truncate",
        ),
    )
    w.add_argument("--a", default=None, help="ring element (int or polynomial JSON)")
    w.add_argument("--u", default=None, help="Witt vector JSON")
    w.add_argument("--v", default=None, help="Witt vector JSON")
    w.add_argument("--g", default=None, help="ghost entries as a JSON list")
    w.add_argument("--m", type=int, default=None)
    w.add_argument("--k", type=int, default=None)
    w.add_argument("--length", type=int, default=None)
    common(w)
    w.set_defaults(handler=_cmd_witt)

    a = sub.add_parser("am-log", help="logarithm coefficient table for a family")
    a.add_argument("--family", default=None, help=f"one of {', '.join(FAMILY_IDS)}")
    a.add_argument("--mmax", type=int, default=None)
    a.add_argument("--method", choices=("extraction", "closed-form"), default="extraction")
    a.add_argument("--mod", type=int, default=None, help="reduce entries mod N")
    common(a)
    a.set_defaults(handler=_cmd_am_log)

    f = sub.add_parser("fgl", help="synthesize a group law and certify integrality")
    f.add_argument("--family", default=None)
    f.add_argument("--deg", type=int, default=None, help="total-degree truncation")
    f.add_argument("--at-x", dest="at_x", type=int, default=None)
    f.add_argument("--method", choices=("extraction", "closed-form"), default="extraction")
    common(f)
    f.set_defaults(handler=_cmd_fgl)

    s = sub.add_parser("scan-ordinary", help="per-prime non-ordinary loci")
    s.add_argument("--family", default=None)
    s.add_argument("--pmax", type=int, default=None)
    s.add_argument("--oracle", action="store_true", default=None)
    s.add_argument("--budget", type=int, default=None, help="point enumeration cap")
    common(s)
    s.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("pf-check", help="differential congruences for the quintic")
    p.add_argument("--family", default=None)
    p.add_argument("--kmax", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_pf_check)

    c = sub.add_parser("congruence", help="prime-power coefficient congruence")
    c.add_argument("--family", default=None)
    c.add_argument("--p", type=int, default=None)
    c.add_argument("--nu", type=int, default=2)
    common(c)
    c.set_defaults(handler=_cmd_congruence)

    return parser


_REQUIRED = {
    "am-log": ("family", "mmax"),
    "fgl": ("family", "deg"),
    "scan-ordinary": ("family", "pmax"),
    "pf-check": ("family", "kmax"),
    "congruence": ("family", "p"),
    "witt": (),
}


def _apply_config(args) -> None:
    if args.config:
        for key, value in load_config(args.config).items():
            attr = key.replace("-", "_")
            if getattr(args, attr, None) is None:
                setattr(args, attr, value)
    if args.format is None:
        args.format = "json"
    if getattr(args, "oracle", None) is None and hasattr(args, "oracle"):
        args.oracle = False
    missing = [k for k in _REQUIRED[args.command] if getattr(args, k) is None]
    if missing:
        raise UsageError(
            f"{args.command} is missing required flags: " + ", ".join(f"--{m}" for m in missing)
        )


def _write_file(path: str, text: str) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"wittkit: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        doc = args.handler(args)
        body = doc.emit(args.format)
    except (UsageError, UnknownFamilyError) as exc:
        # an unreadable input file reads like an unwritable output path
        kind = "" if isinstance(exc.__cause__, OSError) else "usage error: "
        print(f"wittkit: {kind}{exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceededError as exc:
        print(f"wittkit: budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"wittkit: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR

    if args.out:
        if not _write_file(args.out, body):
            return USAGE_ERROR
    else:
        sys.stdout.write(body)

    if args.manifest:
        request = {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("handler",) and value is not None
        }
        manifest = {
            "tool": "wittkit",
            "version": __version__,
            "request": request,
            "wall_time_s": round(time.monotonic() - started, 6),
            "content_hash": "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest(),
        }
        if not _write_file(args.manifest, json_dumps(manifest)):
            return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
