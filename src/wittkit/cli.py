"""Command-line front end.

Subcommands: witt, am-log, fgl, scan-ordinary, pf-check, congruence.  Each
run emits exactly one result document (JSON or TSV per --format) on stdout
or at --out, deterministically: identical requests on identical builds give
byte-identical output.  Each handler builds one value table per result, by
column; the TSV document prints it, and the JSON payload, a keyed view of the
same columns (``Records``, ring elements marked as ``Values``), is built only
when --format json asks for it; a scan's numerals print from one table of
texts (``Indexed``).  --manifest PATH records the request, a wall time, and a
content hash of the result bytes.  --config PATH presets flags from key=value
lines; each subcommand's parser is the one declaration of its flags' types,
choices and defaults, and checks the presets too.  A subcommand's parser alone
reads a request that starts with its name; the top level reads any other argv.

Exit codes: 0 success, 1 usage error (malformed input, unreadable config or
unwritable output path), 2 precondition violation, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from collections.abc import Callable, Sequence
from typing import NamedTuple

from . import __version__
from .families import FAMILY_IDS, UnknownFamilyError, builtin_family, family_logarithm, resolve_family_id
from .formal_groups import Logarithm, group_law_from_logarithm
from .ordinarity import (
    BudgetExceededError,
    frobenius_power_congruence,
    ordinarity_scan,
)
from .picard_fuchs import pf_congruence_check
from .polynomials import as_x_polynomial, is_integral
from .serialize import (
    Indexed,
    Records,
    SchemaError,
    Values,
    json_dumps,
    tsv_dumps,
    value_from_obj,
    witt_from_obj,
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
        # argparse quotes a malformed flag value whole, however long it is
        raise UsageError(_bounded(message))


class ResultDoc(NamedTuple):
    """One result: its value table, as blocks of columns, and its JSON payload
    as a zero-argument callable that builds a keyed view of it on demand."""

    tsv_header: list[str]
    tsv_blocks: Sequence[Sequence[Sequence]]
    payload: Callable[[], dict]

    def emit(self, fmt: str) -> str:
        if fmt == "tsv":
            return tsv_dumps(self.tsv_header, self.tsv_blocks)
        return json_dumps(self.payload())


def _parse_json(text: str, what: str, reader):
    """``reader`` applied to the JSON in ``text``; a malformed input is a usage error.

    ``json.loads`` raises ValueError on malformed JSON or an integer over
    Python's digit limit, and RecursionError on JSON nested too deep; the
    reader raises SchemaError.  Any other error of the reader is not the
    input's fault and propagates.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(_cannot_parse(what, text, exc)) from exc
    try:
        return reader(obj)
    except SchemaError as exc:
        raise UsageError(_cannot_parse(what, text, exc)) from exc


def _cannot_parse(what: str, text: str, exc: Exception) -> str:
    """The usage message for a malformed input, quoting a bounded prefix of it
    (the reason, which may quote a part of it, is bounded too)."""
    return f"cannot parse {what} {_excerpt(repr(text), 80)}: {_excerpt(str(exc), 200)}"


def _excerpt(text: str, limit: int) -> str:
    """``text`` cut to its first ``limit`` characters, marked with ``…`` when cut."""
    return text if len(text) <= limit else text[:limit] + "…"


#: What a message echoes of the input: a quoted Python string, or a bare word.
_ECHOED = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+""")


def _bounded(message: str) -> str:
    """``message`` with each quoted value and each word in it cut to 80
    characters, and the whole cut to 500."""
    return _excerpt(_ECHOED.sub(lambda m: _excerpt(m[0], 80), message), 500)


def _parse_value(text: str):
    """A ring element from the command line: an integer or a polynomial
    object in the documented JSON schema."""
    try:
        return int(text)
    except ValueError:
        return _parse_json(text, "ring element", value_from_obj)


def _parse_witt(text: str) -> WittVector:
    return _parse_json(text, "Witt vector", witt_from_obj)


def _ghost_from_obj(obj) -> GhostVector:
    if type(obj) is not list:
        raise SchemaError(f"ghost entries must be a list, not {type(obj).__name__}")
    return GhostVector(value_from_obj(e) for e in obj)


def _witt_result(op: str, w: WittVector) -> ResultDoc:
    ghost = to_ghost(w)
    columns = [range(1, len(w.coords) + 1), w.coords, ghost.entries]
    return ResultDoc(["index", "coordinate", "ghost"], [columns], lambda: {
        "op": op,
        "result": {"length": w.length, "coords": Values(w.coords)},
        "ghost": Values(ghost.entries),
    })


def _cmd_witt(args) -> ResultDoc:
    op = args.op
    if op == "teichmueller":
        return _witt_result(op, teichmueller(_parse_value(args.a), args.length))
    if op == "from-ghost":
        return _witt_result(op, from_ghost(_parse_json(args.g, "ghost entries", _ghost_from_obj)))
    u = _parse_witt(args.u)
    if op in ("add", "mul"):
        ring_op = witt_add if op == "add" else witt_mul
        return _witt_result(op, ring_op(u, _parse_witt(args.v)))
    if op == "neg":
        return _witt_result(op, witt_neg(u))
    if op == "ghost":
        entries = to_ghost(u).entries
        return ResultDoc(["index", "ghost"], [[range(1, len(entries) + 1), entries]], lambda: {
            "op": op,
            "ghost": Values(entries),
        })
    if op == "frobenius":
        return _witt_result(op, witt_frobenius(args.m, u, args.length))
    if op == "verschiebung":
        return _witt_result(op, witt_verschiebung(args.m, u, args.length))
    return _witt_result(op, witt_truncate(u, args.k))


def _cmd_am_log(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    log = family_logarithm(family, args.mmax, args.method)
    ms = range(1, args.mmax + 1)
    coeffs = [log.coefficient(m) for m in ms]
    if args.mod is not None:
        coeffs = [as_x_polynomial(a).reduce_mod(args.mod) for a in coeffs]
    return ResultDoc(["m", "a_m"], [[ms, coeffs]], lambda: {
        "family": family,
        "method": args.method,
        "mmax": args.mmax,
        "mod": args.mod,
        "coefficients": Records({"m": ms, "a": Values(coeffs)}),
    })


def _cmd_fgl(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    log = family_logarithm(family, max(args.deg, 1), args.method)
    if args.at_x is not None:
        log = Logarithm([a.evaluate({"x": args.at_x}) for a in log.coeffs])
    law = group_law_from_logarithm(log, args.deg)
    exps, coeffs = zip(*law.series.sorted_terms())  # never empty: a law has the terms t1 and t2
    integral = list(map(is_integral, coeffs))  # integrality_report's failures, read off the sorted rows
    column_i, column_j = zip(*exps)
    return ResultDoc(["i", "j", "coeff", "integral"], [[column_i, column_j, coeffs, integral]], lambda: {
        "family": family,
        "degree": args.deg,
        "at_x": args.at_x,
        "integral": all(integral),
        "failures": [{"i": i, "j": j} for (i, j), ok in zip(exps, integral) if not ok],
        "terms": Records({"i": column_i, "j": column_j, "coeff": Values(coeffs), "integral": integral}),
    })


def _cmd_scan(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    report = ordinarity_scan(family, args.pmax, args.oracle, args.budget)
    numeral = list(map(str, range(args.pmax))).__getitem__  # lambda < p and a_p mod p < p, each a table read
    blocks = [  # one per prime; the oracle's columns are blank without it
        [[str(s.prime)] * s.prime, Indexed(range(s.prime), numeral), Indexed(s.hasse_witt_values, numeral),
         s.verdicts, s.oracle_verdicts or [""] * s.prime, s.agreements or [None] * s.prime]
        for s in report.scans
    ]
    quoted = [f'"{k}"' for k in range(args.pmax)].__getitem__  # a_p prints as a JSON string
    return ResultDoc(["p", "lambda", "a_p_value", "verdict", "oracle_verdict", "agree"], blocks, lambda: {
        "family": family,
        "pmax": args.pmax,
        "oracle": args.oracle,
        "all_agree": report.all_agree if args.oracle else None,
        "primes": Records({
            "p": [s.prime for s in report.scans],
            "nonordinary": [s.nonordinary for s in report.scans],
            "agree": [s.agree for s in report.scans],
            "rows": [
                Records({"lambda": lam, "a_p": Indexed(a_p.values, quoted),
                         "verdict": v, "oracle_verdict": o, "agree": ok})
                for _, lam, a_p, v, o, ok in blocks
            ],
        }),
    })


def _cmd_pf_check(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    entry = builtin_family(family)
    ks, passed, residuals = zip(*pf_congruence_check(entry.picard_fuchs, entry.closed_forms(args.kmax), args.kmax))
    return ResultDoc(["k", "pass", "residual"], [[ks, passed, residuals]], lambda: {
        "family": family,
        "kmax": args.kmax,
        "all_passed": all(passed),
        "checks": Records({"k": ks, "passed": passed, "residual": Values(residuals)}),
    })


def _cmd_congruence(args) -> ResultDoc:
    family = resolve_family_id(args.family)
    rule = builtin_family(family).closed_form_mod
    check = frobenius_power_congruence(lambda m: rule(m, args.p, 1), args.p, args.nu)
    return ResultDoc(["p", "nu", "pass", "residual"], [list(zip(check))], lambda: {
        "family": family,
        "p": args.p,
        "nu": args.nu,
        "passed": check.passed,
        "residual": check.residual,
    })


#: The documented config keys; each presets the subcommand flag of that name.
_CONFIG_KEYS = (
    "family", "format", "method", "mmax", "deg", "pmax",
    "kmax", "nu", "p", "budget", "mod", "oracle",
)
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def load_config(path: str, command: str) -> list[str]:
    """The flags a key=value preset file ('#' starts a comment) sets for one
    subcommand, each checked by parsing it.  Keys of other subcommands are
    skipped; a key no subcommand takes is rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    takes = vars(_parse_request([command]))
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {_excerpt(repr(key), 80)}")
        if key not in takes or (key == "oracle" and value.lower() in _FALSE):
            continue
        # --oracle is a switch: argparse rejects any value left on it
        flag = "--oracle" if key == "oracle" and value.lower() in _TRUE else f"--{key}={value}"
        try:
            _parse_request([command, flag])
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        flags.append(flag)
    return flags


def budget_count(text: str) -> int:
    """``--budget``'s type: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid negative budget: {text!r}")
    return value


@functools.cache  # one parser per process: parsing does not change it
def build_parser() -> _Parser:
    parser = _Parser(prog="wittkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wittkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each subcommand's parser by its name, for _parse_request

    def common(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--out", default=None, help="write the result document here")
        p.add_argument("--manifest", default=None, help="write a run manifest here")
        p.add_argument("--config", default=None, help="key=value preset file")

    w = sub.add_parser("witt", help="Witt vector arithmetic")
    w.add_argument("--op", choices=tuple(_WITT_OPS), default=None)
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
    s.add_argument("--oracle", action="store_true")
    s.add_argument("--budget", type=budget_count, default=None, help="cap on #P^N(F_p) of each prime counted")
    common(s)
    s.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("pf-check", help="differential congruences L a_k = 0 mod k")
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


def _parse_request(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass: a subcommand's parser alone reads an argv led by its name."""
    command = build_parser().commands.get(argv[0]) if argv else None
    # the top level reads an argument that starts with "--=" as an ambiguous prefix of its own flags, and stops
    if command is None or any(a.startswith("--=") for a in argv):
        return build_parser().parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


#: The flags each Witt --op needs; its keys are the --op choices.
_WITT_OPS = {
    "teichmueller": ("a", "length"),
    "add": ("u", "v"),
    "mul": ("u", "v"),
    "neg": ("u",),
    "ghost": ("u",),
    "from-ghost": ("g",),
    "frobenius": ("u", "m"),
    "verschiebung": ("u", "m"),
    "truncate": ("u", "k"),
}
#: The flags each subcommand and each Witt --op needs, checked after presets apply.
_REQUIRED = {
    "am-log": ("family", "mmax"),
    "fgl": ("family", "deg"),
    "scan-ordinary": ("family", "pmax"),
    "pf-check": ("family", "kmax"),
    "congruence": ("family", "p"),
    "witt": ("op",),
    **_WITT_OPS,
}


def _check_required(args) -> None:
    for name in (args.command, getattr(args, "op", None)):
        missing = [f"--{k}" for k in _REQUIRED.get(name, ()) if getattr(args, k) is None]
        if missing:
            raise UsageError(f"{name} is missing required flags: " + ", ".join(missing))


def _write_file(path: str, data: bytes) -> bool:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"wittkit: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


#: The errors a run reports by ``exit_code``, besides a closed stdout's ``BrokenPipeError``.
FAILURES = (BudgetExceededError, ValueError, ArithmeticError)


def exit_code(prog: str, exc: Exception) -> int:
    """The exit code of a run that raised ``exc``, with no traceback: 1 for a closed stdout
    (``BrokenPipeError``), 3 for a ``BudgetExceededError`` and 2 for the rest of ``FAILURES``;
    the last two print one line on stderr that starts with ``prog``."""
    if isinstance(exc, BrokenPipeError):
        # the reader is gone: point stdout at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    if isinstance(exc, BudgetExceededError):
        print(f"{prog}: budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    print(f"{prog}: {exc}", file=sys.stderr)
    return PRECONDITION_ERROR


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.monotonic()
    try:
        args = _parse_request(argv)
        if args.config:
            # presets come first, so the command line's own flags win
            presets = load_config(args.config, args.command)
            args = _parse_request([args.command, *presets, *argv[1:]])
        _check_required(args)
        doc = args.handler(args)
        body = doc.emit(args.format)
    except (UsageError, UnknownFamilyError) as exc:
        # an unreadable input file reads like an unwritable output path
        kind = "" if isinstance(exc.__cause__, (OSError, UnicodeDecodeError)) else "usage error: "
        message = _bounded(str(exc)) if isinstance(exc, UnknownFamilyError) else exc
        print(f"wittkit: {kind}{message}", file=sys.stderr)
        return USAGE_ERROR
    except FAILURES as exc:
        return exit_code("wittkit", exc)

    # the bytes stdout prints in the C and C.UTF-8 locales, where a lone surrogate is a raw byte
    data = body.encode("utf-8", "surrogateescape") if args.out or args.manifest else None
    if args.out:
        if not _write_file(args.out, data):
            return USAGE_ERROR
    else:
        try:
            sys.stdout.write(body)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            return exit_code("wittkit", exc)

    if args.manifest:
        import hashlib  # only a manifest needs it: a plain request does not load OpenSSL
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
            "content_hash": "sha256:" + hashlib.sha256(data).hexdigest(),
        }
        if not _write_file(args.manifest, json_dumps(manifest).encode()):
            return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
