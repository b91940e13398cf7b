import hashlib
import json

from wittkit.serialize import witt_to_obj
from wittkit.witt import WittVector


def golden_cli_requests():
    """One request per documented subcommand shape, in both output formats."""
    w = json.dumps(witt_to_obj(WittVector([2, -1, 3])))
    base = [
        ["witt", "--op", "teichmueller", "--a", "7", "--length", "4"],
        ["witt", "--op", "mul", "--u", w, "--v", w],
        ["witt", "--op", "frobenius", "--m", "2", "--u", w],
        ["witt", "--op", "verschiebung", "--m", "3", "--u", w],
        ["am-log", "--family", "hesse-cubic", "--mmax", "6"],
        ["am-log", "--family", "quartic-k3", "--mmax", "5", "--mod", "7"],
        ["am-log", "--family", "quintic-cy3", "--mmax", "4", "--method", "closed-form"],
        ["am-log", "--family", "quintic-cy3", "--mmax", "12"],
        ["fgl", "--family", "hesse-cubic", "--deg", "4"],
        ["fgl", "--family", "hesse-cubic", "--deg", "3", "--at-x", "0"],
        ["fgl", "--family", "quartic-k3", "--deg", "8", "--method", "closed-form"],
        ["scan-ordinary", "--family", "hesse-cubic", "--pmax", "7", "--oracle"],
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
    by '_', with each JSON argument shortened to 8 hex digits of its sha256."""
    parts = []
    for arg in request:
        if arg.startswith(("{", "[")):
            arg = hashlib.sha256(arg.encode("utf-8")).hexdigest()[:8]
        parts.append(arg.lstrip("-"))
    return "_".join(parts) + ".out"
