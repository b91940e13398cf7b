"""The benchmark's four workloads: fixed request shapes, seeded free values.

Each workload is one pass: a list of ``wittkit`` argv lists that a single
client sends one after another.  The seed draws only what a request shape
leaves free (output format, ``--mod`` moduli, ``--at-x`` values, Witt inputs,
congruence primes, request order); sizes are fixed, so every seed asks for
the same amount of work.  ``smoke=True`` gives the same shapes at minimal
size.  README.md says why each workload exists.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("oracle-scan", "group-law", "log-extraction", "certify-mix")

FAMILIES = ("hesse-cubic", "quartic-k3", "quintic-cy3")

#: Seconds one pass takes at the commit that defined the benchmark, on a
#: 2-vCPU x86-64 virtual machine with CPython 3.11.  A run makes
#: round(--seconds / nominal) passes, so the work in a run, and the sample
#: count behind every percentile, is the same on every commit.
NOMINAL_PASS_SECONDS = {
    "oracle-scan": 3.5,
    "group-law": 6.5,
    "log-extraction": 7.4,
    "certify-mix": 2.3,
}

#: |x| of the --at-x requests; the seed draws the sign (the size sets the cost).
AT_X_SIZES = (1, 2, 3)

#: (p, nu) pairs for ``congruence``: each needs p^nu <= 81 closed-form
#: coefficients, a few milliseconds apiece.  Every pass asks each pair the
#: same number of times; the seed draws the family of each request.
CONGRUENCE_CASES = ((3, 2), (3, 3), (5, 2), (7, 2), (3, 4))


def requests(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The request list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, smoke)


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("json", "tsv"))]


def _oracle_scan(rng, smoke):
    # Every pmax in 61..66 scans the primes 3..61 (every one in 7..10 the
    # primes 3..7), so the draw changes the output, not the work.
    pmax = rng.randint(7, 10) if smoke else rng.randint(61, 66)
    return [
        ["scan-ordinary", "--family", "hesse-cubic", "--oracle", "--pmax", str(pmax)]
        + _fmt(rng)
    ]


def _group_law(rng, smoke):
    big, deg = (4, 3) if smoke else (13, 12)
    reqs = [
        ["fgl", "--family", "hesse-cubic", "--deg", str(big)],
        ["fgl", "--family", "hesse-cubic", "--deg", str(deg)],
        ["fgl", "--family", "quartic-k3", "--deg", str(deg), "--method", "closed-form"],
        ["fgl", "--family", "quintic-cy3", "--deg", str(deg), "--method", "closed-form"],
    ]
    for family in FAMILIES:
        for size in AT_X_SIZES:
            at_x = rng.choice((-size, size))
            reqs.append(["fgl", "--family", family, "--deg", str(deg), "--at-x", str(at_x)])
    reqs = [r + _fmt(rng) for r in reqs]
    rng.shuffle(reqs)
    return reqs


def _log_extraction(rng, smoke):
    mmax = {"quintic-cy3": 5, "quartic-k3": 6, "hesse-cubic": 8} if smoke else {
        "quintic-cy3": 25,
        "quartic-k3": 30,
        "hesse-cubic": 40,
    }
    reqs = []
    for family, m in mmax.items():
        req = ["am-log", "--family", family, "--mmax", str(m), "--method", "extraction"]
        # one request in four keeps the full integers
        if rng.random() >= 0.25:
            req += ["--mod", str(rng.randint(2, 999_999))]
        reqs.append(req + _fmt(rng))
    rng.shuffle(reqs)
    return reqs


def _witt_vector(rng, length: int) -> str:
    """A Witt vector over Z[x]: coordinates of degree <= 1, coefficients in [-2, 2]."""
    coords = []
    for _ in range(length):
        terms = []
        for e in (0, 1):
            c = rng.randint(-2, 2)
            if c:
                terms.append({"exponents": [e], "coefficient": str(c)})
        coords.append({"variables": ["x"], "terms": terms})
    return json.dumps({"length": length, "coords": coords}, separators=(",", ":"))


def _certify_mix(rng, smoke):
    lengths = (3,) if smoke else (8, 10, 12, 14, 16)
    repeats = 1 if smoke else 2
    kmaxes = (5,) if smoke else (50, 75, 100, 125, 150)
    scans = (("quartic-k3", 11), ("quintic-cy3", 11)) if smoke else (
        ("quartic-k3", 300),
        ("quintic-cy3", 200),
    )
    reqs = []
    for n in lengths:
        for _ in range(repeats):
            u, v = _witt_vector(rng, n), _witt_vector(rng, n)
            reqs.append(["witt", "--op", "add", "--u", u, "--v", v])
            reqs.append(["witt", "--op", "mul", "--u", u, "--v", v])
            reqs.append(["witt", "--op", "frobenius", "--m", "2", "--u", u])
            reqs.append(["witt", "--op", "ghost", "--u", v])
    for kmax in kmaxes:
        reqs.append(["pf-check", "--family", "quintic-cy3", "--kmax", str(kmax)])
    cases = CONGRUENCE_CASES[:2] if smoke else CONGRUENCE_CASES * 5
    for p, nu in cases:
        family = rng.choice(FAMILIES)
        reqs.append(["congruence", "--family", family, "--p", str(p), "--nu", str(nu)])
    reqs = [r + _fmt(rng) for r in reqs]
    # One large scan output in each format, whichever family gets which: the
    # format sets the peak memory, which should not depend on the seed.
    formats = rng.sample(("json", "tsv"), 2)
    for (family, pmax), fmt in zip(scans, formats):
        reqs.append(["scan-ordinary", "--family", family, "--pmax", str(pmax), "--format", fmt])
    rng.shuffle(reqs)
    return reqs


_BUILDERS = {
    "oracle-scan": _oracle_scan,
    "group-law": _group_law,
    "log-extraction": _log_extraction,
    "certify-mix": _certify_mix,
}
