import argparse
import contextlib
import io
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import cli, families, ordinarity
from wittkit.cli import _CONFIG_KEYS, _REQUIRED, _WITT_OPS, build_parser, main
from wittkit.families import FAMILY_IDS, am_logarithm, builtin_family, closed_form_logarithm
from wittkit.formal_groups import Logarithm, group_law_from_logarithm
from wittkit.ordinarity import frobenius_power_congruence, ordinarity_scan
from wittkit.picard_fuchs import ThetaOperator, pf_congruence_check
from wittkit.polynomials import SparsePolynomial, format_value, is_integral, x_polynomial, x_terms
from wittkit.serialize import value_from_obj
from wittkit.witt import WittVector

from conftest import value_to_obj, witt_to_obj

X = SparsePolynomial.variable("x")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def witt_json(coords):
    return json.dumps(witt_to_obj(WittVector(coords)))


# -- table contents match the library --------------------------------------------


def test_am_log_table(capsys):
    code, out, _ = run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "4",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m\ta_m"
    assert lines[-1] == "4\t1+6*x^3"


def test_am_log_mod_flag(capsys):
    code, out, _ = run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "5",
                       "--mod", "5", "--format", "tsv")
    assert code == 0
    assert out.strip().split("\n")[-1] == "5\t1+4*x^3"


def test_fgl_at_zero_is_multiplicative(capsys):
    code, out, _ = run(capsys, "fgl", "--family", "hesse-cubic", "--deg", "2",
                       "--at-x", "0", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert rows == [
        ["0", "1", "1", "true"],
        ["1", "0", "1", "true"],
        ["1", "1", "-1", "true"],
    ]


def test_fgl_json_reports_integrality(capsys):
    code, out, _ = run(capsys, "fgl", "--family", "quintic-cy3", "--deg", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] is True
    assert payload["failures"] == []


@pytest.mark.parametrize("at_x", [[], ["--at-x", "2"]], ids=["over-Z[x]", "at-x"])
def test_fgl_rows_and_failures_flag_the_same_terms(capsys, monkeypatch, at_x):
    """A term given a denominator is flagged in its row and listed in the
    failures, in both formats, and is printed as it stands."""
    real = cli.group_law_from_logarithm

    def with_a_failing_term(log, degree):
        law = real(log, degree)
        law.terms[(2, 2)] = law.terms[(2, 2)] * Fraction(1, 7)
        return law

    monkeypatch.setattr(cli, "group_law_from_logarithm", with_a_failing_term)
    argv = ("fgl", "--family", "hesse-cubic", "--deg", "4", *at_x)
    code, out, _ = run(capsys, *argv, "--format", "tsv")
    assert code == 0
    lines = (line.split("\t") for line in out.strip().split("\n")[1:])
    rows = {(i, j): (coeff, ok) for i, j, coeff, ok in lines}
    assert {key: ok for key, (_, ok) in rows.items() if ok != "true"} == {("2", "2"): "false"}
    assert rows["2", "2"][0] == ("-72/7" if at_x else "-9/7*x^3")
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert payload["integral"] is False
    assert payload["failures"] == [{"i": 2, "j": 2}]
    assert [(t["i"], t["j"]) for t in payload["terms"] if not t["integral"]] == [(2, 2)]


def _fgl_rows_and_law(monkeypatch, family, deg, method="extraction", at_x=None, log=None):
    """The rows ``_cmd_fgl`` builds and the law it reads them from; ``log`` replaces the family's."""
    laws, real = [], group_law_from_logarithm
    monkeypatch.setattr(cli, "group_law_from_logarithm", lambda lg, d: laws.append(real(lg, d)) or laws[-1])
    if log is not None:
        monkeypatch.setattr(cli, "family_logarithm", lambda *args: log)
    doc = cli._cmd_fgl(argparse.Namespace(family=family, deg=deg, method=method, at_x=at_x))
    return doc.tsv_blocks[0], laws.pop()


def _check_law_order_and_flags(rows, law):
    """The stored order is by total degree, then by i, the rows are the law's terms in it, and
    each integral flag is the Fraction scan of its coefficient."""
    column_i, column_j, coeffs, integral = rows
    assert law.sorted_terms() == sorted(law.terms.items(), key=lambda item: (sum(item[0]), item[0]))
    assert list(zip(zip(column_i, column_j), coeffs)) == law.sorted_terms()
    scan = [all(not isinstance(c, Fraction) or c.denominator == 1
                for c in (a.terms.values() if isinstance(a, SparsePolynomial) else [a])) for a in coeffs]
    assert integral == scan == list(map(is_integral, coeffs))


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_law_order_and_integral_flags_on_every_pencil(monkeypatch, family):
    for method, at_x in (("extraction", None), ("closed-form", None), *(("extraction", x) for x in range(-3, 4))):
        for deg in range(1, 21):
            _check_law_order_and_flags(*_fgl_rows_and_law(monkeypatch, family, deg, method, at_x))


def test_law_order_and_integral_flags_on_random_logarithms(monkeypatch):
    """Int, Z[x], mixed and two-variable logarithms, and the failing law of
    ``test_integrality_report_failure_lists_coefficients``."""
    rng = random.Random(49)
    y = SparsePolynomial.variable("y", ("x", "y"))
    kinds = (lambda: rng.randint(-3, 3), lambda: rng.randint(-3, 3) * X**rng.randint(0, 3) + rng.randint(-2, 2),
             lambda: rng.randint(-2, 2) * y + rng.randint(-2, 2))
    flags = set()
    for trial in range(60):
        deg = rng.randint(1, 8)
        draw = [kinds[0], kinds[1], rng.choice(kinds), kinds[2]][trial % 4]  # the third mixes ints in
        log = Logarithm([X**0 if trial % 4 == 1 else 1, *(draw() for _ in range(deg - 1))])  # Z[x] as dicts
        rows, law = _fgl_rows_and_law(monkeypatch, "hesse-cubic", deg, log=log)
        _check_law_order_and_flags(rows, law)
        flags.update(rows[3])
    assert flags == {True, False}
    rows, law = _fgl_rows_and_law(monkeypatch, "hesse-cubic", 4, log=Logarithm([1, 0, 0, 1]))
    _check_law_order_and_flags(rows, law)
    assert [(i, j) for i, j, ok in zip(*rows[:2], rows[3]) if not ok] == [(2, 2)]


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_library_built_logarithms_equal_their_validation(monkeypatch, family):
    """am_logarithm, closed_form_logarithm and the --at-x logarithms skip validation:
    each equals its validated form, with a_1 = 1 and int coefficients throughout."""
    logs = [am_logarithm(builtin_family(family).family, 60), closed_form_logarithm(family, 60)]
    real = group_law_from_logarithm
    monkeypatch.setattr(cli, "group_law_from_logarithm", lambda lg, d: logs.append(lg) or real(lg, 1))
    for at_x in range(-3, 4):
        cli._cmd_fgl(argparse.Namespace(family=family, deg=60, method="extraction", at_x=at_x))
    for log in logs:
        assert log.truncation == 60 and log.coeffs[0] == 1
        assert log.coeffs == Logarithm(log.coeffs).coeffs
        assert all(type(c) is int for a in log.coeffs
                   for c in (a.terms.values() if isinstance(a, SparsePolynomial) else [a]))


def test_scan_matches_library(capsys):
    """Every row of both formats is the library's columns read at one lambda, prime by prime."""
    header = ["p", "lambda", "a_p_value", "verdict", "oracle_verdict", "agree"]
    flag = {True: "true", False: "false", None: ""}
    for family, oracle in (("hesse-cubic", True), ("quartic-k3", False)):
        argv = ("scan-ordinary", "--family", family, "--pmax", "31", *(["--oracle"] if oracle else []))
        report = ordinarity_scan(family, 31, with_oracle=oracle)
        rows = {}  # prime -> [(lambda, a_p, verdict, oracle verdict, agree)]
        for scan in report.scans:
            assert len(scan.hasse_witt_values) == len(scan.verdicts) == scan.prime
            if oracle:
                assert len(scan.oracle_verdicts) == len(scan.agreements) == scan.prime
            else:
                assert scan.oracle_verdicts is scan.agreements is None
            blank = [""] * scan.prime, [None] * scan.prime
            rows[scan.prime] = list(zip(
                range(scan.prime), scan.hasse_witt_values, scan.verdicts,
                scan.oracle_verdicts or blank[0], scan.agreements or blank[1],
            ))
        code, out, _ = run(capsys, *argv, "--format", "tsv")
        assert code == 0
        lines = [f"{p}\t{lam}\t{a_p}\t{v}\t{o}\t{flag[ok]}"
                 for p, table in rows.items() for lam, a_p, v, o, ok in table]
        assert out.split("\n") == ["\t".join(header), *lines, ""]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_agree"] is (True if oracle else None)
        by_prime = {entry["p"]: entry for entry in payload["primes"]}
        assert [s.prime for s in report.scans] == sorted(by_prime)
        for scan in report.scans:
            entry = by_prime[scan.prime]
            assert entry["nonordinary"] == list(scan.nonordinary)
            assert entry["agree"] is scan.agree
            assert entry["rows"] == [
                {"lambda": lam, "a_p": str(a_p), "verdict": v, "oracle_verdict": o, "agree": ok}
                for lam, a_p, v, o, ok in rows[scan.prime]
            ]
        if family == "hesse-cubic":
            assert by_prime[3]["nonordinary"] == []
            assert by_prime[5]["nonordinary"] == [1]


#: sha256 of stdout for scans past the goldens' sizes, one per format.
SCAN_DIGESTS = {
    ("quartic-k3", "300", "json"): "bb2f9a0f98e89a6ef0a2ab54a95c87a740580de36409511fbc967ec3a6d46044",
    ("quartic-k3", "300", "tsv"): "f84c97721ef979042197eb2dbc7b7ff7db5b66e00550354defeae48f5067e534",
    ("quintic-cy3", "200", "json"): "77c7459022e46833d10a4235884500a2a4664c0727a095a2fb2057a03f1a8cb3",
    ("quintic-cy3", "200", "tsv"): "05f4678528b2adf690bcf2634a4bf5269ce8e7f5325a181442554c648f4bb8a4",
    ("quintic-cy3", "1000", "json"): "f894c3d9148a85a291ab4b00421874355d959e145773e3c6c5ce937cb30781db",
    ("quintic-cy3", "1000", "tsv"): "78845d25dc5f75a29cf40771048b53b3251e899c35614c52cf616982564d20fa",
    ("hesse-cubic", "61", "json"): "18ff895a0eaf0f750ccfad64a343d77188aefc0cdff28833439e2c42db40c4dc",
    ("hesse-cubic", "61", "tsv"): "7cee96b397ef27547110ff5e08e0b25bc8cd5ce3dd4b0f815d5ba6940c328211",
    ("hesse-cubic", "211", "json"): "ecf9b84cd1fc094b099abcb3018e1b1ff25ca0a0e298a3fc04c2c38f5c0ef346",
    ("hesse-cubic", "211", "tsv"): "05b06c4ea2d9faa434fa26a1815e81f916e52d48c60ab700e1b61ac1d0b6b522",
}


@pytest.mark.parametrize("family, pmax, fmt", sorted(SCAN_DIGESTS))
def test_large_scan_bytes_pinned(capsys, family, pmax, fmt):
    import hashlib
    oracle = ["--oracle"] if family == "hesse-cubic" else []
    code, out, _ = run(capsys, "scan-ordinary", "--family", family, "--pmax", pmax, *oracle, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SCAN_DIGESTS[family, pmax, fmt]


#: sha256 of stdout for tables whose trailing columns hold one value in every row, one per format:
#: pf-check, where every row passes, and a hesse scan without the oracle, whose oracle columns are blank.
CONSTANT_COLUMN_DIGESTS = {
    (("pf-check", "--family", "quintic-cy3", "--kmax", "150"), "json"):
        "41a4305f54214dac947656cabbac99e39133818ef730e1ec92c0f65d30491db5",
    (("pf-check", "--family", "quintic-cy3", "--kmax", "150"), "tsv"):
        "44adb24fd95373b80217d47b9deedc8d1a3d3b60042d1d1a97290111bb2d3439",
    (("scan-ordinary", "--family", "hesse-cubic", "--pmax", "61"), "json"):
        "54b0616426521dc59123da04c4c2677ca5a8a1a49b3a5de8049fc6e518e0ffa5",
    (("scan-ordinary", "--family", "hesse-cubic", "--pmax", "61"), "tsv"):
        "032d8866e04998521ec22ede1f642b0d8e3c12636a4d05cf8fe1711f82861d01",
}


@pytest.mark.parametrize("request_args, fmt", sorted(CONSTANT_COLUMN_DIGESTS),
                         ids=["_".join(a[::2]) + "-" + fmt for a, fmt in sorted(CONSTANT_COLUMN_DIGESTS)])
def test_constant_column_bytes_pinned(capsys, request_args, fmt):
    import hashlib
    code, out, _ = run(capsys, *request_args, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONSTANT_COLUMN_DIGESTS[request_args, fmt]


#: sha256 of stdout for ``pf-check --kmax 300`` on every pencil, one per format.  Every row passes and the TSV
#: table names no family, so the three TSV digests are one.
PF_CHECK_DIGESTS = {
    ("hesse-cubic", "json"): "355c2b1a263cc3c7d6c231a03a50d6eec0819bdca9e086fdb4f4fe1085e06746",
    ("hesse-cubic", "tsv"): "e5706f0509aa6c0fd52c398455129c9c6427219c163038bd1f2d92ac86371b9f",
    ("quartic-k3", "json"): "acbdf07859467bdf9d81a5f386558a8db08fbe7188ae8b122c2da5aace7c8868",
    ("quartic-k3", "tsv"): "e5706f0509aa6c0fd52c398455129c9c6427219c163038bd1f2d92ac86371b9f",
    ("quintic-cy3", "json"): "7d15d7c7276dc800f97cf5f3bf148b8cb29638f1992218c3b7257ebf59ac2844",
    ("quintic-cy3", "tsv"): "e5706f0509aa6c0fd52c398455129c9c6427219c163038bd1f2d92ac86371b9f",
}


@pytest.mark.parametrize("family, fmt", sorted(PF_CHECK_DIGESTS))
def test_pf_check_bytes_pinned(capsys, family, fmt):
    import hashlib
    code, out, _ = run(capsys, "pf-check", "--family", family, "--kmax", "300", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PF_CHECK_DIGESTS[family, fmt]


def test_scan_walks_no_closed_form(capsys, monkeypatch):
    """A scan, with or without the oracle, reads a_p mod p from the period: ``closed_form_mod`` is
    never called.  ``congruence`` still walks it, so the counter is seen to count."""
    calls = []
    for family in FAMILY_IDS:
        entry = builtin_family(family)
        counted = lambda m, p, s, rule=entry.closed_form_mod: calls.append((m, p, s)) or rule(m, p, s)
        monkeypatch.setitem(families._CATALOG, family, entry._replace(closed_form_mod=counted))
    for scan in (("hesse-cubic", "--oracle"), ("hesse-cubic",), ("quartic-k3",), ("quintic-cy3",)):
        code, out, _ = run(capsys, "scan-ordinary", "--pmax", "61", "--family", *scan)
        assert code == 0 and out
    assert calls == []
    assert run(capsys, "congruence", "--family", "hesse-cubic", "--p", "3", "--nu", "2")[0] == 0
    assert calls


#: sha256 of stdout for ``witt --op verschiebung --m 10000`` on the length-1 vector (1), one per format.
WITT_DIGESTS = {
    "json": "e3e65afbae287c0103c13f69a16a1de2c7a56f421c763fb1c1a21a228df809ff",
    "tsv": "46733b789acf0413d1f017c8bf47c1d312fd32b86c9d48f5ff6f41492e03bf66",
}


@pytest.mark.parametrize("fmt", sorted(WITT_DIGESTS))
def test_large_witt_bytes_pinned(capsys, fmt):
    import hashlib
    code, out, _ = run(capsys, "witt", "--op", "verschiebung", "--m", "10000", "--u", '{"coords":[1]}',
                       "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WITT_DIGESTS[fmt]


def _zx_vector(seed, length, zero_every):
    """A Witt vector over Z[x] as JSON: a_1 is the int 0, and of the other coordinates every
    ``zero_every``-th is the zero polynomial, every seventh a constant and the rest of degree 2,
    with coefficients drawn from [-3, 3]."""
    rng = random.Random(seed)
    coords = [0]
    for i in range(2, length + 1):
        degrees = () if i % zero_every == 1 else (0,) if i % 7 == 3 else (0, 1, 2)
        terms = [{"exponents": [e], "coefficient": str(c)} for e in degrees if (c := rng.randint(-3, 3))]
        coords.append({"variables": ["x"], "terms": terms})
    return json.dumps({"coords": coords})


def _zx_ghost(length):
    """The ghost of ``_zx_vector(7, length, 4)`` by the divisor sums; g_1 is the int 0."""
    a = [value_from_obj(c) for c in json.loads(_zx_vector(7, length, 4))["coords"]]
    divisor_sum = lambda k: sum((d * a[d - 1] ** (k // d) for d in range(1, k + 1) if k % d == 0 and a[d - 1]), 0)
    return [divisor_sum(k) for k in range(1, length + 1)]


def _zx_requests(length):
    u, v = _zx_vector(length, length, 4), _zx_vector(length + 1, length, 5)
    return {f"add-{length}": ("add", "--u", u, "--v", v), f"mul-{length}": ("mul", "--u", u, "--v", v),
            f"frobenius-{length}": ("frobenius", "--m", "2", "--u", u), f"ghost-{length}": ("ghost", "--u", v)}


#: sha256 of stdout for Witt arithmetic over Z[x] past the goldens' lengths, one per format.
ZX_WITT_REQUESTS = {**_zx_requests(16), **_zx_requests(24),
                    "from-ghost-12": ("from-ghost", "--g", json.dumps([value_to_obj(g) for g in _zx_ghost(12)]))}
ZX_WITT_DIGESTS = {
    ("add-16", "json"): "17f8e7b22f71540120dd5cbd29a6613c2f00b72d3a75b900f928b93deae22661",
    ("add-16", "tsv"): "160a1215157a18fb8728898ad2b1ae720a8ae57f958ff85c54ac42b3d6772c61",
    ("add-24", "json"): "c44a53834e0e2a8de3c8ad0e64c700558eadf85346d85ce4a63cff0d8f2d6f43",
    ("add-24", "tsv"): "48ecb46adb0f08bd06f4ba788f47be8d9963f9ad5c23eada7795a891445e943c",
    ("frobenius-16", "json"): "76ed1251bf6887b413997dc17e5b9823e919de727490aa6cc2b65695519a58ec",
    ("frobenius-16", "tsv"): "90d99b24406599c1f332d84a638999de5ca653a6e180c3f18a817eab8d095f2a",
    ("frobenius-24", "json"): "5d852e39de6dec455c21be1e8f728663b7e9f02e1a72885bdf0be7a3505a6b6f",
    ("frobenius-24", "tsv"): "55c40d4d910d667a13f588a8612b5aa749a3debba2c41219d882c33f3f5c0d95",
    ("from-ghost-12", "json"): "0765a68cef826c487f093a28e39b012dd5a406ab95ed9247ee2e755c7c5cb987",
    ("from-ghost-12", "tsv"): "5e3a788c43a84804dd4250004aecfb3d5da9e3c06ab7c7a8f4481b04c8d38d3b",
    ("ghost-16", "json"): "789b0d49f5d467f7f328ee0e214d349bfe0dabecbd01c2bb1869508962af3c05",
    ("ghost-16", "tsv"): "5baf303e20971014c676fe91e999ce078d79d422144358950b2752c0f13d03fc",
    ("ghost-24", "json"): "c195e457445a43bd86474ef6adacf2fa37c1d3a49d5bbc028974b0b46d87f6ed",
    ("ghost-24", "tsv"): "53851a956c74543cfeebf8c13ee03e57cf29a8ab2287c03058e9e00e4450ae94",
    ("mul-16", "json"): "710e66ee5eb7c1d615571e6799e68615a0f701f23226b3d5620fdcac05e04e68",
    ("mul-16", "tsv"): "1f812fa39486039442df82638ed6bf4fcec9da87fb4d0bc07f4f789ac0571f7c",
    ("mul-24", "json"): "94a602ae5d8dfde9038648f24e030f7979e99132582721aeea6ac932da4e8c7e",
    ("mul-24", "tsv"): "162ee77d3a53514a6c398fda08177d8c14e8c13e0ff75a779f517f887469ce0d",
}


@pytest.mark.parametrize("name, fmt", sorted(ZX_WITT_DIGESTS))
def test_zx_witt_bytes_pinned(capsys, name, fmt):
    import hashlib
    code, out, _ = run(capsys, "witt", "--op", *ZX_WITT_REQUESTS[name], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ZX_WITT_DIGESTS[name, fmt]


def test_zx_from_ghost_names_the_first_indivisible_coefficient(capsys):
    """g_4 + 1 + x + 2x^5 leaves a remainder with several coefficients not divisible by 4; the
    message names the first in the order of g_4's terms and then of the terms subtracted."""
    ghost = _zx_ghost(6)
    entries = [value_to_obj(g) for g in ghost]
    entries[3] = value_to_obj(ghost[3] + 1 + X + 2 * X**5)
    for terms, coefficient in ((entries[3]["terms"], -11), (entries[3]["terms"][::-1], 2)):
        g = json.dumps([*entries[:3], {"variables": ["x"], "terms": terms}, *entries[4:]])
        code, out, err = run(capsys, "witt", "--op", "from-ghost", "--g", g)
        assert (code, out) == (2, "")
        assert err == f"wittkit: integrality failure at index 4: {coefficient} is not divisible by 4\n"


#: sha256 of stdout for group laws past the goldens' degrees: over Z[x] by extraction and by
#: closed form, and at a fixed x, one per format; then the group-law benchmark's shapes.
FGL_DIGESTS = {
    (("--family", "hesse-cubic", "--deg", "40"), "json"):
        "46b03549994988adc7406b3a997e2019701289fce9d0940e233fd334e1370683",
    (("--family", "hesse-cubic", "--deg", "40"), "tsv"):
        "faed9dc21581e493a84884281a5f2fa273d99f144dc67b0f06801b9f4a861dba",
    (("--family", "quintic-cy3", "--deg", "30", "--method", "closed-form"), "json"):
        "b9916844a8a668dc1724ba7fae8d758b0dff4306dade666ebdbfa46389142f00",
    (("--family", "quintic-cy3", "--deg", "30", "--method", "closed-form"), "tsv"):
        "84f618c2c69e06cb11cc03dbec78e28a65384f0c3f5d7c951203fa833a9885e6",
    (("--family", "quartic-k3", "--deg", "20", "--at-x", "-2"), "json"):
        "c7f9ffaaf9cb3032ec53a9d7ac42bcd7835c3e1d9edcab2c70342bb4eacae6fe",
    (("--family", "quartic-k3", "--deg", "20", "--at-x", "-2"), "tsv"):
        "9f1e40625950437cb158409521f114cebb3e577a2f8116cbde0b2d9d3f77e43c",
    (("--family", "hesse-cubic", "--deg", "13"), "json"):
        "c7a3968a8c919b774dc0a1cfe5cee05e21ca529944962c521bbf6d5ddbd4c22f",
    (("--family", "hesse-cubic", "--deg", "13"), "tsv"):
        "5c0f8da296446c5c7d74b3542835a1e850802acfe3326bceaa62bea2cc37b516",
    (("--family", "hesse-cubic", "--deg", "12", "--at-x", "-3"), "json"):
        "7cea54668f94c9ae7e08a569ab66f3761e05db8bde5a2355b214e6240517f216",
    (("--family", "hesse-cubic", "--deg", "12", "--at-x", "-3"), "tsv"):
        "bbb8b8aa8ce082dd7db29f69df703dec48b60513a75ffed45ef4c6d25e3f4896",
    (("--family", "hesse-cubic", "--deg", "12", "--at-x", "3"), "json"):
        "ca4456d430e0c85bcf61966b58f24d90aba04dfdf81722ac630a286fec8a0643",
    (("--family", "hesse-cubic", "--deg", "12", "--at-x", "3"), "tsv"):
        "fa88c8cd6c20fc1ec1d1e0abb2cdd0f45721c004adb00aeb67cc5aeec441f300",
    (("--family", "quintic-cy3", "--deg", "12", "--at-x", "-3"), "json"):
        "daf3b5a2ec69bec706fc272911b998f96a15941985ef9f39bdc4cfa02bbaed5d",
    (("--family", "quintic-cy3", "--deg", "12", "--at-x", "-3"), "tsv"):
        "a372c6eae780ea4d9184cda5c261002b655828eb17205b5a3a5fa0b875b1dfe8",
    (("--family", "quintic-cy3", "--deg", "12", "--at-x", "3"), "json"):
        "820e1faa166e188a31d0330b9a459cb00081efd2fb841abb23f5476f4e7c15f8",
    (("--family", "quintic-cy3", "--deg", "12", "--at-x", "3"), "tsv"):
        "09138ec3d443c279034e66b38c859671037a59169d6b483e953762b527dd68b7",
    (("--family", "quartic-k3", "--deg", "12", "--method", "closed-form"), "json"):
        "7c0020233ec01a34e9c4e8cc9941632c9a5cc65db02dbf9a8d2ec500637e6cab",
    (("--family", "quartic-k3", "--deg", "12", "--method", "closed-form"), "tsv"):
        "b72b9c4dcdd320f9b9c702d62fc8cf6458d15278a0ed53d05a8d6854c2fc317a",
}


@pytest.mark.parametrize("request_args, fmt", sorted(FGL_DIGESTS),
                         ids=["_".join(a[1::2]) + "-" + fmt for a, fmt in sorted(FGL_DIGESTS)])
def test_large_fgl_bytes_pinned(capsys, request_args, fmt):
    import hashlib
    code, out, _ = run(capsys, "fgl", *request_args, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FGL_DIGESTS[request_args, fmt]


#: sha256 of stdout for logarithm tables by extraction at the sizes users run, one per format.
AM_LOG_DIGESTS = {
    (("--family", "quintic-cy3", "--mmax", "81"), "json"):
        "57b9a2e7f1ff0d75f7dd0fa3e5814a6da95f6ad28cdc368e10ad8ce412b592a1",
    (("--family", "quintic-cy3", "--mmax", "81"), "tsv"):
        "fc599ba382cfcec3c166e0ae76384300b3ebc209cb5820e5e2025f24c4fd6437",
    (("--family", "hesse-cubic", "--mmax", "125"), "json"):
        "2a6a835b516a68aa36efbd89fc6363bc32a6c549630fd977b60e023b87c7fb38",
    (("--family", "hesse-cubic", "--mmax", "125"), "tsv"):
        "709ecb416f4adb9b1732667c5959d90a5ef2341061108e1f6a9dec01c6aca25f",
    (("--family", "quartic-k3", "--mmax", "100", "--mod", "999983"), "json"):
        "dea01993e05e2f01a5c8a5a287c002e3aa7d034c21c1f3e78dbead1bca137c84",
    (("--family", "quartic-k3", "--mmax", "100", "--mod", "999983"), "tsv"):
        "3aa9809c4311aec7612e230a7a337c3f5f0972c4b67495d3256cc7bfaa0177e6",
    # the log-extraction workload's shapes, and hesse at the group-law workload's m
    (("--family", "quintic-cy3", "--mmax", "25"), "json"):
        "9317c1f6cc3b7fc1dd178e4899dd0d7170905fb8ec1db041a784841ad5f405d8",
    (("--family", "quintic-cy3", "--mmax", "25"), "tsv"):
        "8ebd57c5beb2836e5750e7e9c0df3dbdf88a12dcb8e4db101fa6538506c50f22",
    (("--family", "quintic-cy3", "--mmax", "25", "--mod", "403303"), "json"):
        "13623208c8a2d92757e3d9c988b4d14b7c358231f279ddbb816bb875f6191c19",
    (("--family", "quintic-cy3", "--mmax", "25", "--mod", "403303"), "tsv"):
        "0c3509d1eba23b7455ed34c522307e8a80e81a53ada20c124bca1cf17910b356",
    (("--family", "quartic-k3", "--mmax", "30"), "json"):
        "6d071dc33be8c184e790b6443c6330b9f8bd5233814e15798c63d64cbda1fd37",
    (("--family", "quartic-k3", "--mmax", "30"), "tsv"):
        "89a9f34606931dccca6b6a73c717c80b30bef4024d330d68cfe7392c4d4ed0bf",
    (("--family", "quartic-k3", "--mmax", "30", "--mod", "403303"), "json"):
        "bc18ea5d8705841528ca5396a476c8e5a51be9db28954af92894b87aebdc6ad8",
    (("--family", "quartic-k3", "--mmax", "30", "--mod", "403303"), "tsv"):
        "2271813c05a581041bd8851c9babf24bc45e5488ebeb216a25fe92eaf82e1b5d",
    (("--family", "hesse-cubic", "--mmax", "40"), "json"):
        "b22836ed2f72c7449f4512ba588aea3f0ae3e190a793a7e4b8e67e92a76ed77f",
    (("--family", "hesse-cubic", "--mmax", "40"), "tsv"):
        "b74483a682f862759785a41adcde9c4f4701fbb2411685a6d40b65cf7d387a02",
    (("--family", "hesse-cubic", "--mmax", "40", "--mod", "403303"), "json"):
        "5662b2dbb68dcd177ccfec33c0ba73b2f66194bab415f144ba69070a6ecd5869",
    (("--family", "hesse-cubic", "--mmax", "40", "--mod", "403303"), "tsv"):
        "11fb57b00aaad1e1d83517007937fe9178bea832e303ec4ad42151a469c2a5da",
    (("--family", "hesse-cubic", "--mmax", "13"), "json"):
        "8a18ed466add58c26aa0fec6423cbbf42a9ff389c56c0b543bcfe91ff4a3bd44",
    (("--family", "hesse-cubic", "--mmax", "13"), "tsv"):
        "27f734bb40a837c5dcaf1de97728e83872d12dcafea6e06a660b4cb42b31677f",
}


@pytest.mark.parametrize("request_args, fmt", sorted(AM_LOG_DIGESTS),
                         ids=["_".join(a[1::2]) + "-" + fmt for a, fmt in sorted(AM_LOG_DIGESTS)])
def test_large_am_log_bytes_pinned(capsys, request_args, fmt):
    import hashlib
    code, out, _ = run(capsys, "am-log", *request_args, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == AM_LOG_DIGESTS[request_args, fmt]


def test_pf_check_rows(capsys):
    code, out, _ = run(capsys, "pf-check", "--family", "quintic", "--kmax", "10",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k\tpass\tresidual"
    assert len(lines) == 11
    assert all(line.split("\t")[1] == "true" for line in lines[1:])


@pytest.mark.parametrize("family", [*FAMILY_IDS, "hesse", "quartic", "quintic"])
def test_pf_check_passes_for_every_family(capsys, family):
    code, out, err = run(capsys, "pf-check", "--family", family, "--kmax", "8", "--format", "tsv")
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.split("\n")[1:-1]]
    assert rows == [[str(k), "true", ""] for k in range(1, 9)]


def test_congruence(capsys):
    code, out, _ = run(capsys, "congruence", "--family", "hesse-cubic", "--p", "3",
                       "--nu", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_pf_check_prints_failing_residuals(capsys, monkeypatch):
    """a_7 off by x fails L a_7 = 0 mod 7; both formats print the library's residual."""
    real = cli.builtin_family

    def with_a_wrong_coefficient(identifier):
        entry = real(identifier)
        walk = entry.closed_forms
        return entry._replace(closed_forms=lambda m_max: (
            x_terms(x_polynomial(("x",), a) + X) if m == 7 else a for m, a in enumerate(walk(m_max), 1)))

    monkeypatch.setattr(cli, "builtin_family", with_a_wrong_coefficient)
    entry = with_a_wrong_coefficient("quintic-cy3")
    expected = pf_congruence_check(entry.picard_fuchs, entry.closed_forms(8), 8)
    assert [r.k for r in expected if not r.passed] == [7]
    argv = ("pf-check", "--family", "quintic-cy3", "--kmax", "8")
    code, out, _ = run(capsys, *argv, "--format", "tsv")
    assert code == 0
    assert out.split("\n")[7] == f"7\tfalse\t{format_value(expected[6].residual)}"
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["checks"][6] == {"k": 7, "passed": False, "residual": value_to_obj(expected[6].residual)}
    assert [c["passed"] for c in payload["checks"]] == [r.passed for r in expected]


def _plus_one(terms: dict) -> dict:
    """a + 1 for a closed_form_mod result a, an ``{x exponent: int}`` dict."""
    return {**terms, 0: terms.get(0, 0) + 1}


def test_congruence_prints_failing_residual(capsys, monkeypatch):
    """a_25 off by 1 fails the hesse congruence at p = 5; both formats print
    the library's residual."""
    real = cli.builtin_family

    def with_a_wrong_coefficient(identifier):
        entry = real(identifier)
        rule = entry.closed_form_mod
        return entry._replace(
            closed_form_mod=lambda m, p, s: _plus_one(rule(m, p, s)) if m == 25 else rule(m, p, s)
        )

    monkeypatch.setattr(cli, "builtin_family", with_a_wrong_coefficient)
    wrong = with_a_wrong_coefficient("hesse-cubic").closed_form_mod
    expected = frobenius_power_congruence(lambda m: wrong(m, 5, 1), 5, 2)
    assert not expected.passed
    argv = ("congruence", "--family", "hesse-cubic", "--p", "5", "--nu", "2")
    code, out, _ = run(capsys, *argv, "--format", "tsv")
    assert code == 0
    assert out == f"p\tnu\tpass\tresidual\n5\t2\tfalse\t{format_value(expected.residual)}\n"
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["residual"] == value_to_obj(expected.residual)


@pytest.mark.parametrize("argv, tsv, json_text", [
    (("congruence", "--family", "quartic-k3", "--p", "7", "--nu", "3"),
     "p\tnu\tpass\tresidual\n7\t3\ttrue\t\n",
     '{"family":"quartic-k3","nu":3,"p":7,"passed":true,"residual":null}\n'),
    (("congruence", "--family", "hesse-cubic", "--p", "5", "--nu", "2"),
     "p\tnu\tpass\tresidual\n5\t2\tfalse\t1\n",
     '{"family":"hesse-cubic","nu":2,"p":5,"passed":false,'
     '"residual":{"terms":[{"coefficient":"1","exponents":[0]}],"variables":["x"]}}\n'),
    (("pf-check", "--family", "hesse-cubic", "--kmax", "7"),
     "k\tpass\tresidual\n" + "".join(f"{k}\ttrue\t\n" for k in range(1, 7)) + "7\tfalse\tx^1+x^4\n",
     '{"all_passed":false,"checks":[' + "".join(f'{{"k":{k},"passed":true,"residual":null}},' for k in range(1, 7))
     + '{"k":7,"passed":false,"residual":{"terms":[{"coefficient":"1","exponents":[1]},'
     '{"coefficient":"1","exponents":[4]}],"variables":["x"]}}],"family":"hesse-cubic","kmax":7}\n'),
], ids=["congruence-pass", "congruence-fail", "pf-check"])
def test_coefficient_checks_compute_on_int_dicts(capsys, monkeypatch, argv, tsv, json_text):
    """Both coefficient congruences reduce, multiply and subtract on ``{x exponent: int}`` dicts: with
    SparsePolynomial's *, and - failing, each request prints what it printed over polynomials.  The
    catalog has a_25 + 1 in ``closed_form_mod`` (hesse p = 5 fails) and a_7 + x in ``closed_forms``."""
    real = cli.builtin_family

    def with_wrong_coefficients(identifier):
        entry = real(identifier)
        rule, walk = entry.closed_form_mod, entry.closed_forms
        return entry._replace(
            closed_form_mod=lambda m, p, s: _plus_one(rule(m, p, s)) if m == 25 else rule(m, p, s),
            closed_forms=lambda m_max: (
                x_terms(x_polynomial(("x",), a) + X) if m == 7 else a for m, a in enumerate(walk(m_max), 1)))

    def no_polynomial_arithmetic(*args):
        raise AssertionError("a coefficient check did polynomial arithmetic")

    monkeypatch.setattr(cli, "builtin_family", with_wrong_coefficients)
    for fmt, expected in (("tsv", tsv), ("json", json_text)):
        with monkeypatch.context() as patch:
            for name in ("__mul__", "__rmul__", "__sub__"):
                patch.setattr(SparsePolynomial, name, no_polynomial_arithmetic)
            code = main([*argv, "--format", fmt])
        assert (code, capsys.readouterr().out) == (0, expected)


def test_congruence_reads_only_three_coefficients(capsys):
    # only a_13, a_169 and a_2197 are built; all of a_1..a_2197 would take over a minute
    started = time.monotonic()
    code, out, _ = run(capsys, "congruence", "--family", "quintic-cy3", "--p", "13", "--nu", "3")
    elapsed = time.monotonic() - started
    assert code == 0
    assert out == '{"family":"quintic-cy3","nu":3,"p":13,"passed":true,"residual":null}\n'
    assert elapsed < 1.0


def test_congruence_quintic_p43_nu3_reads_residues(capsys):
    # a_43, a_1849 and a_79507 are read mod 43 term by term; over Z
    # a_79507 alone has about 16,000 terms of up to 55,000 digits
    started = time.monotonic()
    code, out, _ = run(capsys, "congruence", "--family", "quintic-cy3", "--p", "43", "--nu", "3")
    elapsed = time.monotonic() - started
    assert code == 0
    assert out == '{"family":"quintic-cy3","nu":3,"p":43,"passed":true,"residual":null}\n'
    assert elapsed < 1.0


def test_congruence_holds_no_table_of_length_p_nu(capsys):
    """closed_form_mod walks a_(p^nu)'s terms with one running unit and one
    exponent of p: tables of length 43^3 = 79,507 would take about 5 MiB."""
    build_parser()  # built once per process, before any request
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "congruence", "--family", "quintic-cy3", "--p", "43", "--nu", "3",
                           "--format", "tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "p\tnu\tpass\tresidual\n43\t3\ttrue\t\n")
    assert peak < 1024 * 1024


def test_congruence_builds_no_product_dict(capsys):
    """a_p[r] * a_(p^(nu-1))[E] is subtracted at r + pE straight into a_(p^nu)'s residues, all read as
    int dicts: hesse at p = 43, nu = 3 peaked at 0.68 MiB with a p-th power dict, a product dict and
    tuple-keyed polynomials in between."""
    build_parser()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "congruence", "--family", "hesse-cubic", "--p", "43", "--nu", "3",
                           "--format", "tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "p\tnu\tpass\tresidual\n43\t3\ttrue\t\n")
    assert peak < 0.55 * 1024 * 1024


@pytest.mark.parametrize("p, nu, code, message", [
    ("3", "40", 3, "budget exceeded: p^nu = 3^40 is over the budget 10000000"),
    ("3", "1000000000", 3, "budget exceeded: p^nu = 3^1000000000 is over the budget 10000000"),
    ("223", "3", 3, "budget exceeded: p^nu = 223^3 is over the budget 10000000"),
    ("1000000000000000003", "2", 3,
     "budget exceeded: p^nu = 1000000000000000003^2 is over the budget 10000000"),
    ("318665857834031151167461", "2", 3, "budget exceeded: p = 318665857834031151167461 "
     "is at or above the primality bound 318665857834031151167461"),
    ("9", "40", 2, "9 is not prime"),
    ("1000000000000000001", "2", 2, "1000000000000000001 is not prime"),
    ("3", "1", 2, "the congruence concerns prime powers p^nu with nu >= 2"),
], ids=["3^40", "3^1000000000", "223^3", "huge-prime", "primality-bound", "composite-p",
        "huge-composite-p", "nu-1"])
def test_congruence_refuses_p_nu_over_the_budget_at_once(capsys, p, nu, code, message):
    """p^nu past the budget exits 3 before any coefficient is read; a composite
    p or nu < 2 still exits 2 first, and a p past the exact primality test's
    bound exits 3 before it is tested."""
    started = time.monotonic()
    got = run(capsys, "congruence", "--family", "quintic-cy3", "--p", p, "--nu", nu)
    assert time.monotonic() - started < 0.5
    assert got == (code, "", f"wittkit: {message}\n")


def test_witt_add(capsys):
    code, out, _ = run(capsys, "witt", "--op", "add",
                       "--u", witt_json([1, 0, 0]), "--v", witt_json([1, 0, 0]))
    assert code == 0
    payload = json.loads(out)
    coords = [t["terms"] for t in payload["result"]["coords"]]
    assert [c[0]["coefficient"] if c else "0" for c in coords] == ["2", "-1", "-2"]


def test_witt_teichmueller_tsv(capsys):
    code, out, _ = run(capsys, "witt", "--op", "teichmueller", "--a", "2",
                       "--length", "3", "--format", "tsv")
    assert code == 0
    assert out == "index\tcoordinate\tghost\n1\t2\t2\n2\t0\t4\n3\t0\t8\n"


@pytest.mark.parametrize("op", ["frobenius", "verschiebung"])
@pytest.mark.parametrize("length", ["0", "-1"])
def test_witt_length_below_one_names_the_length(capsys, op, length):
    # the input is long enough for any output: the fault is the length asked for
    code, out, err = run(capsys, "witt", "--op", op, "--m", "2", "--length", length,
                         "--u", '{"coords":["1","2","3"]}')
    assert (code, out, err) == (2, "", "wittkit: length must be >= 1\n")


def test_integers_past_the_digit_limit_print_exactly(capsys):
    # the ghost components of [10^1000] are 10^1000k: the last one has 5,001
    # digits, past CPython's 4,300-digit limit for str(int)
    a = "1" + "0" * 1000
    code, out, err = run(capsys, "witt", "--op", "teichmueller", "--a", a, "--length", "5")
    assert code == 0, err
    ghost = [g["terms"][0]["coefficient"] for g in json.loads(out)["ghost"]]
    assert ghost == ["1" + "0" * (1000 * k) for k in range(1, 6)]
    code, out, err = run(capsys, "witt", "--op", "teichmueller", "--a", "-" + a,
                         "--length", "5", "--format", "tsv")
    assert code == 0, err
    assert out.splitlines()[5] == "5\t0\t-1" + "0" * 5000


# -- determinism -------------------------------------------------------------------


GOLDEN_REQUESTS = [
    ("witt", "--op", "teichmueller", "--a", "7", "--length", "4"),
    ("witt", "--op", "mul", "--u", None, "--v", None),  # filled in below
    ("am-log", "--family", "hesse-cubic", "--mmax", "6"),
    ("am-log", "--family", "quintic-cy3", "--mmax", "4", "--method", "closed-form"),
    ("fgl", "--family", "hesse-cubic", "--deg", "4"),
    ("scan-ordinary", "--family", "hesse-cubic", "--pmax", "7", "--oracle"),
    ("scan-ordinary", "--family", "quintic-cy3", "--pmax", "5"),
    ("pf-check", "--family", "quintic-cy3", "--kmax", "8"),
    ("congruence", "--family", "quintic-cy3", "--p", "3", "--nu", "2"),
]


def golden_requests():
    w = witt_json([2, -1, 3])
    for request in GOLDEN_REQUESTS:
        request = [w if a is None else a for a in request]
        for fmt in ("json", "tsv"):
            yield request + ["--format", fmt]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_byte_identical_across_runs(capsys, fmt):
    for request in golden_requests():
        if request[-1] != fmt:
            continue
        code1, out1, _ = run(capsys, *request)
        code2, out2, _ = run(capsys, *request)
        assert code1 == code2 == 0
        assert out1 == out2, f"nondeterministic output for {request}"


@pytest.mark.parametrize("argv", [
    ("scan-ordinary", "--family", "quartic-k3", "--pmax", "300"),
    ("fgl", "--family", "hesse-cubic", "--deg", "20"),
])
def test_json_emit_peak_stays_below_four_bodies(argv):
    """The JSON document is written a record at a time: emitting it never
    holds the whole payload tree or the encoder's chunks beside the body."""
    args = build_parser().parse_args(argv)
    doc = args.handler(args)
    tracemalloc.start()
    try:
        body = doc.emit("json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(body)


def test_json_emit_of_a_long_values_array_stays_below_two_and_a_quarter_bodies():
    """A ``Values`` array is printed a slice of elements at a time: emitting it
    holds the slices' texts and the joined body, never a third copy."""
    args = build_parser().parse_args(["witt", "--op", "verschiebung", "--m", "20000", "--u", '{"coords":[1]}'])
    doc = args.handler(args)
    tracemalloc.start()
    try:
        body = doc.emit("json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(body) > 2_000_000
    assert peak < 2.25 * len(body)


def test_pf_check_leaves_the_catalog_operator_as_it_was(capsys, monkeypatch):
    """A request's eigenvalue tables are its own: the catalog operator keeps no state across requests."""
    entry = builtin_family("quintic-cy3")
    operator = ThetaOperator(entry.picard_fuchs.coefficients)  # a fresh table, whatever ran before
    monkeypatch.setitem(families._CATALOG, "quintic-cy3", entry._replace(picard_fuchs=operator))
    assert run(capsys, "pf-check", "--family", "quintic-cy3", "--kmax", "50")[0] == 0
    assert operator._shifts == ThetaOperator(entry.picard_fuchs.coefficients)._shifts


def test_pf_check_holds_one_coefficient_at_a_time(capsys):
    """pf-check reads each a_k from the closed form, reduces it mod k and drops
    it: a_1..a_300 over Z together take about 2 MiB."""
    build_parser()  # built once per process, before any request
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "pf-check", "--family", "hesse-cubic", "--kmax", "300", "--format", "tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.count("\ttrue\t") == 300
    assert peak < 512 * 1024


# -- exit codes, manifest, config -----------------------------------------------------


def test_usage_errors(capsys):
    assert run(capsys, "am-log", "--family", "hesse-cubic")[0] == 1  # missing --mmax
    assert run(capsys, "am-log", "--family", "not-a-family", "--mmax", "3")[0] == 1
    assert run(capsys, "am-log", "--unknown-flag", "3")[0] == 1  # unknown flag rejected
    # a negative budget is a bad flag value, not an exceeded budget
    code, out, err = run(capsys, "scan-ordinary", "--family", "hesse", "--pmax", "40",
                         "--oracle", "--budget", "-1")
    assert (code, out) == (1, "")
    assert err == "wittkit: usage error: argument --budget: invalid negative budget: '-1'\n"
    code, out, err = run(capsys, "scan-ordinary", "--family", "hesse", "--pmax", "40", "--budget", "abc")
    assert (code, out, err) == (1, "", "wittkit: usage error: argument --budget: invalid int value: 'abc'\n")


_WITT_HELP = """\
usage: wittkit witt [-h]
                    [--op {teichmueller,add,mul,neg,ghost,from-ghost,frobenius,verschiebung,truncate}]
                    [--a A] [--u U] [--v V] [--g G] [--m M] [--k K]
                    [--length LENGTH] [--format {json,tsv}] [--out OUT]
                    [--manifest MANIFEST] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --op {teichmueller,add,mul,neg,ghost,from-ghost,frobenius,verschiebung,truncate}
  --a A                 ring element (int or polynomial JSON)
  --u U                 Witt vector JSON
  --v V                 Witt vector JSON
  --g G                 ghost entries as a JSON list
  --m M
  --k K
  --length LENGTH
  --format {json,tsv}
  --out OUT             write the result document here
  --manifest MANIFEST   write a run manifest here
  --config CONFIG       key=value preset file
"""
_CHOICES = "(choose from 'witt', 'am-log', 'fgl', 'scan-ordinary', 'pf-check', 'congruence')"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        pytest.param([], 1, "", "wittkit: usage error: the following arguments are required: command\n",
                     id="no-command"),
        pytest.param(["--version"], 0, "wittkit 0.1.0\n", "", id="version"),
        pytest.param(["nosuch"], 1, "",
                     f"wittkit: usage error: argument command: invalid choice: 'nosuch' {_CHOICES}\n",
                     id="unknown-command"),
        pytest.param(["--format", "json", "witt"], 1, "",
                     f"wittkit: usage error: argument command: invalid choice: 'json' {_CHOICES}\n",
                     id="flag-before-command"),
        pytest.param(["witt", "-h"], 0, _WITT_HELP, "", id="witt-help"),
        pytest.param(["witt", "--op", "ghost", "--u", '{"coords":["1"]}', "extra"], 1, "",
                     "wittkit: usage error: unrecognized arguments: extra\n", id="witt-trailing-argument"),
        # the top level reads "--=x" as an ambiguous prefix of its own flags before any subcommand sees it
        pytest.param(["witt", "--op", "neg", "--u", "--=x"], 1, "",
                     "wittkit: usage error: ambiguous option: --=x could match --help, --version\n",
                     id="witt-ambiguous-prefix"),
    ],
)
def test_top_level_answers_pinned(capsys, monkeypatch, argv, code, out, err):
    """The whole stdout, stderr and exit code (argparse's SystemExit code for help and version)."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal's width
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "scan-ordinary", "--family", "hesse-cubic", "--pmax", "2")
    assert code == 2
    code, _, err = run(capsys, "congruence", "--family", "hesse-cubic", "--p", "2")
    assert code == 2
    code, _, err = run(capsys, "pf-check", "--family", "quintic-cy3", "--kmax", "0")
    assert code == 2
    assert err == "wittkit: k_max must be >= 1\n"


def test_from_ghost_names_a_non_integral_entry(capsys):
    code, out, err = run(capsys, "witt", "--op", "from-ghost", "--g", '["1/2",0]')
    assert (code, out) == (2, "")
    assert err == "wittkit: integrality failure at index 1: g_1 = 1/2 is not an integer\n"
    code, out, err = run(capsys, "witt", "--op", "from-ghost", "--g", '[1,2]')
    assert (code, out) == (2, "")
    assert err == "wittkit: integrality failure at index 2: 1 is not divisible by 2\n"


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "scan-ordinary", "--family", "hesse-cubic",
                       "--pmax", "7", "--oracle", "--budget", "3")
    assert code == 3
    code, _, err = run(capsys, "scan-ordinary", "--family", "hesse-cubic",
                       "--pmax", "7", "--oracle", "--budget", "0")
    assert code == 3
    assert err == "wittkit: budget exceeded: P^2(F_3) has 13 points, over the budget 0\n"



def test_budget_is_compared_with_all_of_p_n(capsys):
    # the oracle walks only the points of P^2(F_31) with no zero coordinate,
    # but the budget still bounds all 993 points
    request = ("scan-ordinary", "--family", "hesse-cubic", "--pmax", "31", "--oracle")
    code, _, err = run(capsys, *request, "--budget", "992")
    assert code == 3
    assert err == "wittkit: budget exceeded: P^2(F_31) has 993 points, over the budget 992\n"
    code, out, _ = run(capsys, *request, "--budget", "993")
    assert code == 0
    assert out == run(capsys, *request)[1]

def test_scan_at_the_slot_bound_exits_3_before_any_prime(capsys, monkeypatch):
    # a_p's table packs sums below p^3 in 64-bit slots: 2642246^3 >= 2^64
    monkeypatch.setattr(ordinarity, "_scan_prime", lambda *args: pytest.fail("scanned a prime"))
    code, out, err = run(capsys, "scan-ordinary", "--family", "quintic-cy3", "--pmax", "2642246")
    assert (code, out) == (3, "")
    assert err == "wittkit: budget exceeded: pmax = 2642246 is at or above the scan bound 2642246\n"


def test_budget_ignores_primes_without_smooth_fibers(capsys):
    # every hesse parameter is singular mod 7, so P^2(F_7) (57 points) is never counted
    request = ("scan-ordinary", "--family", "hesse-cubic", "--pmax", "7", "--oracle")
    code, out, _ = run(capsys, *request, "--budget", "40")
    assert code == 0
    assert out == run(capsys, *request)[1]


def test_manifest_and_out(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    manifest_path = tmp_path / "manifest.json"
    for _ in range(2):
        code, out, _ = run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "4",
                           "--out", str(out_path), "--manifest", str(manifest_path))
        assert code == 0
        assert out == ""
    manifest = json.loads(manifest_path.read_text())
    body = out_path.read_text()
    import hashlib

    assert manifest["content_hash"] == "sha256:" + hashlib.sha256(body.encode()).hexdigest()
    assert manifest["tool"] == "wittkit"
    assert manifest["request"]["family"] == "hesse-cubic"


def test_manifest_hash_stable_across_runs(tmp_path, capsys):
    hashes = []
    for i in range(2):
        manifest_path = tmp_path / f"manifest{i}.json"
        out_path = tmp_path / f"result{i}.tsv"
        code, _, _ = run(capsys, "scan-ordinary", "--family", "hesse-cubic",
                         "--pmax", "5", "--format", "tsv",
                         "--out", str(out_path), "--manifest", str(manifest_path))
        assert code == 0
        hashes.append(json.loads(manifest_path.read_text())["content_hash"])
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("argv, rows", [
    (("fgl", "--family", "hesse-cubic", "--deg", "6", "--format", "tsv"), 15),
    (("scan-ordinary", "--family", "hesse-cubic", "--pmax", "7", "--format", "tsv"), 3 + 5 + 7),
    (("congruence", "--family", "quintic", "--p", "3", "--format", "json"), 1),
    (("witt", "--op", "teichmueller", "--a", "2", "--length", "4", "--format", "json"), 4),
])
def test_manifest_stages_rows_and_output_bytes(tmp_path, capsys, argv, rows):
    """rows and output_bytes are equal across identical requests and match the document (to
    stdout or --out); the stages, rounded like wall_time_s, add up to no more than it."""
    manifests = []
    for i, out in enumerate(([], ["--out", str(tmp_path / "result")])):
        path = tmp_path / f"manifest{i}.json"
        code, stdout, _ = run(capsys, *argv, *out, "--manifest", str(path))
        assert code == 0
        manifests.append(json.loads(path.read_text()))
        body = stdout.encode() if not out else (tmp_path / "result").read_bytes()
        assert manifests[-1]["output_bytes"] == len(body)
        if "tsv" in argv:
            assert manifests[-1]["rows"] == body.count(b"\n") - 1
    first, second = manifests
    assert (first["rows"], first["output_bytes"]) == (second["rows"], second["output_bytes"]) == (
        rows, first["output_bytes"])
    for manifest in manifests:
        assert list(manifest["stages"]) == ["compute_s", "emit_s", "parse_s"]  # keys print sorted
        assert all(s >= 0 for s in manifest["stages"].values())
        assert round(sum(manifest["stages"].values()), 6) <= manifest["wall_time_s"]


#: A ghost request on a Witt input whose variable name is the byte 0xff, which the command
#: line decodes to a lone surrogate; stdout prints it back as that byte (surrogateescape).
RAW_BYTE_REQUEST = ("witt", "--op", "ghost", "--format", "tsv", "--u",
                    '{"coords":[{"variables":["\udcff"],"terms":[{"exponents":[1],"coefficient":"1"}]}]}')
RAW_BYTE_BODY = b"index\tghost\n1\t\xff^1\n"


def _raw_byte_run(*flags):
    """(exit code, stdout's bytes, stderr) of ``RAW_BYTE_REQUEST`` with ``flags``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*RAW_BYTE_REQUEST, *flags])
    return code, out.getvalue().encode("utf-8", "surrogateescape"), err.getvalue()


def test_out_writes_a_lone_surrogate_as_its_byte(tmp_path):
    assert _raw_byte_run() == (0, RAW_BYTE_BODY, "")
    path = tmp_path / "result.tsv"
    assert _raw_byte_run("--out", str(path)) == (0, b"", "")
    assert path.read_bytes() == RAW_BYTE_BODY


def test_manifest_hashes_a_lone_surrogate_as_its_byte(tmp_path):
    import hashlib
    manifest = tmp_path / "manifest.json"
    assert _raw_byte_run("--manifest", str(manifest)) == (0, RAW_BYTE_BODY, "")
    digest = "sha256:" + hashlib.sha256(RAW_BYTE_BODY).hexdigest()
    assert json.loads(manifest.read_text())["content_hash"] == digest
    path = tmp_path / "result.tsv"
    assert _raw_byte_run("--out", str(path), "--manifest", str(manifest)) == (0, b"", "")
    assert path.read_bytes() == RAW_BYTE_BODY
    assert json.loads(manifest.read_text())["content_hash"] == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_config_file_presets(tmp_path, capsys):
    config = tmp_path / "wittkit.conf"
    config.write_text("# preset family and table size\nfamily = hesse-cubic\nmmax = 4\nformat = tsv\n")
    code, out, _ = run(capsys, "am-log", "--config", str(config))
    assert code == 0
    assert out.strip().split("\n")[-1] == "4\t1+6*x^3"
    # explicit flags win over config values
    code, out2, _ = run(capsys, "am-log", "--config", str(config), "--mmax", "2")
    assert code == 0
    assert out2.strip().split("\n")[-1] == "2\t1"


def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("family = hesse-cubic\nmmax = abc\n")
    code, out, err = run(capsys, "am-log", "--config", str(config))
    assert code == 1
    assert out == ""
    assert f"{config}:2:" in err and "'mmax'" in err


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("mmax 3\n")
    code, out, err = run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "2", "--config", str(config))
    assert (code, out, err) == (1, "", f"wittkit: usage error: {config}:1: expected key=value\n")


def test_unwritable_output_paths_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    for flag in ("--out", "--manifest"):
        code, _, err = run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "3",
                           flag, str(missing))
        assert code == 1, flag
        assert err == f"wittkit: cannot write {missing}: No such file or directory\n"
    assert not missing.parent.exists()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("mystery = 3\n")
    code, _, err = run(capsys, "am-log", "--config", str(config), "--family",
                       "hesse-cubic", "--mmax", "2")
    assert code == 1
    assert "unknown config key" in err
    config.write_text("m" * 100_000 + " = 3\n")
    code, _, err = run(capsys, "am-log", "--config", str(config), "--family",
                       "hesse-cubic", "--mmax", "2")
    assert code == 1
    assert len(err.encode("utf-8")) < 1000


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.conf"
    code, out, err = run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "3",
                         "--config", str(missing))
    assert code == 1
    assert out == ""
    assert err == f"wittkit: cannot read {missing}: No such file or directory\n"
    not_utf8 = tmp_path / "latin1.conf"
    not_utf8.write_bytes(b"mmax = 3\n\xff\xfe\n")
    code, out, err = run(capsys, "am-log", "--family", "hesse-cubic",
                         "--config", str(not_utf8))
    assert code == 1
    assert out == ""
    assert err.startswith(f"wittkit: cannot read {not_utf8}: 'utf-8' codec can't decode")


def test_config_presets_every_flag_it_names(tmp_path, capsys):
    """method and nu have non-None defaults and are still preset by a config
    file; an explicit flag still wins."""
    config = tmp_path / "wittkit.conf"
    config.write_text("family = hesse-cubic\nmmax = 2\nmethod = closed-form\n")
    code, out, _ = run(capsys, "am-log", "--config", str(config))
    assert code == 0
    assert json.loads(out)["method"] == "closed-form"
    config.write_text("family = quintic-cy3\np = 3\nnu = 3\n")
    code, out, _ = run(capsys, "congruence", "--config", str(config))
    assert code == 0
    assert json.loads(out)["nu"] == 3
    code, out, _ = run(capsys, "congruence", "--config", str(config), "--nu", "2")
    assert code == 0
    assert json.loads(out)["nu"] == 2


@pytest.mark.parametrize(
    "line, request_argv",
    [
        ("format = xml", ("am-log", "--family", "hesse-cubic", "--mmax", "3")),
        ("oracle = maybe", ("scan-ordinary", "--family", "hesse-cubic", "--pmax", "5")),
        ("format = " + "x" * 100_000, ("am-log", "--family", "hesse-cubic", "--mmax", "3")),
        ("budget = -1", ("scan-ordinary", "--family", "hesse-cubic", "--pmax", "5", "--oracle")),
    ],
    ids=["format", "oracle", "format-long", "budget"],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, line, request_argv):
    config = tmp_path / "bad.conf"
    config.write_text(line + "\n")
    code, out, err = run(capsys, *request_argv, "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith(f"wittkit: usage error: {config}:1: bad value for ")
    assert len(err.encode("utf-8")) < 1000


def test_config_skips_keys_of_other_subcommands(tmp_path, capsys):
    config = tmp_path / "shared.conf"
    config.write_text("family = hesse-cubic\nmmax = 3\npmax = 7\nkmax = 4\noracle = yes\n")
    manifest = tmp_path / "manifest.json"
    code, out, _ = run(capsys, "am-log", "--config", str(config), "--manifest", str(manifest))
    assert code == 0
    assert out == run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "3")[1]
    request = json.loads(manifest.read_text())["request"]
    assert {"pmax", "kmax", "oracle"}.isdisjoint(request)
    assert request["mmax"] == 3


def test_config_presets_witt_format(tmp_path, capsys):
    config = tmp_path / "tsv.conf"
    config.write_text("format = tsv\n")
    code, out, _ = run(capsys, "witt", "--op", "ghost", "--u", witt_json([1, 2]),
                       "--config", str(config))
    assert code == 0
    assert out == "index\tghost\n1\t1\n2\t5\n"


_FLAG_VALUES = {
    "family": "quintic-cy3", "mmax": "3", "deg": "2", "pmax": "5", "kmax": "4", "p": "3",
    "a": "2", "length": "3", "u": witt_json([1, 2]), "v": witt_json([3, 4]),
    "g": '["1", "3"]', "m": "2", "k": "1",
}
_SUBCOMMANDS = [name for name in _REQUIRED if name not in _WITT_OPS]


@pytest.mark.parametrize(
    "name, flag", [(name, flag) for name, flags in _REQUIRED.items() for flag in flags]
)
def test_missing_required_flag_is_usage_error(capsys, name, flag):
    argv = ["witt", "--op", name] if name in _WITT_OPS else [name]
    for other in _REQUIRED[name]:
        if other != flag:
            argv += [f"--{other}", _FLAG_VALUES[other]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"wittkit: usage error: {name} is missing required flags: --{flag}\n"


def test_documented_config_keys_match_the_cli():
    """docs/formats.md lists the config keys in _CONFIG_KEYS order, and each
    presets a flag of at least one subcommand."""
    docs = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    listed = re.search(r"Known\s+keys:(.*?)\.", docs, re.S).group(1)
    assert tuple(re.findall(r"`([a-z]+)`", listed)) == _CONFIG_KEYS
    flags = set()
    for command in _SUBCOMMANDS:
        flags.update(vars(build_parser().parse_args([command])))
    assert set(_CONFIG_KEYS) <= flags


def _poly(variables, exponents, coefficient="1"):
    return {"variables": variables,
            "terms": [{"exponents": exponents, "coefficient": coefficient}]}


def _teich(a):
    return ("--op", "teichmueller", "--length", "2", "--a", json.dumps(a))


def _neg(coords, length=None):
    length = len(coords) if length is None else length
    return ("--op", "neg", "--u", json.dumps({"length": length, "coords": coords}))


def _from_ghost(entries):
    return ("--op", "from-ghost", "--g", json.dumps(entries))


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(_teich(_poly(["x"], [1, 2])), 1, id="exponent-length"),
        pytest.param(_teich(_poly(["x"], [-1])), 1, id="negative-exponent"),
        pytest.param(_teich(_poly(["x", "x"], [1, 0])), 1, id="duplicate-variables"),
        pytest.param(_teich(_poly(["x"], [1], "abc")), 1, id="coefficient-abc"),
        pytest.param(_teich(_poly(["x"], [1], "1/0")), 1, id="coefficient-1/0"),
        pytest.param(_neg(["abc"]), 1, id="witt-coordinate-abc"),
        pytest.param(_neg([_poly(["x"], [1, 1])]), 1, id="witt-exponent-length"),
        pytest.param(_neg(["1", "2"], length=3), 1, id="witt-length"),
        pytest.param(_from_ghost(["1/0"]), 1, id="ghost-1/0"),
        pytest.param(_from_ghost([_poly(["x"], [-2])]), 1, id="ghost-negative-exponent"),
        # shapes the schema forbids, each once read as something else
        pytest.param(_teich(_poly(["x"], [1.7])), 1, id="exponent-float"),
        pytest.param(_teich(_poly(["x"], [True])), 1, id="exponent-true"),
        pytest.param(_teich(_poly(["x"], ["2"])), 1, id="exponent-string"),
        pytest.param(_teich({"variables": ["x"], "terms": [
            {"exponents": [1], "coefficient": "3"}, {"exponents": [1], "coefficient": "4"}
        ]}), 1, id="duplicate-exponents"),
        pytest.param(_teich({"variables": "xy", "terms": []}), 1, id="variables-string"),
        pytest.param(_teich(_poly(["x"], [1], True)), 1, id="coefficient-true"),
        pytest.param(_teich(_poly(["x"], [1], 1.5)), 1, id="coefficient-float"),
        pytest.param(_teich({"variables": ["x"]}), 1, id="terms-missing"),
        pytest.param(_teich({"variables": ["x"], "terms": [[1]]}), 1, id="term-not-object"),
        pytest.param(_teich([1]), 1, id="value-list"),
        pytest.param(_neg("12", length=2), 1, id="witt-coords-string"),
        pytest.param(_neg(["1", "2"], length=2.0), 1, id="witt-length-float"),
        pytest.param(_neg(["1"], length=True), 1, id="witt-length-true"),
        pytest.param(("--op", "neg", "--u", "[1]"), 1, id="witt-not-object"),
        pytest.param(_from_ghost("12"), 1, id="ghost-string"),
        pytest.param(_from_ghost({"0": "1"}), 1, id="ghost-object"),
        # json.loads refuses these itself: nesting past the recursion limit,
        # and an integer over Python's digit limit for int conversion
        pytest.param(("--op", "neg", "--u", "[" * 100_000), 1, id="json-nested-too-deep"),
        pytest.param(("--op", "neg", "--u", "7" * 5_000), 1, id="json-integer-too-long"),
        # well-formed input: a fractional Witt coordinate is a precondition violation
        pytest.param(_neg(["1/2"]), 2, id="witt-coordinate-1/2"),
        pytest.param(_teich(_poly(["x"], [1])), 0, id="well-formed"),
    ],
)
def test_malformed_values_are_usage_errors(capsys, argv, code):
    got, _, err = run(capsys, "witt", *argv)
    assert got == code, err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("wittkit: usage error: cannot parse ")


def _zx_terms(*terms):
    """A Witt vector over Z[x] of one coordinate with these (exponents, coefficient) terms."""
    return {"coords": [{"variables": ["x"], "terms": [{"exponents": e, "coefficient": c} for e, c in terms]}]}


def _zx_raw(*terms, variables=("x",)):
    """A Witt vector of one coordinate with these term objects, as given."""
    return {"coords": [{"variables": list(variables), "terms": list(terms)}]}


#: The whole stderr of Z[x] Witt inputs that the schema or the polynomial refuses (exit 1); the
#: reason quotes the first error found, every term's schema checks coming before any other check.
ZX_PARSE_ERRORS = {
    "duplicate-exponent": (_zx_terms(([1], "3"), ([1], "4")), "duplicate exponent vector [1]"),
    "negative-exponent": (_zx_terms(([2], "1"), ([-1], "3")), "negative exponent in (-1,)"),
    "exponent-length": (_zx_terms(([1, 2], "3")), "exponent vector (1, 2) does not match variables ('x',)"),
    "no-exponent": (_zx_terms(([], "3")), "exponent vector () does not match variables ('x',)"),
    "duplicate-variables": ({"coords": [{"variables": ["x", "x"], "terms": [
        {"exponents": [1, 0], "coefficient": "3"}]}]}, "duplicate variable names in ('x', 'x')"),
    "negative-then-true": (_zx_terms(([-1], "3"), ([True], "1")), "an exponent must be int, not bool"),
    "negative-then-abc": (_zx_terms(([-1], "3"), ([1], "abc")), "not an exact number: 'abc'"),
    "second-coordinate": ({"coords": [_zx_terms(([1], "2"))["coords"][0], {"variables": ["x"], "terms": [
        {"exponents": [0], "coefficient": "1"}, {"exponents": [-3], "coefficient": "1"}]}]},
        "negative exponent in (-3,)"),
    # each term's checks in their order: an object with exponents, a list of ints, no duplicate, then a coefficient
    "term-not-object": (_zx_raw({"exponents": [0], "coefficient": "1"}, [1]),
                        "expected an object with key 'exponents'"),
    "no-coefficient": (_zx_raw({"exponents": [0], "coefficient": "1"}, {"exponents": [1]}),
                       "expected an object with key 'coefficient'"),
    "exponents-not-list": (_zx_raw({"exponents": 1, "coefficient": "1"}), "'exponents' must be list, not int"),
    "float-exponent": (_zx_raw({"exponents": [1.0], "coefficient": "1"}), "an exponent must be int, not float"),
    "bool-coefficient": (_zx_raw({"exponents": [1], "coefficient": True}),
                         "a number must be an int or a decimal string, not bool"),
    "float-coefficient": (_zx_raw({"exponents": [1], "coefficient": 1.5}),
                          "a number must be an int or a decimal string, not float"),
    "duplicate-then-float-coefficient": (
        _zx_raw({"exponents": [1], "coefficient": "1"}, {"exponents": [1], "coefficient": 1.5}),
        "duplicate exponent vector [1]"),
    "variable-not-string": (_zx_raw({"exponents": [1], "coefficient": "1"}, variables=[1]),
                            "a variable name must be str, not int"),
}


@pytest.mark.parametrize("name", sorted(ZX_PARSE_ERRORS))
def test_zx_witt_parse_errors_pinned(capsys, name):
    """The same reason as a Witt vector and as ghost entries."""
    obj, reason = ZX_PARSE_ERRORS[name]
    for what, argv in (("Witt vector", ("neg", "--u", json.dumps(obj))),
                       ("ghost entries", ("from-ghost", "--g", json.dumps(obj["coords"])))):
        code, out, err = run(capsys, "witt", "--op", *argv)
        quoted = repr(argv[-1]) if len(repr(argv[-1])) <= 80 else repr(argv[-1])[:80] + "…"
        assert (code, out) == (1, "")
        assert err == f"wittkit: usage error: cannot parse {what} {quoted}: {reason}\n"


def test_zx_witt_fraction_coefficients_pinned(capsys):
    """A Fraction-string coefficient: 1/2 is no integer (exit 2), 4/2 prints as 2."""
    code, out, err = run(capsys, "witt", "--op", "neg", "--u", json.dumps(_zx_terms(([1], "1/2"), ([0], "1"))))
    assert (code, out) == (2, "")
    assert err == "wittkit: coordinate a_1 must lie in a torsion-free integral ring: 1/2 is not an integer\n"
    code, out, err = run(capsys, "witt", "--op", "neg", "--u", json.dumps(_zx_terms(([1], "4/2"), ([0], "-1"))))
    assert (code, err) == (0, "")
    entry = '{"terms":[{"coefficient":"1","exponents":[0]},{"coefficient":"-2","exponents":[1]}],"variables":["x"]}'
    assert out == '{"ghost":[' + entry + '],"op":"neg","result":{"coords":[' + entry + '],"length":1}}\n'


@pytest.mark.parametrize(
    "flag, text",
    [
        pytest.param("--u", "[" * 100_000, id="nested"),
        pytest.param("--u", json.dumps({"coords": ["a" * 100_000]}), id="coefficient"),
    ],
)
def test_usage_errors_quote_a_bounded_prefix_of_the_input(capsys, flag, text):
    code, _, err = run(capsys, "witt", "--op", "neg", flag, text)
    assert code == 1
    assert err.startswith("wittkit: usage error: cannot parse Witt vector '" + text[:20])
    assert len(err.encode("utf-8")) < 1000


_LONG = "a" * 100_000


@pytest.mark.parametrize(
    "argv, head, tail",
    [
        pytest.param(("fgl", "--family", "hesse", "--deg", "2", "--at-x", _LONG),
                     "argument --at-x: invalid int value: 'aaa", "…\n", id="at-x"),
        pytest.param(("am-log", "--family", _LONG, "--mmax", "2"), "unknown family 'aaa",
                     "…; available: hesse-cubic, quartic-k3, quintic-cy3\n", id="family"),
        pytest.param(("am-log", "--family", "hesse", "--mmax", "2", "--format", _LONG),
                     "argument --format: invalid choice: 'aaa", "… (choose from 'json', 'tsv')\n",
                     id="format"),
        pytest.param(("witt", "--op", _LONG), "argument --op: invalid choice: 'aaa",
                     "'verschiebung', 'truncate')\n", id="op"),
        pytest.param(("am-log", "--family", "hesse", "--mmax", "9" * 5_000),
                     "argument --mmax: invalid int value: '999", "…\n", id="mmax"),
        pytest.param(("witt", "--op", "neg", "--u", "[1]", _LONG, *["x"] * 2_000),
                     "unrecognized arguments: aaa", "…\n", id="unrecognized"),
    ],
)
def test_malformed_flag_values_are_quoted_bounded(capsys, argv, head, tail):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("wittkit: usage error: " + head) and err.endswith(tail)
    assert len(err.encode("utf-8")) < 1000


_SCHEMA_KEYS = ("variables", "terms", "exponents", "coefficient", "coords", "length")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(obj=_JSON, flag=st.sampled_from(["--a", "--u", "--g"]))
def test_random_json_exits_with_a_documented_code(obj, flag):
    op = {"--a": ("teichmueller", "--length", "3"), "--u": ("neg",), "--g": ("from-ghost",)}[flag]
    argv = ["witt", "--op", *op, f"{flag}={json.dumps(obj)}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


# values stay small so that every request is cheap: p^nu, mmax, deg, kmax and pmax
_SMALL = st.integers(-3, 8).map(str)
_JUNK = st.text(max_size=6) | st.sampled_from(["a", "9", "[", "-", " ", "'", '"\\']).map(lambda c: c * 5_000)
_FAMILY = st.sampled_from(["hesse-cubic", "quartic-k3", "quintic-cy3", "hesse", "quartic", "quintic"])
_RING = st.integers(-3, 3).map(str) | st.sampled_from([json.dumps(_poly(["x"], [1], "2")), '"1/2"'])
_WITT = st.lists(st.integers(-3, 3) | st.just("1/2"), max_size=3).map(
    lambda coords: json.dumps({"coords": [str(c) for c in coords]})
)
_FLAG_STRATEGIES = {
    "witt": {"op": st.sampled_from(tuple(_WITT_OPS)), "a": _RING, "u": _WITT, "v": _WITT,
             "g": st.lists(_RING, max_size=3).map(lambda e: "[" + ", ".join(e) + "]"),
             "m": _SMALL, "k": _SMALL, "length": _SMALL},
    "am-log": {"family": _FAMILY, "mmax": _SMALL, "method": st.sampled_from(["extraction", "closed-form"]),
               "mod": _SMALL},
    "fgl": {"family": _FAMILY, "deg": _SMALL, "at-x": _SMALL,
            "method": st.sampled_from(["extraction", "closed-form"])},
    "scan-ordinary": {"family": _FAMILY, "pmax": _SMALL, "oracle": None, "budget": _SMALL},
    "pf-check": {"family": _FAMILY, "kmax": _SMALL},
    "congruence": {"family": _FAMILY, "p": _SMALL, "nu": st.integers(-3, 3).map(str)},
}


@st.composite
def _flag_sets(draw):
    """A subcommand with its required flags (each left out now and then), some
    of its other flags, and now and then junk in place of a valid value."""
    command = draw(st.sampled_from(_SUBCOMMANDS))
    argv, op = [command], None
    for flag, strategy in {**_FLAG_STRATEGIES[command], "format": st.sampled_from(["json", "tsv"])}.items():
        required = flag in _REQUIRED[command] + _REQUIRED.get(op, ())
        if draw(st.integers(0, 9)) >= (9 if required else 3):
            continue
        if strategy is None:  # a switch
            argv.append(f"--{flag}")
            continue
        value = draw(_JUNK if draw(st.integers(0, 9)) == 0 else strategy)
        op = value if flag == "op" else op
        argv += [f"--{flag}", value] if draw(st.booleans()) else [f"--{flag}={value}"]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_flag_sets())
def test_random_flags_exit_with_a_documented_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) in (0, 1, 2, 3)
    assert len(err.getvalue().encode("utf-8")) < 1000


@st.composite
def _presets(draw, command):
    """Flags as load_config hands them on (``--key=value``, ``--oracle``) for some of the config keys that
    ``command`` takes, now and then with junk in place of a valid value."""
    flags = []
    for key, strategy in {**_FLAG_STRATEGIES[command], "format": st.sampled_from(["json", "tsv"])}.items():
        if key not in _CONFIG_KEYS or draw(st.integers(0, 9)) >= 3:
            continue
        value = None if strategy is None else draw(_JUNK if draw(st.integers(0, 9)) == 0 else strategy)
        flags.append("--oracle" if value is None else f"--{key}={value}")
    return flags


def _parsed(parse, argv):
    """The namespace ``parse`` reads from ``argv`` as a dict, or the error or exit it ends with."""
    try:
        return vars(parse(argv))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code


@settings(max_examples=200, deadline=None)
@given(argv=_flag_sets(), data=st.data())
def test_one_pass_parse_reads_what_the_top_level_parse_reads(argv, data):
    """The subcommand's parser alone reads a request as the top level and then the subcommand read it: the
    same flags, or the same usage error, with and without config presets ahead of the command line's flags."""
    presets = data.draw(_presets(argv[0]))
    with contextlib.redirect_stdout(io.StringIO()):
        for request in (argv, [argv[0], *presets, *argv[1:]]):
            assert _parsed(cli._parse_request, request) == _parsed(build_parser().parse_args, request)
