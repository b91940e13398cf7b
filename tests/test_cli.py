import contextlib
import io
import json
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import cli, ordinarity
from wittkit.cli import _CONFIG_KEYS, _REQUIRED, _WITT_OPS, build_parser, main
from wittkit.families import FAMILY_IDS, builtin_family
from wittkit.ordinarity import frobenius_power_congruence, ordinarity_scan
from wittkit.picard_fuchs import pf_congruence_check
from wittkit.polynomials import SparsePolynomial, format_value
from wittkit.serialize import value_to_obj, witt_to_obj
from wittkit.witt import WittVector

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
        law.series.terms[(2, 2)] = law.series.terms[(2, 2)] * Fraction(1, 7)
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
        rule = entry.closed_form
        return entry._replace(closed_form=lambda m: rule(m) + X if m == 7 else rule(m))

    monkeypatch.setattr(cli, "builtin_family", with_a_wrong_coefficient)
    entry = with_a_wrong_coefficient("quintic-cy3")
    expected = pf_congruence_check(entry.picard_fuchs, entry.closed_form, 8)
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


def test_congruence_prints_failing_residual(capsys, monkeypatch):
    """a_25 off by 1 fails the hesse congruence at p = 5; both formats print
    the library's residual."""
    real = cli.builtin_family

    def with_a_wrong_coefficient(identifier):
        entry = real(identifier)
        rule = entry.closed_form_mod
        return entry._replace(
            closed_form_mod=lambda m, p, s: rule(m, p, s) + 1 if m == 25 else rule(m, p, s)
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
