import json

import pytest

from wittkit.cli import main
from wittkit.serialize import witt_to_obj
from wittkit.witt import WittVector


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


def test_scan_matches_library(capsys):
    code, out, _ = run(capsys, "scan-ordinary", "--family", "hesse-cubic",
                       "--pmax", "5", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    by_prime = {entry["p"]: entry for entry in payload["primes"]}
    assert by_prime[3]["nonordinary"] == []
    assert by_prime[5]["nonordinary"] == [1]

    from wittkit.ordinarity import ordinarity_scan

    report = ordinarity_scan("hesse-cubic", 5, with_oracle=True)
    assert [s.prime for s in report.scans] == sorted(by_prime)
    for scan in report.scans:
        assert list(scan.nonordinary) == by_prime[scan.prime]["nonordinary"]


def test_pf_check_rows(capsys):
    code, out, _ = run(capsys, "pf-check", "--family", "quintic", "--kmax", "10",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k\tpass\tresidual"
    assert len(lines) == 11
    assert all(line.split("\t")[1] == "true" for line in lines[1:])


def test_congruence(capsys):
    code, out, _ = run(capsys, "congruence", "--family", "hesse-cubic", "--p", "3",
                       "--nu", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


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


# -- exit codes, manifest, config -----------------------------------------------------


def test_usage_errors(capsys):
    assert run(capsys, "am-log", "--family", "hesse-cubic")[0] == 1  # missing --mmax
    assert run(capsys, "am-log", "--family", "not-a-family", "--mmax", "3")[0] == 1
    assert run(capsys, "am-log", "--unknown-flag", "3")[0] == 1  # unknown flag rejected


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "scan-ordinary", "--family", "hesse-cubic", "--pmax", "2")
    assert code == 2
    code, _, err = run(capsys, "congruence", "--family", "hesse-cubic", "--p", "2")
    assert code == 2


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "scan-ordinary", "--family", "hesse-cubic",
                       "--pmax", "7", "--oracle", "--budget", "3")
    assert code == 3


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


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.conf"
    code, out, err = run(capsys, "am-log", "--family", "hesse-cubic", "--mmax", "3",
                         "--config", str(missing))
    assert code == 1
    assert out == ""
    assert err == f"wittkit: cannot read {missing}: No such file or directory\n"


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
