"""Smoke runs of the scripts under scripts/ (and of the CLI where a real
stdout matters), each as its own process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, stdout=subprocess.PIPE):
    """Run scripts/NAME, or the CLI module when NAME is ``-m wittkit.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    target = name.split() if name.startswith("-m ") else [str(ROOT / "scripts" / name)]
    return subprocess.run(
        [sys.executable, *target, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, verdict, expected",
    [
        ("group_law_tables.py", ("--deg", "4"), r"integral: ", ["integral: True"] * 3),
        ("ordinary_sweep.py", ("--pmax", "13"), r"# disagreements: ", ["# disagreements: 0"]),
        (
            "group_law_tables.py",
            ("--deg", "3", "--family", "hesse"),
            r"== ",
            ["== hesse-cubic (total degree 3) =="],
        ),
        ("ordinary_sweep.py", ("--pmax", "7", "--family", "hesse"), r"# disagreements: ",
         ["# disagreements: 0"]),
        (
            "quintic_congruences.py",
            ("--kmax", "10", "--order", "20"),
            r".*: (PASS|FAIL)",
            [
                "L a_k = 0 mod k for k <= 10: PASS",
                "L f = 0 through x^20: PASS",
                "a_(p^2) = a_p * a_p^p mod p at p=3: PASS",
                "a_(p^2) = a_p * a_p^p mod p at p=5: PASS",
                "a_(p^2) = a_p * a_p^p mod p at p=7: PASS",
            ],
        ),
    ],
    ids=["group_law_tables", "ordinary_sweep", "group_law_tables_alias", "ordinary_sweep_alias",
         "quintic_congruences"],
)
def test_script_smoke(name, args, verdict, expected):
    """Exit 0 and the script's own verdict lines (cut at ';', which starts
    the elapsed time)."""
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    lines = (result.stdout + result.stderr).splitlines()
    assert [line.split(";")[0] for line in lines if re.match(verdict, line)] == expected


@pytest.mark.parametrize(
    "name, args",
    [
        ("group_law_tables.py", ("--family", "bogus")),
        ("ordinary_sweep.py", ("--family", "bogus")),
        # the sweep's oracle counts points on elliptic pencils only
        ("ordinary_sweep.py", ("--family", "quartic")),
    ],
    ids=["group_law_tables-bogus", "ordinary_sweep-bogus", "ordinary_sweep-quartic"],
)
def test_script_rejects_family_with_usage(name, args):
    result = run_script(name, *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ") and "argument --family: invalid" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("ordinary_sweep.py", "--family", "a" * 100_000),
        ("ordinary_sweep.py", "--pmax", "9" * 5_000),
        ("group_law_tables.py", "--deg", "x" * 100_000),
        ("quintic_congruences.py", "--kmax", "x" * 100_000),
        # a negative budget is a bad value, not an exceeded budget
        ("ordinary_sweep.py", "--budget", "-1"),
    ],
    ids=["ordinary_sweep-family", "ordinary_sweep-pmax", "group_law_tables-deg", "quintic_congruences-kmax",
         "ordinary_sweep-budget"],
)
def test_script_usage_errors_quote_a_bounded_value(name, flag, value):
    result = run_script(name, f"{flag}={value}")
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.encode("utf-8")) < 1000
    assert result.stderr.startswith("usage: ") and f"argument {flag}: invalid" in result.stderr


@pytest.mark.parametrize(
    "name, args, code, message",
    [
        ("group_law_tables.py", ("--deg", "0"), 2, "total degree must be >= 1"),
        ("ordinary_sweep.py", ("--pmax", "2"), 2, "the scan needs a prime bound >= 3"),
        ("ordinary_sweep.py", ("--pmax", "31", "--budget", "10"), 3,
         "budget exceeded: P^2(F_3) has 13 points, over the budget 10"),
        ("ordinary_sweep.py", ("--pmax", "31", "--budget", "0"), 3,
         "budget exceeded: P^2(F_3) has 13 points, over the budget 0"),
        ("quintic_congruences.py", ("--kmax", "0"), 2, "k_max must be >= 1"),
        ("quintic_congruences.py", ("--order", "-1"), 2,
         "cannot check a solution through a negative order -1"),
    ],
    ids=["group_law_tables-deg", "ordinary_sweep-pmax", "ordinary_sweep-budget", "ordinary_sweep-budget-0",
         "quintic_congruences-kmax", "quintic_congruences-order"],
)
def test_script_errors_exit_with_the_cli_codes(name, args, code, message):
    """A precondition violation exits 2 and a budget overrun 3, with one
    line naming the script and no traceback."""
    result = run_script(name, *args)
    assert result.returncode == code
    assert result.stderr == f"{name}: {message}\n"


@pytest.mark.parametrize(
    "name, args",
    [
        ("-m wittkit.cli", ("am-log", "--family", "hesse", "--mmax", "5")),
        ("group_law_tables.py", ("--deg", "3")),
        ("ordinary_sweep.py", ("--pmax", "7")),
        ("quintic_congruences.py", ("--kmax", "5", "--order", "10")),
    ],
    ids=["cli", "group_law_tables", "ordinary_sweep", "quintic_congruences"],
)
def test_closed_stdout_exits_1_without_traceback(name, args):
    # a pipe whose read end is closed before the run: every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_script(name, *args, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr and "BrokenPipeError" not in result.stderr
