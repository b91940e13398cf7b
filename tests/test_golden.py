"""Every golden CLI request reproduces its frozen stdout byte for byte.

The files under tests/golden/ hold the stdout of each request in
``conftest.golden_cli_requests``.  A change that alters any of them changes
the output contract and names the files it rewrites in CHANGES.md.
Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from wittkit import cli
from wittkit.cli import build_parser, main

from conftest import golden_cli_requests, golden_name

GOLDEN_DIR = Path(__file__).parent / "golden"
REQUESTS = list(golden_cli_requests())


def test_golden_names_unique():
    assert len({golden_name(r) for r in REQUESTS}) == len(REQUESTS)


def test_golden_names_keep_the_sign_of_flag_values():
    request = ["fgl", "--family", "quintic-cy3", "--deg", "9", "--at-x", "2", "--format", "json"]
    negative = request[:6] + ["-2"] + request[7:]
    assert golden_name(request) == "fgl_family_quintic-cy3_deg_9_at-x_2_format_json.out"
    assert golden_name(negative) == "fgl_family_quintic-cy3_deg_9_at-x_-2_format_json.out"


@pytest.mark.parametrize("request_argv", REQUESTS, ids=golden_name)
def test_golden_output(request_argv, capsys):
    expected = (GOLDEN_DIR / golden_name(request_argv)).read_bytes()
    assert main(list(request_argv)) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("request_argv", [r for r in REQUESTS if r[-1] == "tsv"], ids=golden_name)
def test_tsv_requests_build_no_json(request_argv, capsys, monkeypatch):
    """A TSV request prints its value table; no part of the JSON view is built."""

    def no_json(*args):
        raise AssertionError("a TSV request built JSON")

    for name in ("Values", "Records", "json_dumps"):
        monkeypatch.setattr(cli, name, no_json)
    expected = (GOLDEN_DIR / golden_name(request_argv)).read_bytes()
    assert main(list(request_argv)) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_usage_errors_leave_the_shared_parser_intact(capsys):
    """main reuses one parser per process; requests it rejected do not
    change what a later valid request prints."""
    for bad in (
        ["am-log", "--unknown-flag", "3"],
        ["witt", "--op", "cube"],
        ["congruence", "--family", "hesse-cubic", "--p", "five"],
        ["fgl", "--family", "hesse-cubic"],
        [],
    ):
        assert main(bad) == 1
    capsys.readouterr()
    assert build_parser() is build_parser()
    for argv in REQUESTS[:4]:
        assert main(list(argv)) == 0
        expected = (GOLDEN_DIR / golden_name(argv)).read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in REQUESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(list(argv)) != 0:
                sys.exit(f"request failed: {argv}")
        (GOLDEN_DIR / golden_name(argv)).write_bytes(out.getvalue().encode("utf-8"))
