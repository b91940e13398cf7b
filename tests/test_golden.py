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

from wittkit.cli import main

from conftest import golden_cli_requests, golden_name

GOLDEN_DIR = Path(__file__).parent / "golden"
REQUESTS = list(golden_cli_requests())


def test_golden_names_unique():
    assert len({golden_name(r) for r in REQUESTS}) == len(REQUESTS)


@pytest.mark.parametrize("request_argv", REQUESTS, ids=golden_name)
def test_golden_output(request_argv, capsys):
    expected = (GOLDEN_DIR / golden_name(request_argv)).read_bytes()
    assert main(list(request_argv)) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in REQUESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(list(argv)) != 0:
                sys.exit(f"request failed: {argv}")
        (GOLDEN_DIR / golden_name(argv)).write_bytes(out.getvalue().encode("utf-8"))
