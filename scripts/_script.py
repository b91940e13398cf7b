"""What the scripts under scripts/ share: a parser whose usage errors quote
a bounded excerpt of a malformed value, and the run that turns a closed
stdout into exit 1.

    from _script import Parser, run_main
"""

import argparse
import os
import sys

from wittkit.cli import _bounded


class Parser(argparse.ArgumentParser):
    """argparse's parser (usage line, exit 2), with each value its error
    message quotes cut to 80 characters by the CLI's own rule."""

    def error(self, message):
        super().error(_bounded(message))


def run_main(main) -> None:
    """Exit with ``main()``'s code; a closed stdout exits 1 with no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
