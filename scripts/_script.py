"""What the scripts under scripts/ share: a parser whose usage errors quote
a bounded excerpt of a malformed value, and the run that maps errors to the
CLI's exit codes with no traceback.

    from _script import Parser, run_main
"""

import argparse
import os
import sys

from wittkit.cli import FAILURES, _bounded, exit_code


class Parser(argparse.ArgumentParser):
    """argparse's parser (usage line, exit 2), with each value its error
    message quotes cut to 80 characters by the CLI's own rule."""

    def error(self, message):
        super().error(_bounded(message))


def run_main(main) -> None:
    """Exit with ``main()``'s code.  A closed stdout exits 1, a precondition
    violation 2 and a budget overrun 3, by the CLI's own ``exit_code``, each
    with no traceback; the last two print one line naming the script."""
    try:
        code = main()
        sys.stdout.flush()
    except (BrokenPipeError, *FAILURES) as exc:
        code = exit_code(os.path.basename(sys.argv[0]), exc)
    sys.exit(code)
