"""What the scripts under scripts/ share: a parser whose usage errors quote
a bounded excerpt of a malformed value, and the run that maps errors to the
CLI's exit codes with no traceback.

    from _script import Parser, run_main
"""

import argparse
import os
import sys

from wittkit.cli import BUDGET_ERROR, PRECONDITION_ERROR, _bounded
from wittkit.ordinarity import BudgetExceededError


class Parser(argparse.ArgumentParser):
    """argparse's parser (usage line, exit 2), with each value its error
    message quotes cut to 80 characters by the CLI's own rule."""

    def error(self, message):
        super().error(_bounded(message))


def run_main(main) -> None:
    """Exit with ``main()``'s code.  A closed stdout exits 1, a precondition
    violation 2 and a budget overrun 3, as in the CLI, each with no traceback;
    the last two print one line naming the script."""
    name = os.path.basename(sys.argv[0])
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except BudgetExceededError as exc:
        print(f"{name}: budget exceeded: {exc}", file=sys.stderr)
        code = BUDGET_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        code = PRECONDITION_ERROR
    sys.exit(code)
