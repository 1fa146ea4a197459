"""A ratchet on the values a caller can set.

Each settable value doubles the configurations the tests and the benchmark
would have to cover, so the counts below may fall but not grow.  A change
that needs a new parameter or option raises its pin and says why in
CHANGES.md.
"""

import argparse
import ast
from pathlib import Path

import fasdlab
from fasdlab.cli import build_parser

SRC = Path(fasdlab.__file__).resolve().parent

DEFAULTED_PARAMETERS_MAX = 17
CLI_OPTIONS_MAX = 21


def defaulted_parameters() -> int:
    """Defaulted parameters, positional and keyword-only, of every function or
    method in the package whose name does not start with an underscore."""
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def cli_options() -> int:
    """Options, not positionals and not -h, of every subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sum(
        1
        for parser in sub.choices.values()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def test_defaulted_parameters_do_not_grow():
    assert defaulted_parameters() <= DEFAULTED_PARAMETERS_MAX


def test_cli_options_do_not_grow():
    assert cli_options() <= CLI_OPTIONS_MAX
