"""`cli.main` hands a named subcommand's argv straight to that command's
parser.  Every command a test or the README pins must parse to the Namespace
the top-level parser gives, and every usage error and --help must exit and
print as it does there."""

import contextlib
import io
import pathlib
import re

import pytest

from hoytsense import cli
from test_cli import POINT_FORMS
from test_golden import GOLDEN

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_COMMANDS = re.findall(r"^hoytsense (.+)$", README.read_text("utf-8"),
                             re.MULTILINE)

COMMANDS = ([command for command, _ in GOLDEN + POINT_FORMS]
            + README_COMMANDS)

# each exits inside argparse: none, an unknown or abbreviated command, a
# top-level or subcommand --help, a bad type, a missing or unknown flag
EXITS = ["", "--help", "-h sweep", "swee --u 2", "wat", "sweep --help",
         "validate -h", "point --metric auc --u 1 --q 2 --snr-db 10",
         "sweep --u 2 --q 0.5", "sweep --u 2 --q 0.5 --snr-db 1 --bogus 3",
         "roc --u 2 --q 0.5 --snr-db 1 extra", "point --metric nope --u 1"]


def _both(command):
    argv = cli._preprocess_argv(command.split())
    parser, _ = cli._build_parser()
    return [_outcome(parser.parse_args, argv),
            _outcome(cli._parse_args, argv)]


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def test_readme_commands_are_found():
    assert len(README_COMMANDS) >= 6


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parses_as_at_the_top_level(command):
    top, direct = _both(command)
    assert top == direct, command
    assert vars(direct[0])["command"] == command.split()[0]


@pytest.mark.parametrize("command", EXITS)
def test_usage_errors_and_help_print_as_at_the_top_level(command):
    top, direct = _both(command)
    assert top[0][0] == "exit" and top == direct, command
