"""One argparse tree serves every main() call in a process.

`cli.main` builds its parser on the first call and keeps it, so callers that
run many requests in one process (curve families over a grid) pay for the
construction once.  These checks pin that the tree is built once and that a
kept parser carries nothing from one call into the next: a usage error or a
--help in between leaves every golden command's bytes as recorded.
"""

import argparse
import contextlib
import hashlib
import io

from hoytsense import cli
from test_golden import GOLDEN

# q=2 fails the --q type check inside argparse: exit 2 with a usage message
USAGE_ERROR = "point --metric auc --u 1 --q 2 --snr-db 10"


def run(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    per_call = []
    for _ in range(3):
        before = len(built)
        assert run("point --metric pf --u 5 --lambda 10")[0] == 0
        per_call.append(len(built) - before)
    # the top-level parser and its four subcommands, then nothing
    assert per_call == [5, 0, 0]


def test_golden_commands_repeat_around_a_usage_error_and_help():
    first = [run(command) for command, _ in GOLDEN]

    code, out, err = run(USAGE_ERROR)
    assert code == 2 and out == ""
    assert "q must lie in (0, 1]" in err
    code, out, _ = run("sweep --help")
    assert code == 0 and out.startswith("usage: hoytsense sweep")

    second = [run(command) for command, _ in GOLDEN]
    for (command, want), a, b in zip(GOLDEN, first, second):
        assert a[0] == b[0] == 0, command
        assert digest(a[1]) == digest(b[1]) == want, command
        assert a[2] == b[2] == "", command
