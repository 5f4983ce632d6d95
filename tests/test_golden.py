"""CLI output pinned byte for byte.

A refactor is done when the README commands print byte-identical CSV; this
turns that rule into a check.  Each command runs in-process and the sha256 of
its stdout must match the hash recorded before the refactors it guards.  The
README's cauc sweep writes to --out; it is run here without it, which prints
the same bytes.  A change that moves a value by one ulp fails here: if it is
meant to, say so in CHANGES.md and record the new hash.
"""

import builtins
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from hoytsense import cli

GOLDEN = [
    # the five README CSV commands
    ("point --metric auc --u 1 --q 0.5 --snr-db 10",
     "b10b04eacc699c814176f2d5d2dc413e847d9796609aede0e1254273501361d0"),
    ("point --metric pf --u 5 --lambda 10",
     "4d93ade1f848d027b931c6f983adaa140f638d91a74643ec3d1006830e6e124f"),
    ("sweep --metric auc --u 5 --q 0.1,0.3,0.5,0.75,1.0 --snr-db -5:30:1",
     "16e1fbd5befeae3f8307c1ec312ec6181cc845de572d44aad0d8849aa0929958"),
    ("roc --u 5 --q 0.5 --snr-db 10 --points 33",
     "51b1a79fdbdfa8f0c13e08f5621c1df75b826bc76d87dcf241a2e9090e9118c6"),
    ("sweep --metric cauc --u 5 --q 0.1,1.0 --snr-db 0:30:1",
     "ad713eda23ac0ee53bfe6ae971561c1b1e085ee98b162bdff7ff9215c0831c28"),
    # the real-u series, a seeded Monte Carlo sweep and a quadrature row
    ("sweep --u 2.5 --q 0.1,0.3,0.5,0.75,1.0 --snr-db -5:30:1",
     "1262f5f6a161c48009b1a74e7e43f83e8cad11da0f80adb827e26e8cba1531b3"),
    ("sweep --metric auc --method mc --u 5 --q 0.5 --snr-db 0:10:5 "
     "--trials 200000 --seed 7",
     "798c5360db5968c1322dfbd28329eec9a40a69f224e48fa6ee2f02a21115ba74"),
    ("sweep --metric cauc --method quadrature --u 2.5 --q 0.4 --snr-db 10",
     "5ae3e1c7293dead9571d5bf0a68ee81bbf01a0b7393a6b4e177dc8ae40046d9e"),
    # quadrature q families, whose fadings at one mean SNR share node AUCs
    ("sweep --metric auc --method quadrature --u 2.5 --q 0.1,0.5,1.0 "
     "--snr-db 0:30:10",
     "b97ff393e8f069ea33c6dfb61f2abf23b53c4c9aff5488db9d23473821c8f5e3"),
    ("sweep --metric cauc --method quadrature --u 5 --q 0.3,1.0 "
     "--snr-db 0:20:10",
     "2bdb327e0ce2d0a624167afac7c2b858550d35f39653d1ccff2e189ee60d8c62"),
    # integer u beyond 5: the finite sum at u = 1, 20 and 100 (below the
    # overflow) and the Poisson node kernel at u = 20
    ("sweep --metric cauc --u 1 --q 0.15,0.85 --snr-db -10:40:5",
     "74ba3a511bca49bc6a18e96e8332df7851bdb27674f728f793a7e5c85734fb92"),
    ("sweep --metric cauc --u 20 --q 0.15,0.85 --snr-db -10:40:5",
     "7b006d0944344a995478e8e35024c543c5baf4603dc60799f9d7a58d221bc39a"),
    ("sweep --metric cauc --u 100 --q 0.3,0.75 --snr-db -10:10:5",
     "dfc0ae0d796cad4fc1188b63d183f735949e53f2ec3dc889c320e129c35548f8"),
    ("sweep --metric auc --method quadrature --u 20 --q 0.8 --snr-db 6",
     "5ef73b9649dc27621af6f117eac044d6105a9cd75670aae42e2e49748e4e2c3c"),
]


@pytest.mark.parametrize("command, digest", GOLDEN,
                         ids=[c.split(" --")[0] + str(i)
                              for i, (c, _) in enumerate(GOLDEN)])
def test_cli_output_is_byte_identical(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


# builtin sum() adds floats with compensation from Python 3.12 on, so a route
# that summed floats with it would print other bytes there.  No route does:
# every non-Monte-Carlo command sums none, and its digest holds on 3.10
# through 3.13
PORTABLE = [command for command, _ in GOLDEN if "--method mc" not in command]


def test_portable_commands_sum_no_floats(monkeypatch):
    real_sum = builtins.sum
    float_sums = []

    def spy(iterable, /, start=0):
        items = list(iterable)
        if any(isinstance(x, float) for x in [start, *items]):
            float_sums.append(items)
        return real_sum(items, start)

    monkeypatch.setattr(builtins, "sum", spy)
    golden = dict(GOLDEN)
    for command in PORTABLE:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(command.split()) == 0
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert digest == golden[command]
        assert float_sums == [], command
    # the spy sees a float sum made through builtins.sum
    assert sum([0.5, 0.25]) == 0.75
    assert float_sums == [[0.5, 0.25]]


# what another interpreter runs: its version, once it has started, then
# the exit code and the sha256 of the stdout of each command, one a line
_DIGESTS = """
import contextlib, hashlib, io, json, sys
print(sys.version.split()[0], flush=True)
from hoytsense import cli
for command in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    print(code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


def test_portable_digests_hold_on_the_other_cpythons():
    # each other CPython from 3.10 to 3.13 on PATH runs every PORTABLE
    # command in one subprocess, the package from src (these routes need
    # no numpy), and prints the GOLDEN bytes.  PYENV_VERSION lets a pyenv
    # shim start the version it is named after; a name that starts no
    # interpreter counts as not found
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    golden = dict(GOLDEN)
    want = [f"0 {golden[command]}" for command in PORTABLE]
    ran = []
    for minor in (10, 11, 12, 13):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        env = dict(os.environ, PYTHONPATH=src, PYENV_VERSION=f"3.{minor}")
        proc = subprocess.run([exe, "-c", _DIGESTS, json.dumps(PORTABLE)],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        if not proc.stdout:
            continue
        version, *rows = proc.stdout.splitlines()
        assert proc.returncode == 0, (version, proc.stderr)
        assert version.startswith(f"3.{minor}.") and len(rows) == len(want)
        assert list(zip(PORTABLE, rows)) == list(zip(PORTABLE, want)), version
        ran.append(version)
    if not ran:
        pytest.skip("no other CPython 3.10 to 3.13 found")
