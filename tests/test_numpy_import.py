"""numpy is loaded by the Monte Carlo route alone, and dataclasses never.

The closed and quadrature routes run on the standard library, so a process
that never draws never pays numpy's import; the package's records are plain
slots classes, so no request pays the import of dataclasses (and of the
inspect module it loads).  Each check starts a fresh interpreter, since this
test process has both modules loaded already.
"""

import json
import subprocess
import sys

# Runs the CLI in-process after each step and prints, per step, its exit
# code, whether numpy is in sys.modules and whether dataclasses is.
PROBE = """
import contextlib, io, json, sys
import hoytsense.cli as cli
def loaded():
    return "numpy" in sys.modules, "dataclasses" in sys.modules
steps = [("import", 0, *loaded())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    steps.append((" ".join(argv), rc, *loaded()))
from hoytsense import montecarlo
steps.append(("bound", 0, montecarlo.np is sys.modules.get("numpy", False)))
print(json.dumps(steps))
"""

CLOSED = [
    ["point", "--metric", "auc", "--u", "1", "--q", "0.5", "--snr-db", "10"],
    ["point", "--metric", "pf", "--u", "5", "--lambda", "10"],
    ["roc", "--u", "5", "--q", "0.5", "--snr-db", "10", "--points", "33"],
    ["sweep", "--metric", "auc", "--method", "quadrature", "--u", "5",
     "--q", "0.5", "--snr-db", "0:10:5"],
    ["validate", "--suite", "detector"],
]
MC = ["sweep", "--metric", "auc", "--method", "mc", "--trials", "1000",
      "--u", "5", "--q", "0.5", "--snr-db", "10"]


def _probe(requests):
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(requests)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_and_quadrature_routes_load_no_numpy():
    steps = _probe(CLOSED)
    for name, rc, numpy_loaded, dataclasses_loaded in steps[:-1]:
        assert rc == 0, name
        assert not numpy_loaded, name
        assert not dataclasses_loaded, name
    # montecarlo.np is still unbound
    assert steps[-1][2] is False


def test_monte_carlo_binds_numpy_on_its_first_draw():
    steps = _probe(CLOSED[:1] + [MC])
    assert [s[2] for s in steps[:2]] == [False, False]
    assert steps[2][1] == 0 and steps[2][2] is True
    assert steps[-1][2] is True  # montecarlo.np is sys.modules["numpy"]
