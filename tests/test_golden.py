"""CLI output pinned byte for byte.

A refactor is done when the README commands print byte-identical CSV; this
turns that rule into a check.  Each command runs in-process and the sha256 of
its stdout must match the hash recorded before the refactors it guards.  The
README's cauc sweep writes to --out; it is run here without it, which prints
the same bytes.  A change that moves a value by one ulp fails here: if it is
meant to, say so in CHANGES.md and record the new hash.
"""

import contextlib
import hashlib
import io

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
     "bab0b3cc977574ba2c2805b73f182c18cb68f26b3b1b815d9e8ff302271e8ea3"),
    ("sweep --metric cauc --u 5 --q 0.1,1.0 --snr-db 0:30:1",
     "ad713eda23ac0ee53bfe6ae971561c1b1e085ee98b162bdff7ff9215c0831c28"),
    # the real-u series, a seeded Monte Carlo sweep and a quadrature row
    ("sweep --u 2.5 --q 0.1,0.3,0.5,0.75,1.0 --snr-db -5:30:1",
     "c583321163724d5237cd748571bce7523e21dffb4d469555a893120cdddbeb22"),
    ("sweep --metric auc --method mc --u 5 --q 0.5 --snr-db 0:10:5 "
     "--trials 200000 --seed 7",
     "798c5360db5968c1322dfbd28329eec9a40a69f224e48fa6ee2f02a21115ba74"),
    ("sweep --metric cauc --method quadrature --u 2.5 --q 0.4 --snr-db 10",
     "97ba8ed2246ad972d858099d451ce9e8f18685fe9005e78c901f15f51e327d0a"),
    # quadrature q families, whose fadings at one mean SNR share node AUCs
    ("sweep --metric auc --method quadrature --u 2.5 --q 0.1,0.5,1.0 "
     "--snr-db 0:30:10",
     "793bfbeabf087949b39b97f82a026f70c6eda0c1eb8d8b125904b74af4a47779"),
    ("sweep --metric cauc --method quadrature --u 5 --q 0.3,1.0 "
     "--snr-db 0:20:10",
     "a9db5e71ea42339598cc9c2a7142cfe4ecceacc0d029d598e86e2f7dcb6b5838"),
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
