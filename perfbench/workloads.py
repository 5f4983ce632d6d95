"""Request sets for the four benchmark workloads.

A request is one hoytsense command line, exactly what a user would type
after ``hoytsense``.  Each workload is a fixed design: strata of requests
at set points of u, q, mean SNR and threshold, chosen to cover the north-
star box and to load one group of layers.  The seed moves every q and
threshold by up to 2% and every SNR by up to 0.25 dB, and draws the Monte
Carlo seeds.  It does not move points far: the quadrature's panel doubling
and the series' term count change cost in steps, so wide draws made the
figures of two seeds differ by more than a change worth measuring.  A few
requests are the README's commands, the same for every seed.

Every stratum is either clearly correct or clearly defective at the seed
commit; the design points sit well inside the bands where that holds,
measured against ``reference.py``.  A point on a defect's edge would make
``wrong_frac`` and ``failed_frac`` depend on the seed.  The defective strata
are the seed's known defects inside the north-star box (q in [1e-6, 1],
mean SNR -10..60 dB); they are there so that a fix shows as a falling
fraction.

Only the standard library is used, so the worker that imports this module
carries no scipy in its memory figure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

WORKLOADS = ("curves", "reference", "montecarlo", "selfcheck")

# Per-request CPU-time limits.  A sweep, point or roc request is one
# interactive query: 2 s is about three times the slowest one the workloads
# send that the seed finishes (the 6-row u=150 finite-sum sweep and the
# u=150 Monte Carlo AUC, 0.5-0.7 s), and it stops the quadrature stall at
# q=1e-6 at a fixed cost.  A validation suite is a batch of checks: 10 s
# is almost three times the slowest suite (average, ~3.5 s).
ROW_LIMIT_S = 2.0
SUITE_LIMIT_S = 10.0

# u -> energy threshold with pf = 1e-12 (scipy.special.gammainccinv);
# +-2 around it keeps pf within 4e-13 .. 3e-12
_PF_1E12 = {1: 55.26, 2: 62.2, 3: 68.1, 5: 78.47, 8: 92.16, 12: 108.57,
            20: 138.15}

SUITES = ("specfun", "detector", "hoyt", "average", "mc", "errata")


@dataclass(frozen=True)
class Request:
    """One command line and the number of CSV rows it must print.

    rows is None for validate, whose check count the suite decides.
    """

    argv: tuple
    rows: Optional[int]
    stratum: str

    @property
    def limit_s(self) -> float:
        return SUITE_LIMIT_S if self.argv[0] == "validate" else ROW_LIMIT_S

    @property
    def monte_carlo(self) -> bool:
        """Whether the request takes the Monte Carlo route."""
        return ("--method", "mc") in zip(self.argv, self.argv[1:])


def _g(x: float) -> str:
    return format(x, ".4g")


def _grid(start: float, stop: float, step: float) -> tuple:
    """The argv text and point count of an inclusive dB grid."""
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return f"{_g(start)}:{_g(stop)}:{_g(step)}", count


def _sweep(stratum: str, metric: str, u: float, qs: List[float], snr: str,
           points: int, *extra: str) -> Request:
    argv = ("sweep", "--metric", metric, "--u", _g(u),
            "--q", ",".join(_g(q) for q in qs), "--snr-db", snr) + extra
    return Request(argv, len(qs) * points, stratum)


def _point(stratum: str, metric: str, u: float, q: float, db: str) -> Request:
    argv = ("point", "--metric", metric, "--u", _g(u), "--q", _g(q),
            "--snr-db", db)
    return Request(argv, 1, stratum)


def _jq(rng: random.Random, q: float) -> float:
    """q moved by up to 2%, kept inside (0, 1]."""
    return float(_g(min(1.0, q * rng.uniform(0.98, 1.02))))


def _jdb(rng: random.Random, db: float) -> str:
    return _g(db + rng.uniform(-0.25, 0.25))


def _threshold(rng: random.Random, u: float, c: float) -> str:
    # energy threshold 2u + c*sqrt(4u): c = 1..2 gives pf ~0.2 .. ~0.03
    return _g(2.0 * u + c * rng.uniform(0.98, 1.02) * math.sqrt(4.0 * u))


# the reference routes cost more as q falls and as SNR rises; request k
# takes q point k % 3 and SNR point k % 4, so twelve requests cover the grid
_Q_POINTS = (0.07, 0.3, 0.8)
_SNR_POINTS = (-5.0, 6.0, 18.0, 30.0)


def _q_snr(rng: random.Random, k: int) -> tuple:
    return [_jq(rng, _Q_POINTS[k % 3])], _jdb(rng, _SNR_POINTS[k % 4])


# commands from the README and the ROADMAP baselines, the same for every seed
_README_SWEEP = ("sweep", "--metric", "auc", "--u", "5",
                 "--q", "0.1,0.3,0.5,0.75,1.0", "--snr-db", "-5:30:1")


def curves(rng: random.Random) -> List[Request]:
    """Closed-route families: integer-u finite sum beside real-u series."""
    out = [Request(("point", "--metric", "auc", "--u", "1", "--q", "0.5",
                    "--snr-db", "10"), 1, "readme"),
           Request(_README_SWEEP, 180, "readme"),
           Request(_README_SWEEP[:4] + ("2.5",) + _README_SWEEP[5:], 180,
                   "readme")]
    for k, u in enumerate((1, 3, 6, 10, 15, 20, 30, 40)):
        # finite sum, O(u^2) per row and flat in SNR: correct up to 40 dB
        start = -10.0 + rng.choice((0.0, 0.5, 1.0, 1.5, 2.0))
        snr, n = _grid(start, start + 47.5, 2.5)  # 20 points
        out.append(_sweep("int_small", ("auc", "cauc")[k % 2], u,
                          [_jq(rng, q) for q in (0.15, 0.5, 0.85)], snr, n))
    for k, u in enumerate((100, 120, 135, 150)):
        # correct to 10 dB; u=150 overflows from 20-25 dB on
        out.append(_sweep("int_large", ("cauc", "auc")[k % 2], u,
                          [_jq(rng, q) for q in (0.3, 0.75)], "-10:10:10", 3))
    for k, u in enumerate((0.5, 1.5, 2.5, 4.2, 7.3, 10.1, 12.7)):
        # series, O(SNR) per row: correct to 30 dB
        out.append(_sweep("real_series", ("auc", "cauc")[k % 2], u,
                          [_jq(rng, q) for q in (0.25, 0.75)], "-10:30:5", 9))
    for k, (u, q, db) in enumerate(((8, 0.7, 0.0), (7.3, 0.9, 15.0))):
        out.append(_point("point", ("auc", "cauc")[k % 2], u, _jq(rng, q),
                          _jdb(rng, db)))
    # defects at the box corners
    for q in (0.35, 0.7):  # finite sum OverflowError, exit 3
        out.append(_sweep("u150_overflow", "cauc", 150, [_jq(rng, q)],
                          "25:40:5", 4))
    out.append(_sweep("u50_nan", "cauc", 50, [_jq(rng, 1.5e-6)],
                      "-10:20:10", 4))  # finite sum prints NaN, exit 0
    for u in (2, 7.3):  # 1 - w*w cancels: errors 1e1..1e4 times tolerance
        out.append(_sweep("small_q", "auc", u,
                          [_jq(rng, 1.1e-6), _jq(rng, 1.4e-6)], "-10:10:5", 5))
    return out


def reference(rng: random.Random) -> List[Request]:
    """Quadrature averages, fading-averaged Pd and ROC traces."""
    out = [Request(("roc", "--u", "5", "--q", "0.5", "--snr-db", "10",
                    "--points", "33"), 66, "readme")]
    # five more like it: the slowest tenth of the executions is then one
    # block of like requests, and the tail percentile falls inside it
    for q, db in ((0.4, 8.0), (0.5, 12.0), (0.6, 10.0), (0.45, 9.0), (0.55, 11.0)):
        out.append(Request(("roc", "--u", "5", "--q", _g(_jq(rng, q)), "--snr-db",
                            _jdb(rng, db), "--points", "33"), 66, "roc_33"))
    for k in range(24):
        u = (1, 2.5, 4, 7.3, 10, 20)[k % 6]
        out.append(_sweep("avg_quadrature", ("auc", "cauc")[k % 2], u,
                          *_q_snr(rng, k), 1, "--method", "quadrature"))
    for k in range(16):
        u = (1.5, 3, 5.5, 8, 12.7, 16, 0.7, 20)[k % 8]
        out.append(_sweep("avg_pd", "pd", u, *_q_snr(rng, k), 1,
                          "--lambda", _threshold(rng, u, (1.0, 1.5, 2.0)[k % 3])))
    # a q family at one (u, SNR), ~9.5 ms each: the median of the
    # executions lands inside this block of like requests, not in a gap
    # between cost classes that the seed's draws move it across
    for k, q in enumerate((0.28, 0.29, 0.3, 0.31, 0.32, 0.33, 0.34, 0.35,
                           0.36, 0.37)):
        out.append(_sweep("q_family", ("auc", "cauc")[k % 2], 2.5,
                          [_jq(rng, q)], _jdb(rng, 30.0), 1,
                          "--method", "quadrature"))
    for k in range(8):
        u = (2.5, 5, 12.7, 20)[k % 4]
        qs, db = _q_snr(rng, k)
        argv = ("roc", "--u", _g(u), "--q", _g(qs[0]), "--snr-db", db,
                "--points", "5")
        out.append(Request(argv, 10, "roc"))
    # defects at the box corners
    qs, _ = _q_snr(rng, 1)
    out.append(_sweep("quadrature_60db", "cauc", 5, qs, "60", 1,
                      "--method", "quadrature"))  # AUC 1 with est_error 0
    out.append(_sweep("pd_60db", "pd", 5, qs, "60", 1,
                      "--lambda", _threshold(rng, 5, 1.5)))
    out.append(_sweep("quadrature_small_q", "auc", 5, [1e-6], _jdb(rng, 5.0),
                      1, "--method", "quadrature"))  # stalls: hits the limit
    return out


def montecarlo(rng: random.Random) -> List[Request]:
    """Monte Carlo rows for auc, cauc, pd and pf at the CLI's 1e6 trials."""
    out = [Request(("sweep", "--metric", "auc", "--method", "mc", "--u", "5",
                    "--q", "0.5", "--snr-db", "10"), 1, "readme")]

    def seeded(stratum, metric, u, q, db, *extra):
        return _sweep(stratum, metric, u, [q], db, 1, "--method", "mc",
                      "--seed", str(rng.randrange(1 << 32)), *extra)

    def mc(stratum, metric, u, k, *extra):
        # q = 1e-6 is in the box.  Up to 14 dB only: beyond ~30 dB the
        # seed's standard error understates the AUC spread, and MC_K would
        # flag rows at random.
        q = 1e-6 if k % 3 == 0 else _jq(rng, 0.5)
        return seeded(stratum, metric, u, q, _jdb(rng, (-8.0, 2.0, 12.0)[k % 3]),
                      *extra)

    for k, u in enumerate((0.5, 2.5, 5, 20, 75, 150)):
        out.append(mc("mc_auc", ("auc", "cauc")[k % 2], u, k))
    for k, u in enumerate((0.05, 1, 3.3, 10, 60, 500)):
        out.append(mc("mc_pd", "pd", u, k,
                      "--lambda", _threshold(rng, u, (1.0, 1.5, 2.0)[k % 3])))
    for k, u in enumerate((0.7, 4, 30, 200)):  # fixed-SNR path: no fading draws
        out.append(mc("mc_pf", "pf", u, k,
                      "--lambda", _threshold(rng, u, (1.0, 1.5, 2.0)[k % 3])))
    # Three scans of like requests: pf (~55 ms each) and pd (~135 ms) over
    # thresholds, AUC (~500 ms) over q.  Sized so that the median of the
    # executions falls inside the pd scan and the tail percentile inside the
    # AUC rows, not on the edge between two costs, where the few executions
    # of single rows would decide it.
    q, db = _jq(rng, 0.5), _jdb(rng, 2.0)
    for c in (1.0, 1.2, 1.4, 1.6, 1.8, 2.0):
        out.append(seeded("mc_pf_scan", "pf", 4, q, db,
                          "--lambda", _threshold(rng, 4, c)))
    for c in (1.0, 1.15, 1.3, 1.45, 1.6, 1.75, 1.9, 2.05):
        out.append(seeded("mc_pd_scan", "pd", 3.3, q, db,
                          "--lambda", _threshold(rng, 3.3, c)))
    for qs in (0.3, 0.45, 0.6, 0.75):
        out.append(seeded("mc_auc_scan", "auc", 10, _jq(rng, qs), db))
    # defects: a far-tail pf (true value 4e-13 .. 3e-12, so 1e6 trials see
    # no hit) comes back as 0 with std_error 0; a 16-row family takes ~8 s,
    # four times the row limit
    u = rng.choice(sorted(_PF_1E12))
    out.append(mc("mc_pf_tail", "pf", u, 1,
                  "--lambda", _g(_PF_1E12[u] + rng.uniform(-2.0, 2.0))))
    snr, n = _grid(0.0, 15.0, 5.0)
    out.append(_sweep("mc_family", "cauc", 5,
                      [_jq(rng, q) for q in (0.2, 0.4, 0.6, 0.85)], snr, n,
                      "--method", "mc", "--seed", str(rng.randrange(1 << 32))))
    return out


def selfcheck(rng: random.Random) -> List[Request]:
    """The six validation suites, plus point queries at the box corners.

    Every validate check passes at the seed; the corner points give the
    workload its failed and wrong rows.
    """
    out = [Request(("validate", "--suite", s), None, "validate") for s in SUITES]
    # a block of like finite-sum sweeps (~0.1 s each): with only two
    # rounds of the suites, the median and the tail percentile land inside
    # it, not on one request's repetitions.  Twelve of them, so that the
    # median, which has the fourteen cheaper executions below it, sits
    # near the block's middle and not on its lowest few executions.
    for k, q in enumerate((0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65,
                           0.7, 0.75, 0.8)):
        out.append(_sweep("sweep_u100", ("auc", "cauc")[k % 2], 100,
                          [_jq(rng, q)], "-10:5:5", 4))
    # six eight-q families of the same sweeps (~0.75 s each), between the
    # two ~0.45 s suites and the two of 2-4 s.  The tail percentile has the
    # four executions of the 2-4 s suites beyond it and six of these, so
    # it falls in the middle of this block, not on the slowest few
    # executions of the short sweeps, which noise from other tenants
    # decides.  A request this long is also sampled for the slowdown
    # several times while it runs.
    for k in range(6):
        qs = [_jq(rng, 0.26 + 0.06 * i) for i in range(8)]
        out.append(_sweep("sweep_u100_family", ("auc", "cauc")[k % 2], 100,
                          qs, "-10:5:5", 4))
    out.append(Request(("point", "--metric", "pf", "--u", "5",
                        "--lambda", _threshold(rng, 5, 1.5)), 1, "point"))
    out.append(Request(("point", "--metric", "pd", "--u", "5", "--snr-db",
                        _jdb(rng, 3.0), "--lambda", _threshold(rng, 5, 1.5)),
                       1, "point"))
    for u, db in ((3, 0.0), (9, 10.0)):  # 1 - w*w cancels
        out.append(_point("small_q", "auc", u, _jq(rng, 1.2e-6), _jdb(rng, db)))
    out.append(_point("u50_nan", "cauc", 50, _jq(rng, 1.5e-6),
                      _jdb(rng, 5.0)))  # finite sum prints NaN
    return out


REQUEST_SETS: Dict[str, Callable[[random.Random], List[Request]]] = {
    "curves": curves,
    "reference": reference,
    "montecarlo": montecarlo,
    "selfcheck": selfcheck,
}


def requests(workload: str, seed: int) -> List[Request]:
    """The workload's requests; the same seed gives the same ones."""
    return REQUEST_SETS[workload](random.Random(f"{workload}:{seed}"))
