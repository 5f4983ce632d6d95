"""Judge every row a request printed: ok, failed or wrong.

failed  the row is non-finite (the CLI's exit-3 ``nan,inf`` row, or a NaN
        it printed with exit 0), or its request raised or hit the limit;
wrong   the row is finite but further from the reference than its
        tolerance, or it is a validate FAIL line.

Tolerance of a deterministic row (closed form, quadrature, pf): its own
``est_error`` plus FLOOR.  FLOOR is ten times the CLI's default --rel-tol
applied to a probability of order one.  The real-u series stops when its
tail estimate falls below rel_tol, and its actual error runs to twice that
(1e-10 .. 2e-10 at 0..30 dB), so a floor at rel_tol would flag such rows
at random; every known defect is still ten or more times past this one.
FLOOR also covers the reference's own error (below 1e-13) and the 17-digit
CSV rounding.

Tolerance of a Monte Carlo row: MC_K standard errors plus MC_FLOOR for
rounding.  MC_K is 6 because the seed's Hanley-McNeil standard error
understates the spread of the AUC estimate by up to 1.2x in the bands the
workload draws from (measured over 40 seeds), and by 2.5x near 60 dB,
which the workload therefore leaves out.
"""

from __future__ import annotations

import csv
import io
import math
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import reference

FLOOR = 1e-9
MC_K = 6.0
MC_FLOOR = 1e-15

CSV_HEADER = ["snr_db", "q", "u", "metric", "method", "value", "est_error"]


class MalformedOutput(ValueError):
    """A request printed something the benchmark cannot read."""


@lru_cache(maxsize=None)
def _avg_cauc(u: float, q: float, db: float) -> float:
    return reference.avg_cauc(u, q, 10.0 ** (db / 10.0))


@lru_cache(maxsize=None)
def _avg_pd(u: float, q: float, db: float, lam: float) -> float:
    return 1.0 - reference.avg_miss(u, q, 10.0 ** (db / 10.0), lam)


@lru_cache(maxsize=None)
def _fixed_pd(u: float, db: float, lam: float) -> float:
    return 1.0 - reference.fixed_miss(u, 10.0 ** (db / 10.0), lam)


def _flag(argv: List[str], name: str) -> Optional[float]:
    for i, tok in enumerate(argv):
        if tok == name:
            return float(argv[i + 1])
    return None


def _reference(argv: List[str], row: Dict[str, str], index: int,
               rows: List[Dict[str, str]]) -> float:
    metric = row["metric"]
    u, q, db = float(row["u"]), float(row["q"]), float(row["snr_db"])
    if metric in ("auc", "cauc"):
        cauc = _avg_cauc(u, q, db)
        return cauc if metric == "cauc" else 1.0 - cauc
    if argv[0] == "roc":
        # rows come in (pf, pd) pairs on an even pf grid clipped to (0, 1)
        n = int(_flag(argv, "--points"))
        k = index // 2
        if metric == "pf":
            return min(max(k / (n - 1.0), 1e-9), 1.0 - 1e-9)
        lam = reference.threshold_for_pf(u, float(rows[index - 1]["value"]))
        return _avg_pd(u, q, db, lam)
    lam = _flag(argv, "--lambda")
    if metric == "pf":
        return reference.pf(u, lam)
    if metric == "pd":
        return _fixed_pd(u, db, lam) if math.isnan(q) else _avg_pd(u, q, db, lam)
    raise MalformedOutput(f"no reference for metric {metric!r}")


def _csv_rows(text: str) -> List[Dict[str, str]]:
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != CSV_HEADER:
        raise MalformedOutput(f"bad CSV header: {text[:80]!r}")
    return [dict(zip(CSV_HEADER, line)) for line in lines[1:]]


def _check_lines(text: str) -> List[Tuple[str, str]]:
    checks = []
    for line in text.splitlines():
        tag, _, rest = line.partition("  ")
        if tag in ("PASS", "FAIL"):
            checks.append((tag, rest.split()[0] if rest.split() else ""))
        elif not line.startswith("-- "):
            raise MalformedOutput(f"bad validate line: {line[:80]!r}")
    return checks


def judge(rec: Dict) -> List[Dict]:
    """One verdict per row the request was due to print.

    A verdict is {"verdict": ok|failed|wrong, ...} with the row, its
    reference and tolerance, so a failed or wrong row can be listed with
    its parameters and route.
    """
    argv = rec["argv"]
    if rec["timed_out"] or rec["raised"]:
        why = "time limit" if rec["timed_out"] else rec["raised"]
        return [{"verdict": "failed", "why": why}] * (rec["rows"] or 1)
    if argv[0] == "validate":
        if rec["rc"] not in (0, 1):
            raise MalformedOutput(f"validate exit code {rec['rc']}")
        return [{"verdict": "ok" if tag == "PASS" else "wrong", "check": name}
                for tag, name in _check_lines(rec["stdout"])]
    if rec["rc"] not in (0, 3):
        raise MalformedOutput(f"exit code {rec['rc']}: {rec['stderr'][:200]}")
    rows = _csv_rows(rec["stdout"])
    if len(rows) != rec["rows"]:
        raise MalformedOutput(f"{len(rows)} rows, expected {rec['rows']}")
    out = []
    for i, row in enumerate(rows):
        value, est = float(row["value"]), float(row["est_error"])
        if not (math.isfinite(value) and math.isfinite(est)):
            out.append({"verdict": "failed", "why": "non-finite row", "row": row})
            continue
        ref = _reference(argv, row, i, rows)
        if row["method"] == "monte_carlo":
            tol = MC_K * est + MC_FLOOR
        else:
            tol = est + FLOOR
        verdict = "ok" if abs(value - ref) <= tol else "wrong"
        out.append({"verdict": verdict, "row": row, "reference": ref,
                    "tolerance": tol})
    return out
