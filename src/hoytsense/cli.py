"""Command-line front end.

Subcommands
-----------
point     evaluate one metric at one parameter point and print a CSV row
sweep     emit CSV curve families over a (q, mean-SNR dB) grid
roc       trace the fading-averaged ROC at fixed parameters
validate  run the executable validation suites (including the errata report)

The library works in linear SNR throughout; the flags take decibels
(mean_snr = 10**(db/10)).  All CSV output uses the fixed header
``snr_db,q,u,metric,method,value,est_error`` with UTF-8 text, LF line
endings, and floats rendered at 17 significant digits.

Exit codes: 0 success, 1 validation-suite failure, 2 usage error (a dB
value past double range included, and an --out that cannot be written,
which is refused before any row is computed), 3 numerical
non-convergence (sweeps annotate the failing rows with ``nan`` and keep
going, then exit 3 at the end).

``point`` and ``sweep`` build every row through ``_eval_row``.  The table
``_ROUTES`` lists each sweepable metric's routes in ``--method all`` order,
the default first; ``series`` is taken only when named.  ``point`` runs the
default route, and without --q (or at zero SNR for pd) it passes the
unfaded detector's linear SNR, which takes the fixed-SNR closed route.

``main(argv)`` may be called many times in one process (a curve family
over a grid is one call per request); it builds the argument parser on the
first call and reuses that one parser after it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple, Union

from . import average, detector, montecarlo
from . import validate as validation
from .detector import DetectorConfig
from .hoyt import _Q_MIN, HoytFading, db_to_linear
from .montecarlo import McConfig
from .quadrature import EvalPolicy, QuadratureError
from .specfun import ConvergenceError

__all__ = ["main", "CSV_HEADER"]

CSV_HEADER = ("snr_db", "q", "u", "metric", "method", "value", "est_error")

# one CSV row: (snr_db, q, u, metric, method, value, est_error); "%.17g"
# writes a float as format(x, ".17g") does, nan, inf and -0.0 included
Row = Tuple[float, float, float, str, str, float, float]
_ROW_FORMAT = "%.17g,%.17g,%.17g,%s,%s,%.17g,%.17g\n"

_SWEEP_METRICS = ("auc", "cauc", "pd", "pf", "roc")
_METHOD_FLAGS = ("closed", "series", "quadrature", "mc", "all")

# each sweepable metric's routes in "--method all" order, the default first;
# pd's closed route is the positive series of average.avg_pd_closed, and pf
# has no fading integral.  auc and cauc also take "series" (any u), but only
# when named
_ROUTES = {
    "auc": ("closed", "quadrature", "mc"),
    "cauc": ("closed", "quadrature", "mc"),
    "pd": ("closed", "quadrature", "mc"),
    "pf": ("closed", "mc"),
}

# a route that gives up on one row writes a failure row (exit 3), not a
# traceback
_ROW_FAILURES = (ConvergenceError, OverflowError, QuadratureError)


class UsageError(ValueError):
    """Semantically invalid flag combination (maps to exit code 2)."""


def _clamp01(x: float, est_error: float) -> float:
    # rounding may carry a value past [0, 1] by its est_error, no further
    if not -est_error <= x <= 1.0 + est_error:  # NaN fails as well
        raise ConvergenceError(f"value {x!r} lies outside [0, 1] by more "
                               f"than its est_error {est_error!r}")
    return min(1.0, max(0.0, x))


def _closed_label(cfg: DetectorConfig) -> str:
    return "closed_integer" if cfg.is_integer else "closed_series"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_q(text: str) -> float:
    q = float(text)
    if not (_Q_MIN <= q <= 1.0):
        raise argparse.ArgumentTypeError(
            f"q must lie in (0, 1] and be at least {_Q_MIN:g}, got {q}")
    return q


def _parse_q_list(text: str) -> Tuple[float, ...]:
    vals = tuple(_parse_q(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise argparse.ArgumentTypeError("q list is empty")
    return vals


def _parse_snr_axis(text: str, allow_range: bool) -> Tuple[float, ...]:
    """A single dB value, or an inclusive 'start:stop:step' grid."""
    if ":" not in text:
        try:
            return (float(text),)
        except ValueError as exc:
            raise UsageError(f"bad snr-db value {text!r}: {exc}") from None
    if not allow_range:
        raise UsageError("this command takes a single --snr-db value")
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"snr-db range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad snr-db range {text!r}: {exc}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError("snr-db range endpoints and step must be finite")
    if step <= 0.0:
        raise UsageError(f"snr-db step must be > 0, got {step}")
    if stop < start:
        raise UsageError("snr-db range must be ascending (stop >= start)")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise UsageError(f"snr-db range {text!r} has too many points")
    count = int(math.floor(span + 1e-9)) + 1
    return tuple(start + k * step for k in range(count))


def _linear_snr(db: float) -> float:
    """The linear SNR of a dB value; past double range it is a usage error."""
    try:
        return db_to_linear(db)
    except OverflowError:
        raise UsageError(f"snr-db {db} lies past double range") from None


def _parse_policy(text: str) -> EvalPolicy:
    try:
        return EvalPolicy(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _preprocess_argv(argv: Sequence[str]) -> List[str]:
    # glue values that begin with '-' (negative dB, '-inf', '-5:30:1')
    # onto their flag so argparse does not read them as option names
    glued = ("--snr-db", "--lambda")
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in glued and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and kept: parse_args returns a fresh
    # Namespace each time, the one shared default (EvalPolicy()) is frozen
    # and the type= callables are pure, so no call sees another's state
    parser = argparse.ArgumentParser(
        prog="hoytsense",
        description="Energy-detection AUC/CAUC over Hoyt fading: closed "
                    "forms, quadrature and Monte-Carlo cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--u", type=float, required=True,
                       help="time-bandwidth product (detector half-DOF)")
        p.add_argument("--rel-tol", dest="policy", type=_parse_policy,
                       default=EvalPolicy(), metavar="REL_TOL",
                       help="relative tolerance for series/quadrature")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: standard output)")

    p_point = sub.add_parser("point", help="single metric evaluation")
    p_point.add_argument("--metric", required=True,
                         choices=("auc", "cauc", "pd", "pf"))
    add_common(p_point)
    p_point.add_argument("--q", type=_parse_q, default=None,
                         help="Hoyt parameter; omit for the unfaded detector")
    p_point.add_argument("--snr-db", default=None,
                         help="SNR in dB (mean SNR when --q is given; "
                              "-inf is accepted as the zero-SNR limit)")
    p_point.add_argument("--lambda", dest="threshold", type=float,
                         default=None, help="detector threshold (pd/pf)")

    p_sweep = sub.add_parser("sweep", help="CSV curve families")
    p_sweep.add_argument("--metric", default="auc", choices=_SWEEP_METRICS)
    p_sweep.add_argument("--method", default=None, choices=_METHOD_FLAGS,
                         help="evaluation route (default: closed)")
    add_common(p_sweep)
    p_sweep.add_argument("--q", type=_parse_q_list, required=True,
                         help="comma-separated Hoyt parameters, e.g. 0.1,0.5,1")
    p_sweep.add_argument("--snr-db", required=True,
                         help="mean-SNR grid in dB: start:stop:step "
                              "(inclusive stop) or a single value")
    p_sweep.add_argument("--lambda", dest="threshold", type=float,
                         default=None, help="detector threshold (pd/pf)")
    p_sweep.add_argument("--trials", type=int, default=1_000_000,
                         help="Monte-Carlo trials per row")
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="Monte-Carlo master seed")

    p_roc = sub.add_parser("roc", help="fading-averaged ROC trace")
    add_common(p_roc)
    p_roc.add_argument("--q", type=_parse_q, required=True)
    p_roc.add_argument("--snr-db", required=True, help="mean SNR in dB")
    p_roc.add_argument("--points", type=int, default=21,
                       help="number of false-alarm grid points (>= 2)")

    p_val = sub.add_parser("validate", help="run validation suites")
    p_val.add_argument("--suite", default="all",
                       choices=("specfun", "detector", "hoyt", "average",
                                "mc", "errata", "all"))
    p_val.add_argument("--trials", type=int, default=None,
                       help="Monte-Carlo trials for the mc suite")
    p_val.add_argument("--seed", type=int, default=None,
                       help="Monte-Carlo master seed for the mc suite")
    return parser


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _check_out(path: Optional[str]) -> None:
    # refuse an --out that cannot be written before any row is computed;
    # the file itself is created or truncated only when the rows are
    # written (_open_sink), so a later usage error leaves it as it was
    if path is None or path == "-":
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write --out: no directory {folder!r}")
    if os.path.isdir(path):
        raise UsageError(f"cannot write --out: {path!r} is a directory")
    target = path if os.path.exists(path) else folder
    if not os.access(target, os.W_OK):
        raise UsageError(f"cannot write --out: {target!r} is not writable")


def _open_sink(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None


def _write_rows(rows: Sequence[Row], path: Optional[str]) -> None:
    # a row's value is a probability unless the row records a failure (nan)
    for row in rows:
        if math.isfinite(row[5]) and not 0.0 <= row[5] <= 1.0:
            raise ValueError(f"row value must lie in [0, 1], got {row[5]}")
    text = ",".join(CSV_HEADER) + "\n" + "".join(
        [_ROW_FORMAT % row for row in rows])
    sink, owned = _open_sink(path)
    try:
        sink.write(text)
    finally:
        if owned:
            sink.close()


def _failure_row(snr_db: float, q: float, u: float, metric: str,
                 method: str, err: Exception) -> Row:
    print(f"hoytsense: row (snr_db={snr_db}, q={q}, metric={metric}, "
          f"method={method}) failed: {err}", file=sys.stderr)
    return (snr_db, q, u, metric, method, math.nan, math.inf)


# ---------------------------------------------------------------------------
# row evaluation
# ---------------------------------------------------------------------------

def _eval_row(metric: str, method: str, cfg: DetectorConfig,
              channel: Union[HoytFading, float, None],
              threshold: Optional[float], policy: EvalPolicy,
              mc: Optional[McConfig]) -> Tuple[float, str, float]:
    """(value, method label, est_error) of one row by the named route.

    channel is a HoytFading, or the linear SNR of the unfaded detector,
    which takes the fixed-SNR closed route.
    """
    if metric in ("pd", "pf"):
        if threshold is None:
            raise UsageError(f"--lambda is required for metric {metric}")
        if method not in _ROUTES[metric]:
            raise UsageError(
                f"metric {metric} supports methods "
                f"{', '.join(_ROUTES[metric])} only")
    if metric == "pf":
        channel = 0.0  # pf is pd at zero SNR, by the same evaluation
    if method == "mc":
        est = (montecarlo.estimate_pd(cfg, channel, threshold, mc)
               if metric in ("pd", "pf")
               else montecarlo.estimate_auc(cfg, channel, mc))
        val, label, err = est.value, "monte_carlo", est.std_error
    elif not isinstance(channel, HoytFading):
        if metric in ("pd", "pf"):
            value, err = detector._pd(cfg, channel, threshold)
            return value, _closed_label(cfg), err
        fixed = detector.auc_awgn if metric == "auc" else detector.cauc_awgn
        mv = fixed(cfg, channel, policy)
        return mv.value, mv.method, mv.est_error
    elif metric == "pd":
        averaged = (average.avg_pd_closed if method == "closed"
                    else average.avg_pd_quadrature)
        mv = averaged(cfg, channel, threshold, policy)
        return mv.value, mv.method, mv.est_error
    elif method == "quadrature":
        mv = average.avg_auc_quadrature(cfg, channel, policy)
        val, label, err = mv.value, mv.method, mv.est_error
    else:
        # the closed forms sum the CAUC: ask for the metric itself
        closed = (average.avg_auc_closed if metric == "auc"
                  else average.avg_cauc_closed)
        mv = closed(cfg, channel, policy,
                    form="series" if method == "series" else "auto")
        return mv.value, mv.method, mv.est_error
    return (1.0 - val if metric == "cauc" else val), label, err


def _row_outcome(metric: str, method: str, cfg: DetectorConfig,
                 f: HoytFading, threshold: Optional[float], policy: EvalPolicy,
                 mc: McConfig) -> Union[Tuple[str, float, float], Exception]:
    # (method label, value, est_error) of one sweep row, or why it failed
    try:
        val, label, err = _eval_row(metric, method, cfg, f, threshold,
                                    policy, mc)
        return label, _clamp01(val, err), err
    except _ROW_FAILURES as exc:
        return exc


def _cmd_sweep(args) -> int:
    metric = args.metric
    snr_grid = _parse_snr_axis(args.snr_db, allow_range=True)
    if metric == "roc":
        raise UsageError("metric roc is not sweepable; "
                         "use the roc subcommand for ROC traces")
    for db in snr_grid:
        if not math.isfinite(db):
            raise UsageError("sweep grids must use finite dB values")

    cfg = DetectorConfig(args.u)
    mc = McConfig(trials=args.trials, master_seed=args.seed)
    method = args.method or _ROUTES[metric][0]
    methods = _ROUTES[metric] if method == "all" else (method,)

    rows: List[Row] = []
    failed = False
    # each method's last outcome: pf has no channel, so its first outcome
    # serves every (q, snr) row of the grid, failures included
    outcomes: dict = {}
    for q in args.q:
        for db in snr_grid:
            f = HoytFading(q, _linear_snr(db))
            for method in methods:
                if metric != "pf" or method not in outcomes:
                    outcomes[method] = _row_outcome(
                        metric, method, cfg, f, args.threshold, args.policy,
                        mc)
                outcome = outcomes[method]
                if isinstance(outcome, Exception):
                    failed = True
                    rows.append(_failure_row(db, q, args.u, metric,
                                             method, outcome))
                else:
                    label, val, err = outcome
                    rows.append((db, q, args.u, metric, label, val, err))
    _write_rows(rows, args.out)
    return 3 if failed else 0


def _cmd_point(args) -> int:
    cfg = DetectorConfig(args.u)
    metric, q = args.metric, args.q
    db, mean = math.nan, None
    if args.snr_db is not None:
        (db,) = _parse_snr_axis(args.snr_db, allow_range=False)
        mean = _linear_snr(db)  # -inf dB is the zero-SNR limit
        if not math.isfinite(mean):
            raise UsageError(f"snr-db {args.snr_db!r} is not usable")
    elif metric != "pf":
        raise UsageError(f"--snr-db is required for metric {metric}")

    row_q = math.nan if q is None else q
    route = _ROUTES[metric][0]
    failed = False
    try:
        if q is not None and mean == 0.0 and metric in ("auc", "cauc"):
            # zero-SNR limit: chance level exactly, any q
            val, label, err = 0.5, _closed_label(cfg), 0.0
        else:
            # at zero SNR pd is pf exactly, any q: the unfaded route
            channel = HoytFading(q, mean) if q is not None and mean else mean
            val, label, err = _eval_row(
                metric, route, cfg, channel, args.threshold, args.policy, None)
        row = (db, row_q, args.u, metric, label, _clamp01(val, err), err)
    except _ROW_FAILURES as exc:
        failed = True
        row = _failure_row(db, row_q, args.u, metric, route, exc)
    _write_rows([row], args.out)
    return 3 if failed else 0


def _cmd_roc(args) -> int:
    """One (pf, pd) row pair per point of an even false-alarm grid.

    Every threshold is inverted first; then the closed series, on one law
    of the averaged Poisson count shared by all points, gives every point's
    averaged Pd.  A point whose threshold or sum fails gets its own two
    nan/inf rows; the other points' rows are those a point alone would
    give.
    """
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    (db,) = _parse_snr_axis(args.snr_db, allow_range=False)
    if not math.isfinite(db):
        raise UsageError("roc needs a finite --snr-db")
    cfg = DetectorConfig(args.u)
    f = HoytFading(args.q, _linear_snr(db))

    n = args.points
    # per point: (threshold, target pf, realized pf), or why it failed
    points: List[Union[Tuple[float, float, float], ArithmeticError]] = []
    for k in range(n):
        target = min(max(k / (n - 1.0), 1e-9), 1.0 - 1e-9)
        try:
            lam = detector.threshold_for_pf(cfg, target)
            points.append((lam, target, detector.pf(cfg, lam)))
        except _ROW_FAILURES as exc:
            points.append(exc)
    lams = [p[0] for p in points if not isinstance(p, ArithmeticError)]
    # each threshold's failure comes back as its entry
    pds = iter(average.avg_pd_closed_curve(cfg, f, lams, args.policy))

    rows: List[Row] = []
    failed = False
    for point in points:
        mv = point if isinstance(point, ArithmeticError) else next(pds)
        try:
            if isinstance(mv, ArithmeticError):
                raise mv
            _, target, realized = point
            pf_err = abs(realized - target)
            pair = [(db, args.q, args.u, "pf", _closed_label(cfg),
                     _clamp01(realized, pf_err), pf_err),
                    (db, args.q, args.u, "pd", mv.method,
                     _clamp01(mv.value, mv.est_error), mv.est_error)]
        except _ROW_FAILURES as exc:
            failed = True
            pair = [_failure_row(db, args.q, args.u, "pf", "closed", exc),
                    _failure_row(db, args.q, args.u, "pd", "closed_series",
                                 exc)]
        rows.extend(pair)
    _write_rows(rows, args.out)
    return 3 if failed else 0


def _cmd_validate(args) -> int:
    lines = validation.run_suite(args.suite, trials=args.trials,
                                 master_seed=args.seed)
    width = max(len(name) for name, _, _ in lines)
    passed = 0
    for name, ok, detail in lines:
        tag = "PASS" if ok else "FAIL"
        passed += ok
        print(f"{tag}  {name:<{width}}  {detail}")
    print(f"-- {passed}/{len(lines)} checks passed "
          f"(suite: {args.suite})")
    return 0 if passed == len(lines) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_preprocess_argv(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    handlers: dict = {"point": _cmd_point, "sweep": _cmd_sweep,
                      "roc": _cmd_roc, "validate": _cmd_validate}
    try:
        _check_out(getattr(args, "out", None))
        return handlers[args.command](args)
    except ValueError as exc:  # UsageError included
        print(f"hoytsense: error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, QuadratureError) as exc:
        print(f"hoytsense: non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
