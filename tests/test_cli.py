"""CLI surface: schema, exit codes, determinism, failure annotation."""

import csv
import hashlib
import io
import math
import subprocess
import sys

import pytest

from hoytsense import average, cli, detector, montecarlo
from hoytsense.hoyt import HoytFading
from hoytsense.quadrature import QuadratureError
from hoytsense.specfun import ConvergenceError

HEADER = "snr_db,q,u,metric,method,value,est_error"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == HEADER.split(",")
    return rows[1:]


def test_point_fading_average_example(capsys):
    code, out, _ = run_cli(capsys, "point", "--metric", "auc", "--u", "1",
                           "--q", "0.5", "--snr-db", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == HEADER
    row = lines[1].split(",")
    assert row[3] == "auc" and row[4] == "closed_integer"
    assert float(row[5]) == pytest.approx(0.903774955135062372582, abs=1e-12)


def test_point_false_alarm_example(capsys):
    code, out, _ = run_cli(capsys, "point", "--metric", "pf", "--u", "5",
                           "--lambda", "10")
    assert code == 0
    row = parse_rows(out)[0]
    assert float(row[5]) == pytest.approx(0.4404933, abs=1e-7)
    assert row[0] == "nan" and row[1] == "nan"   # no snr/q in play


def test_point_zero_snr_limit(capsys):
    code, out, _ = run_cli(capsys, "point", "--metric", "auc", "--u", "3",
                           "--q", "0.4", "--snr-db", "-inf")
    assert code == 0
    row = parse_rows(out)[0]
    assert float(row[5]) == 0.5
    code, out, _ = run_cli(capsys, "point", "--metric", "cauc", "--u", "3",
                           "--q", "0.4", "--snr-db", "-inf")
    assert float(parse_rows(out)[0][5]) == 0.5


def test_point_detector_metrics_without_fading(capsys):
    code, out, _ = run_cli(capsys, "point", "--metric", "pd", "--u", "2.5",
                           "--snr-db", "0", "--lambda", "4.41")
    assert code == 0
    row = parse_rows(out)[0]
    # snr-db 0 means snr = 1 (linear); Marcum value, not an average
    from hoytsense.detector import DetectorConfig, pd
    assert float(row[5]) == pytest.approx(pd(DetectorConfig(2.5), 1.0, 4.41),
                                          abs=1e-12)


def test_unfaded_pd_row_within_its_est_error(capsys):
    # 60 dB, a^2/2 = 1e6: the row carries the Marcum Q's own error bound,
    # and the 30-digit Poisson mixture lies within it
    import mp_reference
    code, out, _ = run_cli(capsys, "point", "--metric", "pd", "--u", "5",
                           "--snr-db", "60", "--lambda", "2004000")
    assert code == 0
    row = parse_rows(out)[0]
    value, est_error = float(row[5]), float(row[6])
    want = mp_reference.marcum_q(5.0, math.sqrt(2e6), math.sqrt(2004000.0))
    assert abs(value - want) <= est_error


def test_point_usage_errors(capsys):
    assert run_cli(capsys, "point", "--metric", "pd", "--u", "2",
                   "--snr-db", "3")[0] == 2          # missing --lambda
    assert run_cli(capsys, "point", "--metric", "auc", "--u", "2")[0] == 2
    assert run_cli(capsys, "point", "--metric", "auc", "--u", "2",
                   "--q", "1.5", "--snr-db", "3")[0] == 2
    assert run_cli(capsys, "point", "--metric", "auc", "--u", "-1",
                   "--q", "0.5", "--snr-db", "3")[0] == 2
    # the same q and u checks hold for sweep and roc
    for cmd, snr in (("sweep", "0:10:1"), ("roc", "10")):
        for q, u in (("0", "5"), ("1.5", "5"), ("0.5", "-1")):
            assert run_cli(capsys, cmd, "--u", u, "--q", q,
                           "--snr-db", snr)[0] == 2, (cmd, q, u)


def test_sweep_grid_shape_and_order(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--metric", "auc", "--u", "5",
                           "--q", "0.1,0.3,0.5,0.75,1.0",
                           "--snr-db", "-5:30:1")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 180
    # q outer, snr ascending within each q block
    qs = [row[1] for row in rows]
    assert qs == sorted(qs, key=float)
    for i in range(0, 180, 36):
        block = [float(r[0]) for r in rows[i:i + 36]]
        assert block == sorted(block)
        assert block[0] == -5.0 and block[-1] == 30.0
        assert len({r[1] for r in rows[i:i + 36]}) == 1
    # curves strictly rise with mean SNR
    for i in range(0, 180, 36):
        vals = [float(r[5]) for r in rows[i:i + 36]]
        assert all(y > x for x, y in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_sweep_complement_and_determinism(capsys):
    args = ("sweep", "--metric", "auc", "--u", "2.5", "--q", "0.3,1.0",
            "--snr-db", "0:20:5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2                      # byte-identical, non-MC route
    code3, out3, _ = run_cli(capsys, "sweep", "--metric", "cauc", "--u", "2.5",
                             "--q", "0.3,1.0", "--snr-db", "0:20:5")
    assert code3 == 0
    for a, c in zip(parse_rows(out1), parse_rows(out3)):
        assert float(a[5]) + float(c[5]) == pytest.approx(1.0, abs=1e-16)
        assert c[3] == "cauc"


def test_sweep_mc_seeded_determinism(capsys):
    args = ("sweep", "--method", "mc", "--metric", "auc", "--u", "5",
            "--q", "0.5", "--snr-db", "0:10:5", "--trials", "30000",
            "--seed", "42")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    # a different seed must change the estimates
    code3, out3, _ = run_cli(capsys, *args[:-1], "43")
    assert out3 != out1
    for row in parse_rows(out1):
        assert row[4] == "monte_carlo"
        assert float(row[6]) > 0.0


def test_sweep_method_all_expands_routes(capsys):
    # each metric's routes in order; its default is the first of them
    expanded = {"auc": ["closed_integer", "quadrature", "monte_carlo"],
                "cauc": ["closed_integer", "quadrature", "monte_carlo"],
                "pd": ["closed_series", "quadrature", "monte_carlo"],
                "pf": ["closed_integer", "monte_carlo"]}
    for metric, labels in expanded.items():
        argv = ("sweep", "--metric", metric, "--u", "2", "--q", "0.5",
                "--snr-db", "10", "--lambda", "12", "--trials", "30000",
                "--seed", "1")
        code, out, _ = run_cli(capsys, *argv, "--method", "all")
        assert code == 0, metric
        rows = parse_rows(out)
        assert [r[4] for r in rows] == labels
        vals = [float(r[5]) for r in rows]
        assert max(vals) - min(vals) < 0.01, metric
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, metric
        assert parse_rows(out) == rows[:1], metric


def test_sweep_fractional_u_high_snr_autobudget(capsys):
    # high mean SNR must not exhaust the default term budget of the series
    code, out, _ = run_cli(capsys, "sweep", "--metric", "auc", "--u", "2.5",
                           "--q", "0.1", "--snr-db", "30")
    assert code == 0
    row = parse_rows(out)[0]
    assert row[4] == "closed_series"
    assert 0.97 < float(row[5]) < 1.0


def test_rel_tol_must_be_positive_and_finite(capsys):
    commands = (("point", "--metric", "auc", "--u", "2.5", "--q", "0.5",
                 "--snr-db", "10"),
                ("sweep", "--u", "2.5", "--q", "0.5", "--snr-db", "10"),
                ("roc", "--u", "2.5", "--q", "0.5", "--snr-db", "10"))
    for argv in commands:
        for bad in ("0", "-1e-10", "inf", "nan"):
            assert run_cli(capsys, *argv, "--rel-tol", bad)[0] == 2, (argv,
                                                                       bad)
        assert run_cli(capsys, *argv, "--rel-tol", "1e-8")[0] == 0


def test_point_fractional_u_at_60_db(capsys, monkeypatch):
    # the real-u series at the top of the SNR range: a few dozen terms, not
    # millions, and a CAUC of ~1e-6 inside its est_error of the reference
    import nb_reference as ref  # skips this test when scipy is missing
    seen = []
    closed = average.avg_cauc_closed

    def spy(*args, **kwargs):
        seen.append(closed(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(average, "avg_cauc_closed", spy)
    code, out, _ = run_cli(capsys, "point", "--metric", "cauc", "--u", "2.5",
                           "--q", "0.5", "--snr-db", "60")
    assert code == 0
    (row,) = parse_rows(out)
    assert row[4] == "closed_series"
    want = ref.avg_cauc(2.5, 0.5, 1e6)
    assert abs(float(row[5]) - want) <= float(row[6]) + 1e-15
    assert [mv.terms_used <= 300 for mv in seen] == [True]


def test_readme_sweep_at_fractional_u_within_est_error(capsys):
    # the README curve family with u=2.5, so every row takes the series
    import nb_reference as ref  # skips this test when scipy is missing
    code, out, _ = run_cli(capsys, "sweep", "--metric", "auc", "--u", "2.5",
                           "--q", "0.1,0.3,0.5,0.75,1.0",
                           "--snr-db", "-5:30:1")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 180
    misses = [row for row in rows
              if not abs(float(row[5]) - ref.avg_auc(
                  2.5, float(row[1]), 10.0 ** (float(row[0]) / 10.0)))
              <= float(row[6])]
    assert misses == []


@pytest.mark.parametrize("argv, count", [
    (("--metric", "auc", "--q", "0.1,0.3,0.5,0.75,1.0", "--snr-db", "-5:30:1"),
     180),
    (("--metric", "cauc", "--q", "0.1,1.0", "--snr-db", "0:30:1"), 62),
])
def test_readme_sweep_at_integer_u_within_est_error(capsys, argv, count):
    # the README's u=5 sweeps, where every row takes the finite sum
    import nb_reference as ref  # skips this test when scipy is missing
    code, out, _ = run_cli(capsys, "sweep", "--u", "5", *argv)
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == count
    assert {row[4] for row in rows} == {"closed_integer"}
    misses = []
    for row in rows:
        mean = 10.0 ** (float(row[0]) / 10.0)
        want = (ref.avg_auc if row[3] == "auc" else ref.avg_cauc)(
            5.0, float(row[1]), mean)
        if not abs(float(row[5]) - want) <= float(row[6]):
            misses.append(row)
    assert misses == []


def test_sweep_pd_pf_with_threshold(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--metric", "pd", "--u", "5",
                           "--q", "0.5", "--snr-db", "0:10:10",
                           "--lambda", "15")
    assert code == 0
    rows = parse_rows(out)
    assert all(r[3] == "pd" and r[4] == "closed_series" for r in rows)
    assert float(rows[1][5]) > float(rows[0][5])
    code, out, _ = run_cli(capsys, "sweep", "--metric", "pf", "--u", "5",
                           "--q", "0.5", "--snr-db", "0:10:10",
                           "--lambda", "15")
    rows = parse_rows(out)
    # false alarm ignores the channel: identical value on every row
    assert len({r[5] for r in rows}) == 1


def test_pf_sweep_evaluates_once_per_method(capsys, monkeypatch):
    # pf reads no channel: each method runs once for the whole grid, and
    # every (q, snr) row repeats its outcome, a failure with its own
    # stderr line
    counts = {"closed": 0, "mc": 0}
    pf, estimate_pd = detector.pf, montecarlo.estimate_pd

    def counting_pf(*args):
        counts["closed"] += 1
        return pf(*args)

    def counting_mc(*args):
        counts["mc"] += 1
        return estimate_pd(*args)

    monkeypatch.setattr(detector, "pf", counting_pf)
    monkeypatch.setattr(montecarlo, "estimate_pd", counting_mc)
    argv = ("sweep", "--metric", "pf", "--method", "all", "--q", "0.5,1",
            "--snr-db", "0:10:5", "--trials", "1000", "--seed", "3")
    code, out, _ = run_cli(capsys, *argv, "--u", "2.5", "--lambda", "12")
    rows = parse_rows(out)
    assert code == 0 and counts == {"closed": 1, "mc": 1} and len(rows) == 12
    assert [(r[0], r[1]) for r in rows[::2]] == [
        (db, q) for q in ("0.5", "1") for db in ("0", "5", "10")]
    for method in ("closed_series", "monte_carlo"):
        assert len({tuple(r[4:]) for r in rows if r[4] == method}) == 1
    # lower-gamma series past its term cap: six failure rows, one run
    counts.update(closed=0, mc=0)
    code, out, err = run_cli(capsys, *argv, "--u", "1e8", "--lambda", "2e8")
    rows = parse_rows(out)
    assert code == 3 and counts == {"closed": 1, "mc": 1}
    failed = [r for r in rows if r[4] == "closed"]
    assert len(failed) == 6 and all(r[5] == "nan" for r in failed)
    assert err.count("stalled") == 6 and "snr_db=10.0, q=1.0" in err


def test_non_finite_threshold_is_a_usage_error(capsys):
    point = ("point", "--u", "5", "--metric")
    sweep = ("sweep", "--metric", "pd", "--u", "5", "--q", "0.5",
             "--snr-db", "10", "--trials", "1000", "--method")
    for bad in ("nan", "inf"):
        for argv in ((*point, "pf"),
                     (*point, "pd", "--q", "0.5", "--snr-db", "10"),
                     (*sweep, "quadrature"), (*sweep, "mc")):
            code, out, err = run_cli(capsys, *argv, "--lambda", bad)
            assert code == 2 and out == "", (argv, bad)
            assert "threshold must be finite" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--metric", "auc", "--method", "quadrature", "--u", "2",
     "--snr-db", "10"),
    ("sweep", "--metric", "auc", "--u", "2.5", "--snr-db", "10"),
    ("sweep", "--metric", "cauc", "--method", "series", "--u", "2",
     "--snr-db", "10"),
    ("sweep", "--metric", "auc", "--method", "mc", "--u", "2",
     "--snr-db", "10", "--trials", "1000"),
    ("sweep", "--metric", "pd", "--method", "quadrature", "--u", "2",
     "--snr-db", "10", "--lambda", "8"),
    ("point", "--metric", "auc", "--u", "2", "--snr-db", "10"),
    ("point", "--metric", "pd", "--u", "2", "--snr-db", "10",
     "--lambda", "8"),
    ("roc", "--u", "2", "--snr-db", "10", "--points", "3"),
], ids=["auc-quadrature", "auc-series", "cauc-series", "auc-mc",
        "pd-quadrature", "point-auc", "point-pd", "roc"])
def test_q_whose_square_leaves_the_normal_range_is_a_usage_error(capsys,
                                                                 argv):
    # below q = 1e-150, q^2 is subnormal or 0: the quadrature divided by
    # zero, the density read 0 where it is 0.242, and the closed AUC drifted
    # from its reference far past its est_error
    for q in ("1e-170", "1e-155", "9.99e-151"):
        code, out, err = run_cli(capsys, *argv, "--q", q)
        assert code == 2 and out == "", (argv, q)
        assert "q must lie in (0, 1] and be at least 1e-150" in err


def test_q_at_its_bound_answers_within_est_error(capsys):
    import nb_reference
    code, out, _ = run_cli(capsys, "point", "--metric", "auc", "--u", "2.5",
                           "--q", "1e-150", "--snr-db", "10")
    row = parse_rows(out)[0]
    want = nb_reference.avg_auc(2.5, 1e-150, 10.0)  # 10 dB
    assert code == 0 and abs(float(row[5]) - want) <= float(row[6])


def test_sweep_usage_errors(capsys):
    base = ("sweep", "--u", "5", "--q", "0.5")
    assert run_cli(capsys, *base, "--snr-db", "0:10:-1")[0] == 2
    assert run_cli(capsys, *base, "--snr-db", "10:0:1")[0] == 2
    assert run_cli(capsys, *base, "--snr-db", "0:10")[0] == 2
    assert run_cli(capsys, *base, "--snr-db", "0:10:1", "--metric", "roc")[0] == 2
    assert run_cli(capsys, "sweep", "--u", "5", "--q", "0,0.5",
                   "--snr-db", "0:10:1")[0] == 2
    assert run_cli(capsys, "sweep", "--u", "5", "--q", "0.5",
                   "--snr-db", "-inf:10:1")[0] == 2
    code, _, err = run_cli(capsys, *base, "--snr-db", "0:10:1",
                           "--metric", "pd", "--method", "series",
                           "--lambda", "3")
    assert code == 2 and "supports methods closed, quadrature, mc" in err
    assert run_cli(capsys, *base, "--snr-db", "0:10:1", "--trials", "0")[0] == 2


def test_sweep_annotates_failed_rows(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(average, "avg_auc_quadrature", boom)
    code, out, err = run_cli(capsys, "sweep", "--metric", "auc", "--method",
                             "quadrature", "--u", "2", "--q", "0.5",
                             "--snr-db", "0:5:5")
    assert code == 3
    rows = parse_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert row[5] == "nan"
        assert row[6] == "inf"
    assert "synthetic failure" in err


def test_quadrature_failures_become_failed_rows(capsys, monkeypatch):
    def give_up(*args, **kwargs):
        raise QuadratureError("synthetic quadrature failure")

    monkeypatch.setattr(average, "avg_auc_quadrature", give_up)
    monkeypatch.setattr(average, "avg_pd_quadrature", give_up)
    # pd's default route and roc's only one: its per-threshold step gives up
    monkeypatch.setattr(average, "_closed_pd", give_up)
    for argv in (("sweep", "--metric", "auc", "--method", "quadrature",
                  "--u", "2", "--q", "0.5", "--snr-db", "0:5:5"),
                 ("point", "--metric", "pd", "--u", "2", "--q", "0.5",
                  "--snr-db", "5", "--lambda", "10"),
                 ("sweep", "--metric", "pd", "--method", "quadrature",
                  "--u", "2", "--q", "0.5", "--snr-db", "5", "--lambda",
                  "10"),
                 ("roc", "--u", "2", "--q", "0.5", "--snr-db", "5",
                  "--points", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        rows = parse_rows(out)
        assert rows and all(row[5:] == ["nan", "inf"] for row in rows)
        assert "synthetic quadrature failure" in err
    # outside a row loop it is a non-convergence exit, not a traceback
    monkeypatch.setattr(cli.validation, "run_suite", give_up)
    assert run_cli(capsys, "validate", "--suite", "average")[0] == 3


def test_quadrature_pd_past_the_window_cap_is_a_failed_row(capsys):
    code, out, err = run_cli(capsys, "sweep", "--metric", "pd", "--method",
                             "quadrature", "--u", "5", "--q", "0.5",
                             "--snr-db", "60", "--lambda", "3e5")
    assert code == 3
    rows = parse_rows(out)
    assert len(rows) == 1 and rows[0][5:] == ["nan", "inf"]
    # at nodes with h = a^2/2 near 1.3e5 Marcum Q is 1e-324 to 7e-273, too
    # large for its Chernoff bound to stand in for it, and specfun._mixture's
    # growth past its Poisson core passes _MAX_TERMS before its tail is
    # below 1e-16 of Q
    assert "failed" in err


def test_closed_pd_with_lambda_far_past_the_term_cap_is_a_value(capsys):
    # lambda/2 - u is ~15,000, past _MAX_TERMS: the miss sums only the band
    # of the threshold's increments there (~2,300 terms), while the law's
    # O(1)-a-step recurrence runs out to it; the quadrature gives
    # 0.98147262927525
    import nb_reference as ref  # skips this test when scipy is missing
    code, out, _ = run_cli(capsys, "point", "--metric", "pd", "--u", "5",
                           "--q", "0.5", "--snr-db", "60", "--lambda",
                           "30000")
    assert code == 0
    ((_, _, _, _, method, value, err),) = parse_rows(out)
    want = ref.avg_pd(5.0, 0.5, 1e6, 30000.0)
    assert method == "closed_series" and abs(want - 0.98147262927525) < 1e-12
    assert abs(float(value) - want) <= float(err) + 1e-15


def test_roc_failure_stays_with_its_point(capsys, monkeypatch):
    # all thresholds share one law of the averaged Poisson count; a failure
    # of the closed series at one threshold fails that point's two rows and
    # leaves the others as they are without it
    argv = ("roc", "--u", "2.5", "--q", "0.5", "--snr-db", "10",
            "--points", "5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    clean = parse_rows(out)
    bad_lam = detector.threshold_for_pf(detector.DetectorConfig(2.5), 0.5)
    closed_pd = average._closed_pd

    def fails_at_bad_lam(law, u, threshold, rel_tol):
        if threshold == bad_lam:
            raise ConvergenceError("synthetic closed-series failure")
        return closed_pd(law, u, threshold, rel_tol)

    monkeypatch.setattr(average, "_closed_pd", fails_at_bad_lam)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    rows = parse_rows(out)
    assert len(rows) == len(clean) == 10
    for index, (row, want) in enumerate(zip(rows, clean)):
        if index in (4, 5):  # the pf = 0.5 point
            assert row[:4] == want[:4] and row[5:] == ["nan", "inf"]
        else:
            assert row == want, index
    assert err.count("synthetic closed-series failure") == 2


@pytest.mark.parametrize("snr_db", ["24", "25"])
def test_roc_where_the_detection_sum_passes_its_cap(capsys, snr_db):
    # u=500, q=1e-6: the law's tail falls by rho ~ 0.998 a term, so the
    # detection sum of Pd < 1/2 at pf = 1e-9 would need more than 10,000
    # terms; Pd is 1 - miss there, and point gives roc's row
    import nb_reference as ref  # skips this test when scipy is missing
    mean = 10.0 ** (float(snr_db) / 10.0)
    code, out, err = run_cli(capsys, "roc", "--u", "500", "--q", "1e-6",
                             "--snr-db", snr_db)
    assert code == 0 and err == ""
    rows = parse_rows(out)
    pd_rows = [row for row in rows if row[3] == "pd"]
    assert len(pd_rows) == 21
    lam = detector.threshold_for_pf(detector.DetectorConfig(500.0), 1e-9)
    assert float(rows[0][5]) == pytest.approx(1e-9, rel=1e-9)
    assert float(pd_rows[0][5]) < 0.5
    code, out, err = run_cli(capsys, "point", "--metric", "pd", "--u", "500",
                             "--q", "1e-6", "--snr-db", snr_db,
                             "--lambda", repr(lam))
    assert code == 0 and err == ""
    (row,) = parse_rows(out)
    assert row == pd_rows[0]
    want = ref.avg_pd(500.0, 1e-6, mean, lam)
    assert abs(float(row[5]) - want) <= float(row[6]) + 1e-15


@pytest.mark.parametrize("argv", [
    "point --metric pd --u 0.05 --q 0.5 --snr-db 10",
    "point --metric pd --u 5 --snr-db 3",
    "sweep --metric pd --method closed --u 0.05 --q 0.5 --snr-db 10",
    "sweep --metric pd --method quadrature --u 0.05 --q 0.5 --snr-db 10",
    "sweep --metric pd --method mc --u 0.05 --q 0.5 --snr-db 10 "
    "--trials 1000",
])
def test_threshold_whose_half_underflows_is_the_zero_threshold(capsys,
                                                               argv):
    # lambda/2 rounds to 0: every pd route takes it as the zero threshold
    # and prints Pd = 1 within its est_error
    code, out, err = run_cli(capsys, *argv.split(), "--lambda", "5e-324")
    assert code == 0 and err == ""
    (row,) = parse_rows(out)
    assert abs(float(row[5]) - 1.0) <= float(row[6])


@pytest.mark.parametrize("u", ["0.7", "2.5", "5", "12.7", "20", "60.5"])
def test_roc_pd_rows_within_est_error_of_reference(capsys, u):
    # every pd row of a 5-point roc against the scipy negative-binomial
    # mixture: 1 - sum_k pi_k P(u + k, lam/2), at the threshold the row's
    # pf point inverts to
    import nb_reference as ref  # skips this test when scipy is missing
    cfg = detector.DetectorConfig(float(u))
    lams = [detector.threshold_for_pf(cfg, min(max(k / 4.0, 1e-9),
                                                1.0 - 1e-9))
            for k in range(5)]
    for q in ("0.07", "0.5", "1"):
        for db in ("-5", "10", "30"):
            code, out, _ = run_cli(capsys, "roc", "--u", u, "--q", q,
                                   "--snr-db", db, "--points", "5")
            assert code == 0
            pds = [row for row in parse_rows(out) if row[3] == "pd"]
            assert len(pds) == 5
            for lam, row in zip(lams, pds):
                want = ref.avg_pd(float(u), float(q), 10.0 ** (float(db) / 10.0),
                                  lam)
                assert abs(float(row[5]) - want) <= float(row[6]) + 1e-12, (
                    q, db, lam)


def test_point_out_of_range_rows_fail(capsys):
    # the real-u series stops at its Chernoff bound near snr 708, and the
    # folded Laguerre sum stays finite up to u = 500; a tolerance below
    # every bound sums the window past exp(-snr) underflow: all three rows
    # answer within est_error of the reference
    import nb_reference as ref  # skips this test when scipy is missing
    for argv in (("--u", "200.5", "--snr-db", "29.03"),
                 ("--u", "200.5", "--snr-db", "29.03", "--rel-tol", "1e-300"),
                 ("--u", "400", "--snr-db", "27")):
        code, out, _ = run_cli(capsys, "point", "--metric", "auc", *argv)
        assert code == 0, argv
        (row,) = parse_rows(out)
        want = ref.cauc(float(argv[1]), 10.0 ** (float(argv[3]) / 10.0))
        assert abs((1.0 - float(row[5])) - want) <= float(row[6]), argv
    # the Laguerre overflow outside the box: a failed row and exit 3, not
    # 0 or nan
    code, out, err = run_cli(capsys, "point", "--metric", "auc",
                             "--u", "1000", "--snr-db", "10")
    assert code == 3
    (row,) = parse_rows(out)
    assert row[4:] == ["closed", "nan", "inf"]
    assert "failed" in err


@pytest.mark.parametrize("argv", [
    ("point", "--metric", "auc", "--u", "500", "--snr-db", "17"),
    ("sweep", "--method", "quadrature", "--u", "500", "--q", "1",
     "--snr-db", "20"),
    ("sweep", "--method", "quadrature", "--u", "200.5", "--q", "1",
     "--snr-db", "27"),
])
def test_large_u_rows_answer(capsys, argv):
    # u = 500 overflowed the Laguerre sum from snr 31.5 on, and nodes past
    # snr 708 made the u = 200.5 quadrature raise
    import nb_reference as ref  # skips this test when scipy is missing
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (row,) = parse_rows(out)
    u, snr = float(row[2]), 10.0 ** (float(row[0]) / 10.0)
    want = (ref.cauc(u, snr) if row[1] == "nan"
            else ref.avg_cauc(u, float(row[1]), snr))
    assert abs((1.0 - float(row[5])) - want) <= float(row[6])


@pytest.mark.parametrize("u", ["1", "5", "20", "2.5", "150.5"])
def test_closed_cauc_rows_to_full_relative_precision(capsys, u):
    # the closed forms sum the CAUC, so the row keeps its digits where the
    # AUC rounds to 1; the series needs a tolerance to match
    import nb_reference as ref  # skips this test when scipy is missing
    code, out, _ = run_cli(capsys, "sweep", "--metric", "cauc", "--u", u,
                           "--q", "1e-3,0.1,1", "--snr-db", "40:60:5",
                           "--rel-tol", "1e-14")
    assert code == 0
    for row in parse_rows(out):
        want = ref.avg_cauc(float(u), float(row[1]),
                            10.0 ** (float(row[0]) / 10.0))
        assert abs(float(row[5]) - want) <= 1e-13 * want, row
    if u == "1":
        code, out, _ = run_cli(capsys, "point", "--metric", "cauc", "--u", "1",
                               "--q", "1", "--snr-db", "60")
        (row,) = parse_rows(out)
        want = ref.avg_cauc(1.0, 1.0, 1e6)
        assert abs(float(row[5]) - want) <= 1e-15 * want


def test_method_series_matches_the_finite_sum_at_integer_u(capsys):
    rows = {}
    for method in ("series", "closed"):
        code, out, _ = run_cli(capsys, "sweep", "--metric", "auc",
                               "--method", method, "--u", "5",
                               "--q", "1e-3,0.1,0.5,1", "--snr-db", "-10:60:5")
        assert code == 0
        rows[method] = parse_rows(out)
    assert {r[4] for r in rows["series"]} == {"closed_series"}
    assert {r[4] for r in rows["closed"]} == {"closed_integer"}
    for ser, fin in zip(rows["series"], rows["closed"]):
        assert ser[:4] == fin[:4]
        assert (abs(float(ser[5]) - float(fin[5]))
                <= float(ser[6]) + float(fin[6])), (ser, fin)


def test_method_series_answers_where_the_finite_sum_overflows(capsys):
    import nb_reference as ref  # skips this test when scipy is missing
    argv = ("sweep", "--metric", "cauc", "--u", "150", "--q", "0.5",
            "--snr-db", "30")
    code, out, err = run_cli(capsys, *argv, "--method", "closed")
    assert code == 3
    (row,) = parse_rows(out)
    assert row[5:] == ["nan", "inf"]
    assert "u=150, q=0.5, mean_snr=1000.0" in err and "--method series" in err
    code, out, _ = run_cli(capsys, *argv, "--method", "series")
    assert code == 0
    (row,) = parse_rows(out)
    assert row[4] == "closed_series"
    want = ref.avg_cauc(150.0, 0.5, 1000.0)
    assert abs(float(row[5]) - want) <= float(row[6]) + 1e-15


@pytest.mark.parametrize("excess, code", [(0.5, 0), (10.0, 3)])
def test_value_clamped_only_within_est_error(capsys, monkeypatch, excess,
                                             code):
    # a value past 1 by half its est_error is rounding and is clamped; by
    # ten times its est_error it is a failed row
    def past_one(cfg, f, policy=None, form="auto"):
        return detector.MetricValue(1.0 + excess * 1e-12, "closed_integer",
                                    1, 1e-12)

    monkeypatch.setattr(average, "avg_auc_closed", past_one)
    got, out, err = run_cli(capsys, "point", "--metric", "auc", "--u", "2",
                            "--q", "0.5", "--snr-db", "10")
    assert got == code
    (row,) = parse_rows(out)
    if code == 0:
        assert row[5:] == ["1", "9.9999999999999998e-13"]
    else:
        assert row[5:] == ["nan", "inf"] and "est_error" in err


def test_rows_are_probabilities_written_at_17_digits(capsys):
    # a finite value outside [0, 1] is refused before any byte is written;
    # a failure row's nan passes, and each float prints as format(x, ".17g")
    with pytest.raises(ValueError, match=r"row value must lie in \[0, 1\]"):
        cli._write_rows([(0.0, 0.5, 2.0, "auc", "closed_integer", 1.5, 0.0)],
                        None)
    assert capsys.readouterr().out == ""
    rows = [(-0.0, 5e-324, 1e22, "auc", "closed_integer", 0.1, 1 / 3),
            (-math.inf, math.nan, 2.5, "pd", "quadrature", math.nan, math.inf)]
    cli._write_rows(rows, None)
    want = [",".join(x if isinstance(x, str) else format(x, ".17g")
                     for x in row) for row in rows]
    assert capsys.readouterr().out.splitlines() == [HEADER] + want


def test_roc_pairs_schema(capsys):
    code, out, _ = run_cli(capsys, "roc", "--u", "5", "--q", "0.5",
                           "--snr-db", "10", "--points", "5")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 10
    assert [r[3] for r in rows] == ["pf", "pd"] * 5
    pfs = [float(r[5]) for r in rows[0::2]]
    pds = [float(r[5]) for r in rows[1::2]]
    assert pfs == sorted(pfs)
    assert pds == sorted(pds)
    assert pds[-1] > 0.999
    assert run_cli(capsys, "roc", "--u", "5", "--q", "0.5", "--snr-db", "10",
                   "--points", "1")[0] == 2


def test_validate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "validate", "--suite", "specfun")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "8/8 checks passed" in out
    assert run_cli(capsys, "validate", "--suite", "bogus")[0] == 2


def test_out_file_uses_lf_and_utf8(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "sweep", "--metric", "auc", "--u", "2",
                           "--q", "0.5", "--snr-db", "0:5:5",
                           "--out", str(target))
    assert code == 0
    assert out == ""                          # everything went to the file
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == HEADER
    assert raw.endswith(b"\n")


def test_console_entry_point_runs():
    # exercise the installed module entry (same path the console script uses)
    proc = subprocess.run(
        [sys.executable, "-m", "hoytsense.cli", "point", "--metric", "auc",
         "--u", "2", "--q", "1", "--snr-db", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == HEADER


def test_invalid_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2


# point forms that no golden command covers: the unfaded detector, the
# zero-SNR limit with and without --q, and pf, which reads no channel;
# each sha256 is of stdout as recorded before point and sweep shared a
# row evaluator, but the two unfaded pd rows: those were re-recorded when
# they took the Marcum Q's own error bound for est_error (in place of a
# fixed 1e-15, which their old values missed the truth by 7x)
POINT_FORMS = [
    ("point --metric auc --u 2.5 --snr-db 10",
     "5c24103f2986e1319a18bf9a36f737373712cc29f3875d5edc23bcbd9e079a60"),
    ("point --metric cauc --u 2.5 --snr-db 10",
     "969e8df970877fc1069dccffd688e45c5ce29e4ece94db9e0182180088df87cf"),
    ("point --metric pd --u 2.5 --snr-db 10 --lambda 12",
     "3f75490e78f85088da20a417020535af489f7f8310efdcd676d5cc3eaed02a51"),
    ("point --metric auc --u 5 --snr-db 10",
     "19658483ce9054103a6977ad0f4bb8b4b5f52d4c7f5a09b57b04cd2cdc6747bf"),
    ("point --metric cauc --u 5 --snr-db 10",
     "e02d5b22e18330453db80bf6b6a4ff040d81dc48538f9816b3c768ea3a3ecb54"),
    ("point --metric pd --u 5 --snr-db 10 --lambda 12",
     "6ebe7b4e6cfe7a89b709c1940c940c053494e018a14442210cc783ede324bd0c"),
    ("point --metric auc --u 2.5 --snr-db -inf",
     "cb0ea4cc116d2adecff38a06a228d6a0cfd2a18a8c8eb12d14883f72cd4b3765"),
    ("point --metric auc --u 2.5 --q 0.4 --snr-db -inf",
     "3ecb01bc14a26b8bc466f8f508a66c5403d7724139314b713e3766f0ab2ff50a"),
    ("point --metric cauc --u 2.5 --snr-db -inf",
     "02db5389e4aaee8a6fbde852d097ae306de7224d1716f83f6eecde7b706d8574"),
    ("point --metric cauc --u 2.5 --q 0.4 --snr-db -inf",
     "e06a2927fe48485e0ab800de6fc86e32e1fbcc01a0fab9aa1b10e663bf72c6f5"),
    ("point --metric pd --u 2.5 --snr-db -inf --lambda 12",
     "4733c513f5e35dbbc93f7dbd5ba8c4389f651c98ff1398a1523bece6388db690"),
    ("point --metric pd --u 2.5 --q 0.4 --snr-db -inf --lambda 12",
     "76e3e5f35600524acc85bb90c2d2cba3d9a93f27f0b7d3b95fc6d70c799c704c"),
    ("point --metric auc --u 5 --snr-db -inf",
     "807aa5a08537b76c71cfd64948e3e845fc6c84ae8c5dcd33845c75f057d16dfc"),
    ("point --metric auc --u 5 --q 0.4 --snr-db -inf",
     "959d18e52333c77e091c041bf582b3edd9aa2c2028d5f1b8f2e90e537dafa59a"),
    ("point --metric cauc --u 5 --snr-db -inf",
     "cf14740509e30b25a1c46ff93d029d7e615bb223b51e73f931c92a3011df910c"),
    ("point --metric cauc --u 5 --q 0.4 --snr-db -inf",
     "50ce5850f84df53e246cf334387a3645883f2660ccd506e193cf3ffcf22458a9"),
    ("point --metric pd --u 5 --snr-db -inf --lambda 12",
     "9da8129772e303fd8d6ffd12802a2614e7d38fd61fc5b602f406a693b4ac5554"),
    ("point --metric pd --u 5 --q 0.4 --snr-db -inf --lambda 12",
     "9bb10291ef68622f70b0d57462ccce6d27bfb9699d2c66198790eb623db186e9"),
    ("point --metric pf --u 2.5 --lambda 12",
     "560df0cdf13ecaf865eb6362fc66936c83e7238d35dd258c045d617ed77472e6"),
    ("point --metric pf --u 2.5 --q 0.4 --lambda 12",
     "fd1a87404675243ecbd01abf8fc8c96f2ff67e11fe7a9c74dc02d10208c322ad"),
    ("point --metric pf --u 2.5 --snr-db 10 --lambda 12",
     "9ec819124a04a783c8a34034b9f97b30247d6ae9cf4949eb2454025030df40e7"),
    ("point --metric pf --u 2.5 --q 0.4 --snr-db 10 --lambda 12",
     "e39a0f36eb5ae087aa1a187c921b4b01c63a4010f7872f95b6b2298ac5a15422"),
    ("point --metric pf --u 5 --lambda 12",
     "b91b1127ff2582d7baace9680f1f0f294faf83df3819426fe708bf90a59415e2"),
    ("point --metric pf --u 5 --q 0.4 --lambda 12",
     "bbe6fc4329587a8732439e372664161a8cbcedf4db44120040eed85b2103067f"),
    ("point --metric pf --u 5 --snr-db 10 --lambda 12",
     "763e4a397ccfa848c2ef11b8755bb4b091a3b4effb3a6f1074eb23d4a2492f6a"),
    ("point --metric pf --u 5 --q 0.4 --snr-db 10 --lambda 12",
     "1c7671d23a68a55e8d3173ba481dc083dc00413a915f2b1361620e3764f6b07b"),
]


@pytest.mark.parametrize("command, digest", POINT_FORMS)
def test_point_forms_are_byte_identical(capsys, command, digest):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("u", ["2.5", "5"])
@pytest.mark.parametrize("metric", ["auc", "cauc", "pd", "pf"])
def test_point_is_the_one_cell_sweep(capsys, metric, u):
    # on a faded channel both commands build the row through one evaluator
    # with the metric's default route
    cell = ("--metric", metric, "--u", u, "--q", "0.4", "--snr-db", "10",
            "--lambda", "12")
    point = run_cli(capsys, "point", *cell)
    sweep = run_cli(capsys, "sweep", *cell)
    assert point[0] == sweep[0] == 0
    assert point[1] == sweep[1]


@pytest.mark.parametrize("argv", [
    "point --metric auc --u 5 --q 0.5 --snr-db 4000",
    "sweep --u 5 --q 0.5 --snr-db 3990:4000:10",
    "roc --u 5 --q 0.5 --snr-db 4000",
    "point --metric auc --u 5 --snr-db 1e300",
    "sweep --u 5 --q 0.5 --snr-db 0:1e300:1e-300",
    "point --metric pf --u 5 --lambda 10 --out {missing}",
])
def test_db_past_double_range_and_unwritable_out_are_usage_errors(
        capsys, tmp_path, argv):
    missing = tmp_path / "no_such_dir" / "x.csv"
    code, out, err = run_cli(capsys, *argv.format(missing=missing).split())
    assert code == 2
    assert out == ""
    assert err.startswith("hoytsense: error: ") and err.count("\n") == 1
    assert not missing.exists()


def test_unwritable_out_is_refused_before_any_row(capsys, monkeypatch,
                                                   tmp_path):
    # an --out in a missing directory, or naming a directory, is a usage
    # error before the Monte Carlo route runs once; no file is created
    calls = []
    estimate_auc = montecarlo.estimate_auc

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_auc(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "estimate_auc", counted)
    argv = ["sweep", "--metric", "auc", "--method", "mc", "--u", "5",
            "--q", "0.5", "--snr-db", "0:10:5", "--trials", "2000", "--out"]
    missing = tmp_path / "no_such_dir" / "x.csv"
    code, out, err = run_cli(capsys, *argv, str(missing))
    assert code == 2 and out == ""
    assert err == f"hoytsense: error: cannot write --out: no directory " \
                  f"{str(missing.parent)!r}\n"
    assert calls == [] and not missing.parent.exists()
    code, _, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 2 and "is a directory" in err and calls == []
    # a writable path: the same command computes its 3 rows and writes them
    good = tmp_path / "x.csv"
    code, out, _ = run_cli(capsys, *argv, str(good))
    assert code == 0 and out == "" and len(calls) == 3
    assert len(good.read_text().splitlines()) == 4


@pytest.mark.parametrize("u", ["1e-300", "1e-13", "9e-13"])
def test_tiny_u_takes_the_series(capsys, u):
    # round(u) is 0 below 1/2: u only counts as an integer near a positive
    # one, so these rows take the series and approach the u -> 0 limit
    # 1 - E[exp(-snr)]/2 = 1 - 1/(2 sqrt(85)) at q = 0.5, 10 dB
    cfg = detector.DetectorConfig(float(u))
    assert not cfg.is_integer
    code, out, _ = run_cli(capsys, "point", "--metric", "auc", "--u", u,
                           "--q", "0.5", "--snr-db", "10")
    assert code == 0
    (row,) = parse_rows(out)
    assert row[4] == "closed_series"
    series = average.avg_auc_closed(cfg, HoytFading(0.5, 10.0),
                                    form="series")
    assert float(row[5]) == series.value
    assert float(row[6]) == series.est_error
    limit = 1.0 - 0.5 / math.sqrt(85.0)
    assert abs(float(row[5]) - limit) <= float(row[6]) + 1e-12
