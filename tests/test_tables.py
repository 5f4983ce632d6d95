"""The tables that depend on u alone, or on u and a threshold: built once
per configuration, so once per CLI request, and every row read from them
is bit-for-bit the row a fresh configuration gives."""

import contextlib
import io
import random

import pytest

from hoytsense import average, cli, detector, specfun
from hoytsense.average import (avg_auc_quadrature, avg_cauc_closed,
                               avg_pd_closed)
from hoytsense.detector import DetectorConfig, threshold_for_pf
from hoytsense.hoyt import HoytFading, db_to_linear
from hoytsense.quadrature import EvalPolicy


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(module, name, spy)
    return calls


def _main(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("u, module, builder",
                         [("2.5", specfun, "beta_increments"),
                          ("5", average, "_binomial_tails")],
                         ids=["series", "finite_sum"])
def test_sweep_builds_each_table_once_per_request(monkeypatch, u, module,
                                                  builder):
    calls = _spy(monkeypatch, module, builder)
    argv = ("sweep", "--metric", "cauc", "--u", u, "--q", "0.1,0.5,1",
            "--snr-db", "-10:60:10")
    code, out = _main(*argv)
    assert code == 0 and out.count("\n") == 1 + 3 * 8
    assert calls == [float(u)]
    # a second request builds its own: nothing outlives cli.main
    assert _main(*argv) == (code, out)
    assert calls == [float(u)] * 2


def test_series_quadrature_and_mc_rows_share_one_beta_table(monkeypatch):
    calls = _spy(monkeypatch, specfun, "beta_increments")
    code, out = _main("sweep", "--metric", "auc", "--method", "all",
                      "--u", "2.5", "--q", "0.5", "--snr-db", "0:10:10",
                      "--trials", "2000")
    assert code == 0 and out.count("closed_series") == 2
    assert out.count("quadrature") == 2 and calls == [2.5]


def _outcome(evaluate):
    # every field by repr, so NaN rows compare too; a failure by its type
    # and message
    try:
        mv = evaluate()
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return repr(mv.value), mv.method, mv.terms_used, repr(mv.est_error)


@pytest.mark.parametrize("u", [0.05, 2.5, 150.5, 499.5, 1.0, 5.0, 100.0,
                               150.0])
def test_table_rows_equal_fresh_rows_in_any_order(u):
    forms = ("auto", "series") if DetectorConfig(u).is_integer else ("auto",)
    points = [(q, db, form, policy)
              for q in (1e-6, 0.1, 0.5, 1.0) for db in range(-10, 61, 10)
              for form in forms
              for policy in (EvalPolicy(), EvalPolicy(rel_tol=5e-14))]
    random.Random(u).shuffle(points)
    shared = DetectorConfig(u)
    outcomes = set()
    for q, db, form, policy in points:
        f = HoytFading(q, db_to_linear(db))
        got = _outcome(lambda: avg_cauc_closed(shared, f, policy, form))
        want = _outcome(lambda: avg_cauc_closed(DetectorConfig(u), f,
                                                policy, form))
        assert got == want, (u, q, db, form, policy)
        outcomes.add(got[0])
    if u == 150.0:  # the finite sum overflows from 30 dB on
        assert "OverflowError" in outcomes
    # the fixed-SNR series on the shared column of betas
    snrs = [0.0, 0.3, 3.0, 30.0, 300.0, 3000.0]
    random.Random(-u).shuffle(snrs)
    for snr in snrs:
        got = _outcome(lambda: detector.auc_awgn_series(shared, snr))
        want = _outcome(lambda: detector.auc_awgn_series(DetectorConfig(u),
                                                         snr))
        assert got == want, (u, snr)


def test_quadrature_rows_on_a_shared_column_equal_fresh_ones():
    # one shared config keeps the beta column and the node AUCs of every
    # (mean SNR, rel_tol) it has seen; shuffled rows read them in any order
    points = [(q, db, policy) for q in (0.1, 0.3, 1.0)
              for db in (0.0, 10.0, 20.0)
              for policy in (EvalPolicy(), EvalPolicy(rel_tol=1e-11))]
    for u in (2.5, 5.0):
        random.Random(u).shuffle(points)
        shared = DetectorConfig(u)
        for q, db, policy in points:
            f = HoytFading(q, db_to_linear(db))
            got = _outcome(lambda: avg_auc_quadrature(shared, f, policy))
            assert got == _outcome(lambda: avg_auc_quadrature(
                DetectorConfig(u), f, policy)), (u, q, db, policy)


@pytest.mark.parametrize("u, module, name",
                         [("2.5", detector, "_auc_series"),
                          ("5", detector, "_auc_laguerre")],
                         ids=["series", "laguerre"])
def test_quadrature_family_computes_each_node_auc_once(monkeypatch, u,
                                                       module, name):
    # three fadings at one mean SNR share their nodes: each node with a
    # nonzero density has its AUC computed once in the request
    dense = []
    real_pdf = average.snr_pdf

    def pdf(f, g):
        density = real_pdf(f, g)
        if density != 0.0:
            dense.append(g)
        return density

    computed = []
    real_auc = getattr(module, name)

    def auc(cfg_or_u, g, *rest):
        computed.append(g)
        return real_auc(cfg_or_u, g, *rest)

    monkeypatch.setattr(average, "snr_pdf", pdf)
    monkeypatch.setattr(module, name, auc)
    argv = ("sweep", "--metric", "auc", "--method", "quadrature", "--u", u,
            "--q", "0.1,0.5,1", "--snr-db", "10")
    code, out = _main(*argv)
    assert code == 0 and out.count("quadrature") == 3
    assert len(dense) > len(computed) == len(set(computed))
    assert set(computed) == set(dense)
    # a second request starts empty: nothing outlives cli.main
    first = len(computed)
    assert _main(*argv) == (code, out)
    assert computed[first:] == computed[:first]


def test_node_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(average, "_MEMO_NODES", 64)
    shared = DetectorConfig(2.5)
    memo = shared._table(average._node_aucs, EvalPolicy().rel_tol)
    for q in (0.1, 0.5, 1.0):
        for db in (0.0, 10.0):
            f = HoytFading(q, db_to_linear(db))
            got = _outcome(lambda: avg_auc_quadrature(shared, f))
            assert len(memo) <= 64
            assert got == _outcome(lambda: avg_auc_quadrature(
                DetectorConfig(2.5), f)), (q, db)
    assert len(memo) == 64


@pytest.mark.parametrize("argv", [
    "sweep --metric pd --u 5 --q 0.1,0.5,1 --snr-db -10:30:5 --lambda 20",
    "roc --u 2.5 --q 0.5 --snr-db 10 --points 9"])
def test_pd_rows_build_each_threshold_table_once(monkeypatch, argv):
    # a threshold's gamma increments and its column of Q are built once
    # per request (each build calls poisson_increments once), however
    # many rows read them
    calls = []
    real = specfun.poisson_increments

    def spy(s, x, limit):
        calls.append((s, x, limit))
        return real(s, x, limit)

    monkeypatch.setattr(specfun, "poisson_increments", spy)
    code, out = _main(*argv.split())
    assert code == 0 and out.count("closed_series") >= 9
    first = len(calls)
    assert 2 <= first == len(set(calls))
    # a second request builds its own: nothing outlives cli.main
    assert _main(*argv.split()) == (code, out)
    assert calls[first:] == calls[:first]


@pytest.mark.parametrize("u", [0.7, 5.0, 60.5])
def test_threshold_table_rows_equal_fresh_rows_in_any_order(u):
    # the miss, the detection sum and 1 - miss, each on one shared config
    # and in shuffled order, against a fresh config per row
    lams = [threshold_for_pf(DetectorConfig(u), pf)
            for pf in (1e-12, 1e-6, 0.01, 0.5)] + [3e4]
    points = [(q, db, lam) for q in (1e-6, 0.1, 0.5, 1.0)
              for db in (-10, 10, 24, 60) for lam in lams]
    random.Random(u).shuffle(points)
    shared = DetectorConfig(u)
    for q, db, lam in points:
        f = HoytFading(q, db_to_linear(db))
        got = _outcome(lambda: avg_pd_closed(shared, f, lam))
        assert got == _outcome(lambda: avg_pd_closed(DetectorConfig(u), f,
                                                     lam)), (u, q, db, lam)
