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


def test_finite_sum_and_quadrature_rows_share_one_tails_build(monkeypatch):
    # the finite sum's weights come from the binomial tails that the
    # quadrature's Poisson nodes read, so the request builds them once
    calls = [_spy(monkeypatch, module, "_binomial_tails")
             for module in (average, detector)]
    code, out = _main("sweep", "--metric", "auc", "--method", "all",
                      "--u", "5", "--q", "0.5", "--snr-db", "10",
                      "--trials", "2000")
    assert code == 0 and out.count("closed_integer") == 1
    assert out.count("quadrature") == 1
    assert calls == [[5.0], []]


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


def _dense_nodes(monkeypatch):
    # the nodes with a nonzero density the quadrature visits, in order
    dense = []
    real_pdf = average.snr_pdf

    def pdf(f, g):
        density = real_pdf(f, g)
        if density != 0.0:
            dense.append(g)
        return density

    monkeypatch.setattr(average, "snr_pdf", pdf)
    return dense


# the detector kernels that give `avg_auc_quadrature` a node's CAUC
_NODE_KERNELS = ("_cauc_poisson", "_cauc_forward", "_cauc_series")


# "laguerre" names the integer-u route, the paper's Laguerre form, which
# the detector sums as a Poisson mixture of binomial tails; a real-u node
# takes the forward loop up to detector._FORWARD_MAX, the series above it
@pytest.mark.parametrize("u, names",
                         [("2.5", ("_cauc_forward", "_cauc_series")),
                          ("5", ("_cauc_poisson",))],
                         ids=["series", "laguerre"])
def test_quadrature_family_computes_each_node_auc_once(monkeypatch, u, names):
    # three fadings at one mean SNR share their nodes: each node with a
    # nonzero density below the exit cut has its CAUC computed once in the
    # request, by one of the node kernels, and none at or past the cut is
    # computed
    dense = _dense_nodes(monkeypatch)
    computed = []

    def spy(real):
        def kernel(table, g, *rest):
            computed.append(g)
            return real(table, g, *rest)
        return kernel

    for name in names:
        monkeypatch.setattr(detector, name, spy(getattr(detector, name)))
    argv = ("sweep", "--metric", "auc", "--method", "quadrature", "--u", u,
            "--q", "0.1,0.5,1", "--snr-db", "10")
    code, out = _main(*argv)
    assert code == 0 and out.count("quadrature") == 3
    cut = average._exit_cut(float(u), EvalPolicy().rel_tol)
    below = {g for g in dense if g < cut}
    assert len(dense) > len(below) > 0
    assert len(computed) == len(set(computed))
    assert set(computed) == below
    # a second request starts empty: nothing outlives cli.main
    first = len(computed)
    assert _main(*argv) == (code, out)
    assert computed[first:] == computed[:first]


@pytest.mark.parametrize("u", [1.0, 5.0, 20.0, 0.7, 2.5, 60.5])
def test_quadrature_est_error_covers_the_exit_nodes(monkeypatch, u):
    # a node past the cut is CAUC 0, off by at most the Chernoff bound on
    # its CAUC, which falls with the SNR: the row's est_error holds the
    # bound at its smallest such node.  Such a node calls neither the
    # density nor a node kernel
    rel_tol = EvalPolicy().rel_tol
    cut = average._exit_cut(u, rel_tol)
    # the cut passes the bound's test, and a node a margin below it fails
    assert detector._cauc_chernoff(u, cut) <= 0.5 * rel_tol
    assert detector._cauc_chernoff(u, cut * (1.0 - 4e-6)) > 0.5 * rel_tol
    nodes, densities, computed = [], [], []
    real_half_line, real_pdf = average.integrate_half_line, average.snr_pdf

    def half_line(f, *args, **kwargs):
        def spy(g):
            nodes.append(g)
            return f(g)
        return real_half_line(spy, *args, **kwargs)

    def pdf(f, g):
        densities.append(g)
        return real_pdf(f, g)

    monkeypatch.setattr(average, "integrate_half_line", half_line)
    monkeypatch.setattr(average, "snr_pdf", pdf)
    for name in _NODE_KERNELS:
        def kernel(table, g, *rest, real=getattr(detector, name)):
            computed.append(g)
            return real(table, g, *rest)
        monkeypatch.setattr(detector, name, kernel)
    for q, db in ((0.1, 6.0), (0.5, 10.0), (1.0, 18.0), (0.3, 50.0)):
        for seen in (nodes, densities, computed):
            seen.clear()
        mv = avg_auc_quadrature(DetectorConfig(u),
                                HoytFading(q, db_to_linear(db)))
        exits = [g for g in nodes if g >= cut]
        assert exits and computed, (u, q, db)
        assert max(densities) < cut and max(computed) < cut, (u, q, db)
        # every node past the cut passes the per-node test too
        assert max(detector._cauc_chernoff(u, g) for g in exits) <= (
            0.5 * rel_tol)
        assert mv.est_error >= detector._cauc_chernoff(u, min(exits)), (
            u, q, db)


# the README quadrature sweep: kernel calls and series terms at most what
# the exit cut, the node tolerance, the forward loop and the map scale
# leave (at u = 2.5, 9,498 peak-walk series calls of 283,241 terms before
# them; at u = 5, 21,562 Poisson sums; with the map scaled by the mean SNR
# rather than by min(mean SNR, exit cut), 7,591 forward calls of 136,382
# terms and 7,914 Poisson sums), and the evaluations (44,544 and 43,392
# with that scale).  A node on the forward loop makes no Chernoff test
@pytest.mark.parametrize("u, calls, terms, evals",
                         [("2.5", 2760, 45619, 20352),
                          ("5", 2830, 0, 20992)])
def test_readme_quadrature_sweep_work_counts(monkeypatch, u, calls, terms,
                                             evals):
    work = {"calls": 0, "terms": 0, "evals": 0}
    forward, chernoff = [], []
    real_forward = detector._cauc_forward
    real_series = detector._cauc_series
    real_poisson = detector._cauc_poisson
    real_chernoff = detector._cauc_chernoff
    real_quadrature = average.avg_auc_quadrature

    def forward_spy(table, g, atol):
        out = real_forward(table, g, atol)
        forward.append(g)
        work["calls"] += 1
        work["terms"] += out[2]
        return out

    def series(*args):
        out = real_series(*args)
        work["calls"] += 1
        work["terms"] += out[2]
        return out

    def poisson(*args):
        work["calls"] += 1
        return real_poisson(*args)

    def chernoff_spy(u, g):
        chernoff.append(g)
        return real_chernoff(u, g)

    def quadrature(*args):
        mv = real_quadrature(*args)
        work["evals"] += mv.terms_used
        return mv

    monkeypatch.setattr(detector, "_cauc_forward", forward_spy)
    monkeypatch.setattr(detector, "_cauc_series", series)
    monkeypatch.setattr(detector, "_cauc_poisson", poisson)
    monkeypatch.setattr(detector, "_cauc_chernoff", chernoff_spy)
    monkeypatch.setattr(average, "avg_auc_quadrature", quadrature)
    code, out = _main("sweep", "--metric", "auc", "--method", "quadrature",
                      "--u", u, "--q", "0.1,0.3,0.5,0.75,1.0", "--snr-db",
                      "-5:30:1")
    assert code == 0 and out.count("quadrature") == 180
    assert 0 < work["calls"] <= calls
    assert work["terms"] <= terms
    assert work["evals"] == evals
    # every real-u node takes the forward loop, and none of them makes a
    # Chernoff test
    assert len(forward) == (work["calls"] if u == "2.5" else 0)
    assert chernoff and not set(forward) & set(chernoff)


def test_node_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(average, "_MEMO_NODES", 64)
    shared = DetectorConfig(2.5)
    memo = shared._table(average._node_caucs, EvalPolicy().rel_tol)
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
