"""Fixed-SNR detector metrics: frozen references, route agreement, edges.

Frozen AUC references come from a 50-digit mpmath evaluation of the
Poisson-weighted regularized-beta series; they are independent of every
runtime code path here.
"""

import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hoytsense import detector, specfun
from hoytsense.detector import (DetectorConfig, MetricValue, _cauc_chernoff,
                                auc_awgn, auc_awgn_1f1_variant,
                                auc_awgn_series, auc_quadrature, cauc_awgn,
                                pd, pf, roc_points_awgn, threshold_for_pf)
from hoytsense.hoyt import HoytFading
from hoytsense.quadrature import EvalPolicy
from hoytsense.specfun import ConvergenceError, reg_upper_gamma
from hoytsense.validate import _kummer_printed_auc

TIGHT = EvalPolicy(rel_tol=1e-13)

AUC_2_3P7 = 0.885020322133159805646
AUC_5_10 = 0.977425574543835482186
AUC_2P5_5 = 0.922419827233978275635
AUC_7P3_0P5 = 0.54973209382234368873
AUC_1P5_12 = 0.997897937052428680965

# what the defective hypergeometric transcription evaluates to (diagnostic
# only; the values escape [0,1], which is the point)
AUC1F1_PRINTED_2_3 = 5.20396923686311930168
AUC1F1_PRINTED_5_10 = 2830.6395057185681809


def test_config_validation_and_integer_detection():
    assert DetectorConfig(2.0).is_integer
    assert DetectorConfig(2.0 + 5e-13).is_integer   # inside the snap window
    assert not DetectorConfig(2.5).is_integer
    assert not DetectorConfig(2.0 + 1e-9).is_integer
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DetectorConfig(bad)


def test_metric_value_validation():
    mv = MetricValue(0.5, "quadrature", 10, 1e-12)
    assert mv.value == 0.5 and mv.terms_used == 10
    # records are read-only, and compare, print and copy by their fields
    for record, field in ((mv, "value"), (DetectorConfig(5.0), "time_bandwidth"),
                          (HoytFading(0.5, 10.0), "q")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.25)
        assert copy.copy(record) == record and hash(copy.copy(record)) == hash(record)
    assert mv == MetricValue(0.5, "quadrature", 10, 1e-12) != (0.5, "quadrature", 10, 1e-12)
    assert repr(mv) == ("MetricValue(value=0.5, method='quadrature', "
                        "terms_used=10, est_error=1e-12)")
    assert repr(DetectorConfig(5.0)) == "DetectorConfig(time_bandwidth=5.0)"
    MetricValue(0.5, "closed_integer", 0, math.inf)  # inf est_error is legal
    with pytest.raises(ValueError):
        MetricValue(0.5, "magic", 0, 0.0)
    with pytest.raises(ValueError):
        MetricValue(0.5, "quadrature", -1, 0.0)
    with pytest.raises(ValueError):
        MetricValue(0.5, "quadrature", 0, -1e-9)
    with pytest.raises(ValueError):
        MetricValue(0.5, "quadrature", 0, math.nan)


def test_pf_matches_regularized_gamma():
    cfg = DetectorConfig(5.0)
    assert pf(cfg, 10.0) == pytest.approx(0.440493285065212411443, rel=1e-13)
    assert pf(cfg, 0.0) == 1.0
    # strictly decreasing in the threshold
    vals = [pf(cfg, lam) for lam in (0.0, 2.0, 5.0, 10.0, 20.0, 40.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pf(cfg, bad)


def test_pd_matches_marcum_and_reduces_to_pf():
    # frozen Marcum point Q_2.5(1.3, 2.1): snr = 1.3^2/2, threshold = 2.1^2
    cfg = DetectorConfig(2.5)
    assert pd(cfg, 0.845, 4.41) == pytest.approx(0.664290114625566931586,
                                                 rel=1e-13)
    for u in (1.0, 2.5, 5.0):
        c = DetectorConfig(u)
        for lam in (0.5, 3.0, 11.0):
            assert pd(c, 0.0, lam) == pf(c, lam)   # bitwise, by dispatch
            assert pd(c, 4.0, lam) > pf(c, lam)
    with pytest.raises(ValueError):
        pd(cfg, -0.1, 1.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pd(cfg, 1.0, bad)


def test_threshold_solver_round_trip():
    for u in (1.0, 2.5, 5.0, 7.3):
        cfg = DetectorConfig(u)
        lams = []
        for target in (1e-6, 0.01, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6):
            lam = threshold_for_pf(cfg, target)
            assert abs(pf(cfg, lam) - target) < 1e-10
            lams.append(lam)
        # smaller false-alarm targets demand larger thresholds
        assert all(x > y for x, y in zip(lams, lams[1:]))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            threshold_for_pf(DetectorConfig(2.0), bad)


@pytest.mark.parametrize("u", [0.05, 0.1, 0.14])
def test_threshold_solver_near_pf_one_at_small_u(u):
    # the threshold is ~1e-180 at u = 0.05, pf = 1 - 1e-9
    cfg = DetectorConfig(u)
    for target in (1.0 - 1e-9, 1.0 - 1e-12):
        lam = threshold_for_pf(cfg, target)
        assert lam > 0.0
        assert abs(pf(cfg, lam) - target) < 1e-12, (u, target, lam)


_GRID_U = sorted(set(np.geomspace(0.05, 500.0, 31).tolist())
                 | {1.0, 2.0, 3.0, 5.0, 7.3, 150.0, 300.0})
_GRID_PF = sorted(set(np.geomspace(1e-12, 0.5, 14).tolist())
                  | set((1.0 - np.geomspace(1e-12, 0.4, 10)).tolist()))


def test_threshold_solver_relative_accuracy_over_the_grid():
    # an absolute stop leaves small targets percent-level off; the relative
    # one holds every target to its own size
    worst = (0.0, None)
    for u in _GRID_U:
        cfg = DetectorConfig(u)
        for target in _GRID_PF:
            lam = threshold_for_pf(cfg, target)
            rel = abs(pf(cfg, lam) - target) / target
            worst = max(worst, (rel, (u, target)))
    assert worst[0] <= 1e-12, worst


def test_threshold_solver_errors_name_the_inversion(monkeypatch):
    # a pf that never falls to the target runs the bracket past ln(lam) = 700
    monkeypatch.setattr(detector, "pf", lambda cfg, lam: 0.5)
    with pytest.raises(ConvergenceError) as info:
        threshold_for_pf(DetectorConfig(2.0), 0.1)
    msg = str(info.value)
    assert "u=2.0" in msg and "target 0.1" in msg and "pf error 4.000e-01" in msg


def test_threshold_inversion_takes_few_pf_calls(monkeypatch):
    # Newton on the concave log tail from the Wilson-Hilferty start: at
    # most 8 pf calls, each root within 1e-13 of its target; at u = 500 pf
    # is a staircase of ~4.5e-13 steps (the rounding of its exponent,
    # ~3200), so an ulp-wide bracket ends it within a step.  The
    # inversion's last pf is pf at the root, kept on cfg
    calls = []
    real = detector.pf

    def spy(cfg, lam):
        calls.append(lam)
        return real(cfg, lam)

    monkeypatch.setattr(detector, "pf", spy)
    for u in (0.05, 1.0, 5.0, 50.0, 500.0):
        for target in (1.0 - 1e-9, 0.5, 0.1, 1e-3, 1e-6, 1e-12):
            cfg = DetectorConfig(u)
            calls.clear()
            lam = threshold_for_pf(cfg, target)
            assert 1 <= len(calls) <= 8, (u, target, len(calls))
            got = real(cfg, lam)
            limit = 1e-13 if u < 500.0 else 5e-13
            assert abs(got - target) <= limit * target, (u, target)
            assert detector._threshold_and_pf(cfg, target) == (lam, got)
            assert len(calls) <= 8


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_non_finite_snr_is_a_value_error(bad):
    # each entry point rejects the SNR itself, before any series or kernel
    # turns it into a NaN, an overflow or a term-cap failure
    calls = [lambda: pd(DetectorConfig(2.5), bad, 3.0),
             lambda: pd(DetectorConfig(3.0), bad, 3.0),
             lambda: auc_awgn_1f1_variant(DetectorConfig(3.0), bad),
             lambda: auc_quadrature(DetectorConfig(3.0), bad)]
    for u in (2.5, 3.0):
        cfg = DetectorConfig(u)
        calls += [lambda cfg=cfg: auc_awgn(cfg, bad),
                  lambda cfg=cfg: auc_awgn_series(cfg, bad),
                  lambda cfg=cfg: cauc_awgn(cfg, bad)]
    for call in calls:
        with pytest.raises(ValueError, match="snr must be finite"):
            call()


def test_auc_frozen_values_all_routes():
    cases = {(2.0, 3.7): AUC_2_3P7, (5.0, 10.0): AUC_5_10,
             (2.5, 5.0): AUC_2P5_5, (7.3, 0.5): AUC_7P3_0P5,
             (1.5, 12.0): AUC_1P5_12}
    for (u, g), want in cases.items():
        cfg = DetectorConfig(u)
        assert auc_awgn(cfg, g, TIGHT).value == pytest.approx(want, abs=5e-13)
        assert auc_awgn_series(cfg, g, TIGHT).value == pytest.approx(want,
                                                                     abs=5e-13)
        assert auc_quadrature(cfg, g, TIGHT).value == pytest.approx(want,
                                                                    abs=5e-12)
        if cfg.is_integer:
            assert auc_awgn_1f1_variant(cfg, g).value == pytest.approx(
                want, abs=5e-13)


def test_auc_route_metadata():
    mv = auc_awgn(DetectorConfig(3.0), 2.0, TIGHT)
    assert mv.method == "closed_integer"
    mv = auc_awgn(DetectorConfig(2.5), 2.0, TIGHT)
    assert mv.method == "closed_series"
    assert mv.terms_used > 0 and mv.est_error >= 0.0
    mv = auc_quadrature(DetectorConfig(2.0), 2.0, TIGHT)
    assert mv.method == "quadrature" and mv.terms_used > 0


def test_auc_chance_level_at_zero_snr():
    for u in (1.0, 2.0, 5.0, 1.5, 2.5, 7.3):
        assert abs(auc_awgn(DetectorConfig(u), 0.0, TIGHT).value - 0.5) < 1e-14


def test_auc_monotone_and_saturates():
    for u in (1.0, 2.5):
        cfg = DetectorConfig(u)
        vals = [auc_awgn(cfg, g, TIGHT).value for g in
                (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 80.0)]
        assert all(y >= x - 1e-13 for x, y in zip(vals, vals[1:]))
        assert all(0.5 <= v <= 1.0 for v in vals)
    # deep-saturation short circuit returns exactly 1 with a tiny bound
    mv = auc_awgn(DetectorConfig(5.0), 500.0, TIGHT)
    assert mv.value == 1.0 and mv.est_error < 1e-30
    mv = auc_awgn_series(DetectorConfig(2.5), 200.0, TIGHT)
    assert mv.value == 1.0 and mv.est_error < 1e-12


def test_out_of_range_inputs_raise():
    # the Chernoff bound stops the real-u series with AUC 1 near snr 708,
    # and the integer-u Poisson sum has no term above 1; both answer
    # within est_error, and so does the window sum that a tolerance below
    # every bound reaches, past exp(-snr) underflow
    import nb_reference as ref  # skips this test when scipy is missing
    cli, tiny = EvalPolicy(), EvalPolicy(rel_tol=1e-300)
    for u, snr, policy in ((200.5, 730.0, cli), (200.5, 744.0, cli),
                           (200.5, 760.0, cli), (400.0, 500.0, cli),
                           (200.5, 760.0, tiny)):
        mv = auc_awgn(DetectorConfig(u), snr, policy)
        assert abs((1.0 - mv.value) - ref.cauc(u, snr)) <= mv.est_error, u
    # outside the box the CAUC keeps its relative est_error
    import mp_reference  # skips this test when mpmath is missing
    for snr in (10.0, 1000.0):
        want = mp_reference.cauc(1000.0, snr)
        c = cauc_awgn(DetectorConfig(1000.0), snr)
        assert abs(c.value - want) <= c.est_error, snr
        a = auc_awgn(DetectorConfig(1000.0), snr)
        assert abs(a.value - (1 - want)) <= a.est_error, snr


@pytest.mark.parametrize("u", [0.05, 1.0, 2.5, 5.0, 20.0, 150.5, 500.0])
def test_chernoff_bound_covers_the_cauc(u):
    # an upper bound on the CAUC at every SNR, loose by under 1e4 (5.9e3 at
    # u = 0.05, snr = 1000; under 1e3 elsewhere), and at the CLI's rel_tol
    # it stops the series no later than the old cut-off 80 + 4u
    import nb_reference as ref  # skips this test when scipy is missing
    for snr in (0.1, 1.0, 10.0, 100.0, 1000.0):
        want = ref.cauc(u, snr)
        bound = _cauc_chernoff(u, snr)
        assert want * (1.0 - 1e-12) <= bound < 1e4 * want, snr
    mv = auc_awgn_series(DetectorConfig(u), 80.0 + 4.0 * u, EvalPolicy())
    assert mv.value == 1.0 and mv.terms_used == 0
    assert mv.est_error <= 0.5 * EvalPolicy().rel_tol


@pytest.mark.parametrize("u", [100.0, 150.0, 300.0, 400.0, 500.0])
def test_large_u_within_est_error(u):
    # integer u: the CAUC to its relative est_error, and the AUC; before
    # the Laguerre start was folded, u >= 300 overflowed from snr ~30 on
    import mp_reference  # skips this test when mpmath is missing
    cfg = DetectorConfig(u)
    for snr in (1.0, 10.0, 50.0, 150.0, 400.0, 1000.0):
        want = mp_reference.cauc(u, snr)
        c = cauc_awgn(cfg, snr)
        assert abs(c.value - want) <= c.est_error, snr
        assert c.est_error <= 8.0 * u * 2.0 ** -52 * c.value
        a = auc_awgn(cfg, snr)
        assert abs(a.value - (1 - want)) <= a.est_error, snr


@pytest.mark.parametrize("u", [1.0, 2.0, 5.0, 20.0, 100.0, 500.0])
def test_integer_cauc_to_full_relative_precision(u):
    # the Poisson sum of binomial tails has only positive terms: within
    # 5e-15 of the 40-digit CAUC, and within its own est_error
    import mp_reference  # skips this test when mpmath is missing
    cfg = DetectorConfig(u)
    for snr in (1e-2, 0.1, 1.0, 10.0, 100.0, 400.0, 1000.0, 1400.0):
        want = mp_reference.cauc(u, snr)
        c = cauc_awgn(cfg, snr)
        assert abs(c.value - want) <= 5e-15 * want, snr
        assert abs(c.value - want) <= c.est_error, snr


def test_binomial_tails_equal_exact_sums():
    # P(Bin(2u-1, 1/2) >= u+i) against exact sums of math.comb: within
    # 16 units of roundoff for u = 1..60 (at most 10.5 measured; the
    # rounding count bounds it by 6u - 5), and within 1e-15 at large u
    for u in list(range(1, 61)) + [100, 250, 500]:
        n = 2 * u - 1
        tails = detector._binomial_tails(float(u))
        assert len(tails) == u
        exact = list(itertools.accumulate(
            math.comb(n, k) for k in range(n, u - 1, -1)))[::-1]
        rel = 2.0 ** -49 if u <= 60 else 1e-15
        for i, (tail, whole) in enumerate(zip(tails, exact)):
            want = Fraction(whole, 2 ** n)
            assert abs(Fraction(tail) - want) <= rel * want, (u, i)


@pytest.mark.parametrize("u", [0.05, 0.5, 1.0, 2.5, 7.0, 37.5, 150.0, 150.5,
                               499.5, 500.0])
def test_auc_answers_over_the_box(u):
    # -10..60 dB at the default policy: an AUC within est_error of the
    # reference (whose gammaln rounding costs it ~1e-13 of the CAUC), and
    # where e^(-snr/2) underflows the integer CAUC is 0 with the bound
    import nb_reference as ref  # skips this test when scipy is missing
    cfg = DetectorConfig(u)
    for db in range(-10, 61, 5):
        snr = 10.0 ** (db / 10.0)
        want = ref.cauc(u, snr)
        mv = auc_awgn(cfg, snr)
        assert abs((1.0 - mv.value) - want) <= mv.est_error + 1e-13 * want, db
        if cfg.is_integer and snr > 1500.0:
            c = cauc_awgn(cfg, snr)
            assert c.value == 0.0 and c.est_error == _cauc_chernoff(u, snr)
    # far past the box the Chernoff bound still holds: where its s rounds
    # to 1 (snr ~1e17 to 1e20) and where b^2 overflows (1e300)
    for snr in (1e17, 1e20, 1e300):
        for route in (auc_awgn, cauc_awgn):
            mv = route(cfg, snr)
            assert 0.0 <= mv.value <= 1.0 and mv.est_error < 1.0, snr


def test_series_error_counts_the_lgamma_start():
    # at large u lgamma's error in the first beta increment, which every
    # weight carries, outweighs the per-term rounding (it ran past
    # est_error by up to 7x at u = 150.5); at rel_tol 1e-300 no Chernoff
    # exit comes before snr 760, past exp(-snr) underflow
    import mp_reference  # skips this test when mpmath is missing
    mp = mp_reference.mp
    cases = [(u, snr, 1e-13) for u in (150.5, 200.5, 300.5, 499.5)
             for snr in (2.0, 10.0, 50.0, 100.0)]
    cases += [(u, snr, 1e-300) for u in (0.05, 0.5, 2.5, 7.3, 50.5, 200.5)
              for snr in (0.5, 10.0, 100.0, 300.0, 760.0)]
    misses = []
    for u, snr, rel_tol in cases:
        mv = auc_awgn_series(DetectorConfig(u), snr, EvalPolicy(rel_tol))
        with mp.workdps(40):
            miss = abs(mv.value - (1 - mp_reference.cauc(u, snr)))
        if not miss <= mv.est_error:
            misses.append((u, snr, float(miss), mv.est_error))
    assert misses == []


def test_series_reads_the_configs_beta_tails(monkeypatch):
    # the series sums Poisson weights against the beta tails that cfg's
    # one specfun._BetaTable keeps: the AUC and the CAUC read that table
    seen = []
    tails = specfun._BetaTable.tails

    def spy(table, n):
        seen.append(table)
        return tails(table, n)

    monkeypatch.setattr(specfun._BetaTable, "tails", spy)
    cfg = DetectorConfig(2.5)
    auc = auc_awgn_series(cfg, 10.0)
    cauc = cauc_awgn(cfg, 10.0)
    assert seen and set(map(id, seen)) == {id(cfg._table(specfun._BetaTable))}
    assert auc.terms_used == cauc.terms_used > 0
    assert auc.value + cauc.value == 1.0


def test_real_u_cauc_within_its_error_at_hard_zeros():
    # the complement of an absolutely bounded AUC read 0 at the first five
    # points (truths 1.4e-41 to 7.7e-233) and lost 3.4e-7 and 1.1e-9
    # relative at the last two; the CAUC's own series keeps them relative
    import mp_reference  # skips this test when mpmath is missing
    mp = mp_reference.mp
    for u, snr in ((50.5, 300.0), (200.5, 760.0), (499.5, 2000.0),
                   (10.5, 1000.0), (1.5, 100.0), (0.05, 30.0), (7.3, 40.0)):
        mv = cauc_awgn(DetectorConfig(u), snr)
        with mp.workdps(40):
            want = mp_reference.cauc(u, snr)
            assert abs(mv.value - want) <= mv.est_error, (u, snr)
        assert 0.0 < mv.est_error < 1e-11 * mv.value, (u, snr)


@pytest.mark.parametrize("u", [0.05, 0.7, 2.5, 10.5, 50.5, 200.5, 499.5])
def test_forward_node_cauc_within_its_error(u):
    # the quadrature node's forward loop, at full precision and at the
    # node's rel_tol/4 of the CLI: within est_error of the 40-digit CAUC,
    # and est_error no more than atol past 1e-12 of the CAUC
    import mp_reference  # skips this test when mpmath is missing
    table = specfun._BetaTable(u)
    for g in (0.01, 0.3, 1.0, 4.0, 12.0, 35.0, 80.0, detector._FORWARD_MAX):
        want = mp_reference.cauc(u, g)
        for atol in (0.0, 2.5e-11):
            c, err, _ = detector._cauc_forward(table, g, atol)
            assert abs(c - want) <= err, (g, atol)
            assert err <= atol + 1e-12 * c, (g, atol)


def test_real_u_cauc_series_failure_names_the_loop(monkeypatch):
    # past specfun._MAX_TERMS terms up from the peak it raises, naming u,
    # the SNR and the loop
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError, match=(
            r"^fixed-SNR CAUC series at u=2\.5, snr=30\.0 passed 5 terms "
            r"past its peak at k=\d+$")):
        cauc_awgn(DetectorConfig(2.5), 30.0)


def test_cauc_is_exact_complement():
    for u, g in ((1.0, 2.0), (2.5, 5.0), (5.0, 10.0)):
        cfg = DetectorConfig(u)
        a = auc_awgn(cfg, g, TIGHT)
        c = cauc_awgn(cfg, g, TIGHT)
        assert a.value + c.value == 1.0
        assert c.method == a.method and c.terms_used == a.terms_used


def test_1f1_variant_printed_diagnostics():
    # the as-printed transcription, kept in the errata report: wildly out of
    # [0,1]
    assert _kummer_printed_auc(2, 3.0) == pytest.approx(AUC1F1_PRINTED_2_3,
                                                        rel=1e-12)
    assert _kummer_printed_auc(5, 10.0) == pytest.approx(AUC1F1_PRINTED_5_10,
                                                         rel=1e-12)
    with pytest.raises(ValueError):
        auc_awgn_1f1_variant(DetectorConfig(2.5), 3.0)


def test_quadrature_handles_fractional_orders():
    # the density endpoint lam**(u-1) needs the power substitution; make sure
    # high-accuracy requests actually converge quickly off-grid too
    pol = EvalPolicy(rel_tol=1e-12)
    for u in (1.2, 1.5, 3.7, 7.3):
        cfg = DetectorConfig(u)
        closed = auc_awgn(cfg, 4.0, TIGHT).value
        mv = auc_quadrature(cfg, 4.0, pol)
        assert mv.value == pytest.approx(closed, abs=5e-11)
        assert mv.terms_used < 20_000


def test_roc_points_shape_and_area():
    cfg = DetectorConfig(1.0)
    pts = roc_points_awgn(cfg, 2.0, 100)
    assert len(pts) == 100
    pfs = [p for p, _ in pts]
    pds = [d for _, d in pts]
    assert all(0.0 < p < 1.0 for p in pfs)
    assert all(0.0 <= d <= 1.0 for d in pds)
    assert all(x <= y for x, y in zip(pfs, pfs[1:]))
    assert all(x <= y + 1e-12 for x, y in zip(pds, pds[1:]))
    area = math.fsum((pfs[i + 1] - pfs[i]) * 0.5 * (pds[i + 1] + pds[i])
                     for i in range(len(pts) - 1))
    closed = auc_awgn(cfg, 2.0, TIGHT).value
    assert abs(area - closed) < 0.005
    with pytest.raises(ValueError):
        roc_points_awgn(cfg, 2.0, 1)


def test_u1_closed_identity():
    # single-degree pair: AUC reduces to 1 - exp(-snr/2)/2
    cfg = DetectorConfig(1.0)
    for g in (0.0, 0.5, 2.0, 7.0, 30.0):
        assert auc_awgn(cfg, g, TIGHT).value == pytest.approx(
            1.0 - 0.5 * math.exp(-0.5 * g), abs=1e-14)


def test_pf_agreement_with_independent_gamma():
    for u in (1.0, 2.5, 5.0):
        cfg = DetectorConfig(u)
        for lam in (0.2, 4.0, 17.0):
            assert pf(cfg, lam) == pytest.approx(
                reg_upper_gamma(u, 0.5 * lam), rel=1e-14)
