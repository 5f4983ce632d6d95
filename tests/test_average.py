"""Fading-averaged AUC/CAUC: frozen references, route agreement, diagnostics.

The frozen averages come from 50-digit mpmath quadrature of the Hoyt density
against the Poisson/beta representation of the fixed-SNR AUC — a route that
shares nothing with either runtime closed form.
"""

import math
from fractions import Fraction

import pytest

from hoytsense import specfun
from hoytsense.average import (avg_auc_closed, avg_auc_quadrature,
                               avg_cauc_closed, avg_pd_closed,
                               avg_pd_closed_curve, avg_pd_quadrature,
                               _binomial_tails)
from hoytsense.detector import (DetectorConfig, auc_quadrature,
                                threshold_for_pf)
from hoytsense.hoyt import HoytFading
from hoytsense.quadrature import EvalPolicy
from hoytsense.specfun import ConvergenceError
from hoytsense.validate import (_binomial_shift_auc, _printed_finite_sum_auc,
                               _printed_series_auc)

TIGHT = EvalPolicy(rel_tol=5e-14)

ABAR_1_0P5_10 = 0.903774955135062372582      # u=1, q=0.5, mean=10
ABAR_2_0P3_5 = 0.797273910944595485424
ABAR_5_0P5_10 = 0.853234350369573624032
ABAR_5_0P1_1000 = 0.991894035296123586827
ABAR_2P5_0P5_10 = 0.878093885711862971031
ABAR_1P5_0P75_10 = 0.904507846348651588956
ABAR_7P3_0P5_10 = 0.837523943986422101848

# q = 1e-6, the small-q corner of the supported box: 40-digit mpmath sums of
# the negative-binomial mixture sum_k pi_k I_{1/2}(u+k, u), a third route that
# reproduces ABAR_5_0P5_10 to all 21 digits
ABAR_5_1EM6_1 = 0.59504296426371963701
ABAR_5_1EM6_1000 = 0.978916009944413928559
ABAR_2P5_1EM6_1 = 0.617118600238166004216
ABAR_2P5_1EM6_1000 = 0.981496328216641436576
ABAR_50_1EM6_1 = 0.53795633513864488994
ABAR_100_1EM6_1000 = 0.959708782906490471262

# what the published expressions evaluate to before correction (diagnostics)
ABAR_T1PRT_2_0P5_10 = 0.908051623795726267134
ABAR_T1PRT_1_0P5_10 = 0.923019964108049898065
ABAR_T1CONJ_2_0P5_10 = 0.861008268528423427063   # binomial-index "repair"
ABAR_T2PRT_2_0P5_10 = 0.614656370722358774546

# both errata variants at q=0.5, mean 10, frozen from the term-by-term double
# sum over 0 <= i <= l < u, before it was folded into binomial tails
ABAR_T1CONJ_20_0P5_10 = 0.6417168420043244
ABAR_T1PRT_20_0P5_10 = 0.83082308135995
ABAR_T1CONJ_100_0P5_10 = 0.43482568414525913
ABAR_T1PRT_100_0P5_10 = 0.7571605117310625


def _f(q, mean):
    return HoytFading(q, mean)


def test_frozen_values_integer_route():
    cases = {(1.0, 0.5, 10.0): ABAR_1_0P5_10,
             (2.0, 0.3, 5.0): ABAR_2_0P3_5,
             (5.0, 0.5, 10.0): ABAR_5_0P5_10,
             (5.0, 0.1, 1000.0): ABAR_5_0P1_1000}
    for (u, q, mean), want in cases.items():
        mv = avg_auc_closed(DetectorConfig(u), _f(q, mean), TIGHT)
        assert mv.method == "closed_integer"
        assert mv.terms_used == u
        assert mv.value == pytest.approx(want, abs=2e-13)


def test_finite_sum_within_est_error_over_the_box():
    # every returned value inside est_error of the independent reference;
    # where mean_snr^i or den^(i+1) leaves double range (u >= 135 at
    # 20 dB and up) an OverflowError, never nan or inf
    import nb_reference as ref  # skips this test when scipy is missing
    misses = []
    overflows = 0
    for u in (1, 2, 5, 20, 50, 100, 135, 150):
        cfg = DetectorConfig(float(u))
        for q in (1e-6, 0.1, 0.5, 1.0):
            for db in range(-10, 61, 5):
                mean = 10.0 ** (db / 10.0)
                try:
                    mv = avg_auc_closed(cfg, _f(q, mean))
                except OverflowError:
                    overflows += 1
                    continue
                want = ref.avg_auc(u, q, mean)
                if not (math.isfinite(mv.value) and mv.terms_used == u
                        and abs(mv.value - want) <= mv.est_error):
                    misses.append((u, q, db, mv, want))
    assert misses == []
    assert 0 < overflows < 100


def test_binomial_tails_equal_the_inner_sums():
    # sum_{l=i}^{u-1} C(l+u-1, l-i) 2^(i+1-l-u) in exact rationals against
    # 2^(i+1) P(Bin(2u-1, 1/2) >= u+i) in floats: within u ulps
    for u in (1, 2, 3, 5, 8, 13, 20, 40, 150):
        tails = _binomial_tails(u)
        assert len(tails) == u
        for i, tail in enumerate(tails):
            exact = sum(Fraction(math.comb(l + u - 1, l - i),
                                 2 ** (l + u - i - 1))
                        for l in range(i, u))
            got = Fraction(math.ldexp(tail, i + 1))
            assert abs(got - exact) <= u * 2.0 ** -52 * exact, (u, i)


def test_errata_variants_frozen_at_large_u():
    # the binomial-index "repair" and the printed form without (1+q^2)
    for u, conj, printed in ((20, ABAR_T1CONJ_20_0P5_10, ABAR_T1PRT_20_0P5_10),
                             (100, ABAR_T1CONJ_100_0P5_10,
                              ABAR_T1PRT_100_0P5_10)):
        got = _binomial_shift_auc(u, 0.5, 10.0)
        assert got == pytest.approx(conj, abs=1e-13), u
        got = _printed_finite_sum_auc(u, 0.5, 10.0)
        assert got == pytest.approx(printed, abs=1e-13), u


def test_frozen_values_series_route():
    cases = {(2.5, 0.5, 10.0): ABAR_2P5_0P5_10,
             (1.5, 0.75, 10.0): ABAR_1P5_0P75_10,
             (7.3, 0.5, 10.0): ABAR_7P3_0P5_10}
    for (u, q, mean), want in cases.items():
        mv = avg_auc_closed(DetectorConfig(u), _f(q, mean), TIGHT)
        assert mv.method == "closed_series"
        assert mv.value == pytest.approx(want, abs=5e-13)
        assert mv.terms_used > 20
    # the series route must agree with the finite sum when forced onto
    # integer u
    mv = avg_auc_closed(DetectorConfig(5.0), _f(0.5, 10.0), TIGHT,
                        form="series")
    assert mv.method == "closed_series"
    assert mv.value == pytest.approx(ABAR_5_0P5_10, abs=5e-13)


def test_small_q_within_reported_error():
    # 1 - w^2 taken literally cancels to ~eps/q^2 here, far past est_error
    cases = (("finite_sum", 5.0, 1.0, ABAR_5_1EM6_1),
             ("finite_sum", 5.0, 1000.0, ABAR_5_1EM6_1000),
             ("series", 5.0, 1.0, ABAR_5_1EM6_1),
             ("series", 5.0, 1000.0, ABAR_5_1EM6_1000),
             ("series", 2.5, 1.0, ABAR_2P5_1EM6_1),
             ("series", 2.5, 1000.0, ABAR_2P5_1EM6_1000),
             # q^(1+2i) underflows where the Legendre terms overflow
             ("finite_sum", 50.0, 1.0, ABAR_50_1EM6_1),
             ("finite_sum", 100.0, 1000.0, ABAR_100_1EM6_1000))
    for form, u, mean, want in cases:
        mv = avg_auc_closed(DetectorConfig(u), _f(1e-6, mean), TIGHT,
                            form=form)
        assert abs(mv.value - want) <= mv.est_error, (form, u, mean)


def test_form_selection_and_validation():
    cfg25 = DetectorConfig(2.5)
    with pytest.raises(ValueError):
        avg_auc_closed(cfg25, _f(0.5, 1.0), TIGHT, form="finite_sum")
    with pytest.raises(ValueError):
        avg_auc_closed(DetectorConfig(2.0), _f(0.5, 1.0), TIGHT, form="wat")
    mv = avg_auc_closed(DetectorConfig(3.0), _f(0.5, 1.0), TIGHT,
                        form="finite_sum")
    assert mv.method == "closed_integer"


def test_complement_is_exact():
    for u, q, mean in ((1.0, 0.5, 10.0), (2.5, 0.1, 2.0), (5.0, 1.0, 100.0)):
        a = avg_auc_closed(DetectorConfig(u), _f(q, mean), TIGHT)
        c = avg_cauc_closed(DetectorConfig(u), _f(q, mean), TIGHT)
        assert a.value + c.value == 1.0
        assert a.method == c.method and a.terms_used == c.terms_used


def test_quadrature_reference_agrees():
    for u, q, mean in ((1.0, 0.5, 10.0), (2.0, 0.3, 5.0), (2.5, 0.5, 10.0),
                       (7.3, 0.5, 10.0), (5.0, 0.1, 1000.0)):
        closed = avg_auc_closed(DetectorConfig(u), _f(q, mean), TIGHT).value
        quad = avg_auc_quadrature(DetectorConfig(u), _f(q, mean), TIGHT).value
        assert abs(closed - quad) < 1e-9


def test_quadrature_within_est_error_of_reference_to_1e_12():
    # a node whose AUC is cut short (the Chernoff exit, the series summed
    # to rel_tol/4) moves the row by at most its est_error: held to 1e-12
    # past it, far below the benchmark's 1e-9 floor
    import nb_reference as ref  # skips this test when scipy is missing
    for u in (0.7, 2.5, 7.3, 60.5, 1.0, 5.0, 20.0):
        cfg = DetectorConfig(u)
        for q in (0.07, 0.3, 1.0):
            for db in (-5.0, 6.0, 18.0, 30.0):
                mean = 10.0 ** (db / 10.0)
                mv = avg_auc_quadrature(cfg, _f(q, mean))
                want = ref.avg_cauc(u, q, mean)
                assert abs((1.0 - mv.value) - want) <= mv.est_error + 1e-12, (
                    u, q, db)


@pytest.mark.parametrize("db", [50.0, 60.0])
def test_quadrature_within_est_error_of_reference_at_high_snr(db):
    # past the exit cut a node's CAUC is 0, and a mean SNR far above the
    # cut would leave every node of the first levels there, the rule
    # settling on no CAUC at all (60 dB once read CAUC 0 for 3.2e-6): the
    # map's scale is held at the cut, so half of each level's nodes see
    # the CAUC's mass
    import nb_reference as ref  # skips this test when scipy is missing
    mean = 10.0 ** (db / 10.0)
    for u in (0.7, 1.0, 2.5, 5.0, 20.0):
        cfg = DetectorConfig(u)
        for q in (0.07, 0.3, 1.0):
            mv = avg_auc_quadrature(cfg, _f(q, mean))
            want = ref.avg_cauc(u, q, mean)
            assert want > 1e-7
            assert abs((1.0 - mv.value) - want) <= mv.est_error + 1e-12, (
                u, q, db)


def test_real_u_quadrature_shares_one_beta_column(monkeypatch):
    # every node's fixed-SNR series dots its window with one column per call
    calls = []
    increments = specfun.beta_increments

    def counting(u):
        calls.append(u)
        return increments(u)

    monkeypatch.setattr(specfun, "beta_increments", counting)
    for u in (2.5, 7.3):
        calls.clear()
        mv = avg_auc_quadrature(DetectorConfig(u), _f(0.4, 10.0))
        assert calls == [u] and mv.terms_used > 1
    # integer u takes the Poisson sum of binomial tails, with no beta column
    calls.clear()
    avg_auc_quadrature(DetectorConfig(5.0), _f(0.4, 10.0))
    assert calls == []


def test_u1_mgf_identity():
    # 1 - M(-1/2)/2 with the elementary square-root MGF
    for q in (0.1, 0.3, 0.5, 0.75, 1.0):
        for mean in (0.1, 1.0, 10.0, 316.22776601683793):
            got = avg_auc_closed(DetectorConfig(1.0), _f(q, mean), TIGHT).value
            want = 1.0 - 0.5 / math.sqrt(
                1.0 + mean + (q * mean / (1.0 + q * q)) ** 2)
            assert got == pytest.approx(want, abs=1e-12)


def test_printed_finite_sum_diagnostic():
    got = _printed_finite_sum_auc(2, 0.5, 10.0)
    assert got == pytest.approx(ABAR_T1PRT_2_0P5_10, abs=1e-14)
    # the defect is NOT benign at u=1 either: the missing factor shifts even
    # the simplest case away from the MGF-identity value
    got = _printed_finite_sum_auc(1, 0.5, 10.0)
    assert got == pytest.approx(ABAR_T1PRT_1_0P5_10, abs=1e-14)
    assert abs(got - ABAR_1_0P5_10) > 1e-2


def test_binomial_shift_conjecture_rejected():
    # raising the binomial upper index does not repair the printed form
    got = _binomial_shift_auc(2, 0.5, 10.0)
    assert got == pytest.approx(ABAR_T1CONJ_2_0P5_10, abs=1e-14)
    assert abs(got - ABAR_5_0P5_10) > 1e-3
    assert abs(got - avg_auc_closed(DetectorConfig(2.0), _f(0.5, 10.0),
                                    TIGHT).value) > 1e-3


def test_printed_series_diagnostic_and_divergence():
    got = _printed_series_auc(2.0, 0.5, 10.0, TIGHT)
    assert got == pytest.approx(ABAR_T2PRT_2_0P5_10, abs=1e-12)
    # term ratio exceeds 1 once the mean SNR drops below (1-q^2)/2
    with pytest.raises(ConvergenceError):
        _printed_series_auc(2.0, 0.3, 0.1, TIGHT)


def test_series_respects_term_budget(monkeypatch):
    # the complement weights I_{1/2}(u+l, u) stay near 1/2 for l up to a few
    # sqrt(u), so u=150.5 needs well over 50 terms at any mean SNR
    policy = EvalPolicy(rel_tol=1e-12)
    assert avg_auc_closed(DetectorConfig(150.5), _f(0.5, 50.0),
                          policy).terms_used > 50
    monkeypatch.setattr(specfun, "_MAX_TERMS", 50)
    with pytest.raises(ConvergenceError):
        avg_auc_closed(DetectorConfig(150.5), _f(0.5, 50.0), policy)


def test_series_terms_fall_by_both_ratios():
    # each term falls by the law's ratio times the beta tails' ratio, so at
    # u=2.5, q=1, 0 dB the default rel_tol takes 19 terms, where dotting
    # u's beta increments with the law's CDF took 39
    mv = avg_cauc_closed(DetectorConfig(2.5), _f(1.0, 1.0))
    assert mv.method == "closed_series" and mv.terms_used <= 25


def test_series_holds_its_error_bound_over_the_box():
    # every corner of u <= 500, q in [1e-6, 1], -10..60 dB, at the CLI
    # default and at a tight tolerance: finite, inside est_error of the
    # independent reference, and a term count that does not grow with SNR
    import nb_reference as ref  # skips this test when scipy is missing
    misses = []
    for u in (0.05, 0.3, 2.5, 37.5, 150.5, 499.5):
        cfg = DetectorConfig(u)
        for q in (1e-6, 1e-3, 0.3, 1.0):
            for db in (-10, 0, 20, 40, 60):
                mean = 10.0 ** (db / 10.0)
                want = ref.avg_cauc(u, q, mean)
                for policy in (EvalPolicy(), TIGHT):
                    mv = avg_cauc_closed(cfg, _f(q, mean), policy)
                    if not (math.isfinite(mv.value)
                            and abs(mv.value - want) <= mv.est_error
                            and mv.terms_used <= 300):
                        misses.append((u, q, db, policy.rel_tol, mv, want))
    assert misses == []


def test_cauc_follows_the_high_snr_law():
    # as the mean SNR m grows, CAUC ~ (1+q^2)/(2 q m) (1/2 + Gamma(u+1/2) /
    # (sqrt(pi) Gamma(u))), with a relative correction of order
    # sqrt(u+1)/(q^2 m); measured here up to 1.41 sqrt(u+1)/(q^2 m).
    # Integer u >= 50 is left out: its finite sum overflows at 60 dB
    worst = []
    for u in (0.05, 0.5, 2.5, 20.5, 150.5, 499.5, 1, 5):
        cfg = DetectorConfig(u)
        shape = 0.5 + math.exp(math.lgamma(u + 0.5) - math.lgamma(u)) / (
            math.sqrt(math.pi))
        for q in (0.1, 0.3, 0.5, 1.0):
            for db in (50, 52.5, 55, 57.5, 60):
                mean = 10.0 ** (db / 10.0)
                if q * q * mean < 1e3:
                    continue
                law = (1.0 + q * q) / (2.0 * q * mean) * shape
                c = avg_cauc_closed(cfg, _f(q, mean)).value
                if not abs(c / law - 1.0) <= (1.5 * math.sqrt(u + 1.0)
                                              / (q * q * mean)):
                    worst.append((u, q, db, c / law))
    assert worst == []


def test_series_error_estimate_covers_the_weights():
    # at 30 dB the Legendre terms alone decay like 0.9995^l; an estimate
    # that follows only them under-reported here by up to 3.4x
    import nb_reference as ref  # skips this test when scipy is missing
    policy = EvalPolicy(rel_tol=1e-11)
    for q in (0.2, 0.5, 0.75):
        mv = avg_auc_closed(DetectorConfig(2.5), _f(q, 1000.0), policy)
        assert abs(mv.value - ref.avg_auc(2.5, q, 1000.0)) <= mv.est_error, q


def test_average_monotone_in_mean_snr():
    cfg = DetectorConfig(2.5)
    means = [10.0 ** (db / 10.0) for db in range(-5, 31, 5)]
    vals = [avg_auc_closed(cfg, _f(0.3, m), TIGHT).value for m in means]
    assert all(y > x for x, y in zip(vals, vals[1:]))
    assert all(0.5 < v < 1.0 for v in vals)


def test_avg_pd_quadrature_behaviour():
    cfg = DetectorConfig(5.0)
    f = _f(0.5, 10.0)
    assert avg_pd_quadrature(cfg, f, 0.0, TIGHT).value == 1.0
    lams = [threshold_for_pf(cfg, p) for p in (0.9, 0.5, 0.1, 0.01)]
    vals = [avg_pd_quadrature(cfg, f, lam, TIGHT).value for lam in lams]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(x > y for x, y in zip(vals, vals[1:]))   # pd falls with pf
    # fading can only hurt an informative detector at these parameters:
    # averaged pd sits below the pd at the mean SNR (Jensen direction)
    from hoytsense.detector import pd as pd_fixed
    lam = threshold_for_pf(cfg, 0.1)
    assert avg_pd_quadrature(cfg, f, lam, TIGHT).value < pd_fixed(
        cfg, 10.0, lam)
    # 60 dB, lambda=3e5 (b^2/2 = 1.5e5): nodes whose Marcum Q is below
    # 2^-1075 take its Chernoff bound, and at sixteen nodes, h = 1.296e5
    # to 1.313e5, Q is 1e-324 to 7e-273, its terms peaking ~9,000 above
    # the Poisson mode, where Marcum Q's walk follows them; the request
    # lies within its est_error of nb_reference.avg_pd, 0.8325966457963812
    mv = avg_pd_quadrature(cfg, _f(0.5, 1e6), 3e5)
    assert abs(mv.value - 0.8325966457963812) <= mv.est_error < 1e-10


@pytest.mark.parametrize("route", [
    lambda: avg_auc_quadrature(DetectorConfig(5.0), _f(0.3, 10.0)),
    lambda: avg_pd_quadrature(DetectorConfig(5.0), _f(0.5, 10.0), 14.0),
    lambda: auc_quadrature(DetectorConfig(2.5), 4.0),
    lambda: auc_quadrature(DetectorConfig(0.05), 1.0),
    lambda: avg_cauc_closed(DetectorConfig(5.0), _f(0.5, 10.0),
                            form="finite_sum"),
    lambda: avg_cauc_closed(DetectorConfig(5.0), _f(0.5, 10.0),
                            form="series"),
    lambda: avg_pd_closed(DetectorConfig(5.0), _f(0.5, 10.0), 14.0),
], ids=["avg_auc_quadrature", "avg_pd_quadrature", "auc_quadrature",
        "auc_quadrature_small_u", "cauc_finite_sum", "cauc_series",
        "avg_pd_closed"])
def test_deterministic_routes_return_python_floats(route):
    mv = route()
    assert type(mv.value) is float
    assert type(mv.est_error) is float


def _roc_thresholds(cfg, points):
    # the thresholds `roc --points n` integrates at
    return [threshold_for_pf(cfg, min(max(k / (points - 1.0), 1e-9),
                                      1.0 - 1e-9))
            for k in range(points)]


@pytest.mark.parametrize("u", [0.7, 2.5, 5.0, 12.7, 20.0])
def test_closed_pd_curve_equals_per_threshold_calls_bit_for_bit(u):
    # one law shared by every threshold gives each exactly the value,
    # est_error and term count of its own call
    cfg = DetectorConfig(u)
    for q in (0.07, 0.5, 1.0):
        for db in (-5.0, 10.0, 30.0):
            f = _f(q, 10.0 ** (db / 10.0))
            single = {lam: avg_pd_closed(cfg, f, lam)
                      for lam in _roc_thresholds(cfg, 33)}
            for points in (2, 5, 33):
                lams = _roc_thresholds(cfg, points)
                curve = avg_pd_closed_curve(cfg, f, lams)
                assert [(mv.value, mv.est_error, mv.terms_used)
                        for mv in curve] == [
                    (single[lam].value, single[lam].est_error,
                     single[lam].terms_used) for lam in lams], (q, db, points)


def test_closed_pd_within_est_error_of_reference():
    # the scipy negative-binomial mixture, over the box and pf from 1e-12
    # to 1/2, at the CLI's default tolerance and a tight one; 1e-15 leaves
    # room for the reference's own rounding
    import nb_reference as ref  # skips this test when scipy is missing
    for u in (0.05, 0.7, 2.5, 5.0, 12.7, 60.5, 150.0, 500.0):
        cfg = DetectorConfig(u)
        lams = [threshold_for_pf(cfg, pf) for pf in (1e-12, 1e-6, 0.01, 0.5)]
        for q in (1e-6, 1e-3, 0.1, 0.5, 1.0):
            for db in (-10.0, 10.0, 30.0, 60.0):
                mean = 10.0 ** (db / 10.0)
                wants = [ref.avg_pd(u, q, mean, lam) for lam in lams]
                for policy in (EvalPolicy(), TIGHT):
                    curve = avg_pd_closed_curve(cfg, _f(q, mean), lams, policy)
                    for lam, want, mv in zip(lams, wants, curve):
                        assert abs(mv.value - want) <= mv.est_error + 1e-15, (
                            u, q, db, lam, policy.rel_tol)


def test_closed_pd_where_the_detection_sum_passes_its_cap():
    # q = 1e-6, 20 to 28 dB: the law's tail falls by rho = 1 - 1/(2 mean)
    # or so a term, and at u = 500 a Pd below 1/2 would need more than
    # _MAX_TERMS terms of the detection sum (from ~23.5 dB at the default
    # tolerance); those thresholds take 1 - miss and stay within est_error
    import nb_reference as ref  # skips this test when scipy is missing
    for u in (60.5, 500.0):
        cfg = DetectorConfig(u)
        lams = [threshold_for_pf(cfg, pf)
                for pf in (1e-12, 1e-9, 1e-7, 1e-6, 1e-3)]
        for db in (20.0, 22.0, 24.0, 25.0, 26.0, 28.0):
            mean = 10.0 ** (db / 10.0)
            wants = [ref.avg_pd(u, 1e-6, mean, lam) for lam in lams]
            for policy in (EvalPolicy(), TIGHT):
                curve = avg_pd_closed_curve(cfg, _f(1e-6, mean), lams, policy)
                for lam, want, mv in zip(lams, wants, curve):
                    assert abs(mv.value - want) <= mv.est_error + 1e-15, (
                        u, db, lam, policy.rel_tol)


def test_closed_pd_at_subnormal_thresholds():
    # the detection sum's column is taken at b^2/2, b = sqrt(threshold),
    # whose rounding against threshold/2 it bounds relative to x; at a
    # subnormal x that bound read inf * 0 = nan, and the row raised
    import nb_reference as ref  # skips this test when scipy is missing
    cfg, f = DetectorConfig(0.05), _f(0.5, 1e-3)
    for lam in (1e-323, 2e-323, 1e-320, 1e-310):
        mv = avg_pd_closed(cfg, f, lam)
        assert abs(mv.value - ref.avg_pd(0.05, 0.5, 1e-3, lam)) <= (
            mv.est_error < 1e-11), lam


def test_closed_pd_failures_name_their_loop():
    # the threshold's gamma increments say before any sum that they cannot
    # close within the term cap (x = 1e7); the miss, asked for a 1e-300
    # relative tail at x = 1e5, passes the cap past their peak.  The
    # detection sum needs no cap: its length is bounded before it starts,
    # and past the cap the route takes 1 - miss instead (above)
    f = _f(1.0, 1e6)
    with pytest.raises(ConvergenceError, match=(
            r"^closed Pd at u=5\.0, threshold=20000000\.0: the gamma "
            r"increments of x=10000000\.0 cannot close within 10000 terms "
            r"of their peak$")):
        avg_pd_closed(DetectorConfig(5.0), f, 2e7)
    with pytest.raises(ConvergenceError, match=(
            r"^closed Pd's miss sum at u=5\.0, threshold=200000\.0, q=1\.0, "
            r"mean_snr=1000000\.0 passed 10000 terms past the gamma "
            r"increments' peak$")):
        avg_pd_closed(DetectorConfig(5.0), f, 2e5, EvalPolicy(rel_tol=1e-300))


def test_closed_pd_agrees_with_the_quadrature():
    # the two routes share the column's start and nothing else.  60 dB is
    # left out: there the quadrature converges falsely (Pd 1 for 0.999992
    # at u = 5, q = 0.3), the defect the closed route removes from pd rows
    for u in (0.7, 5.0, 60.5):
        cfg = DetectorConfig(u)
        lams = [threshold_for_pf(cfg, pf) for pf in (1e-12, 1e-6, 0.01, 0.5)]
        for q in (0.1, 0.5, 1.0):
            for db in (-10.0, 10.0, 30.0):
                f = _f(q, 10.0 ** (db / 10.0))
                closed = avg_pd_closed_curve(cfg, f, lams)
                for lam, c in zip(lams, closed):
                    try:
                        qd = avg_pd_quadrature(cfg, f, lam)
                    except ArithmeticError:
                        continue
                    assert abs(c.value - qd.value) <= (
                        c.est_error + qd.est_error), (u, q, db, lam)


def test_closed_tiny_average_pd_stays_relative():
    # u=5, q=0.5, -10 dB, lambda=200: Pd = 2.4e-35 by the detection sum,
    # within 1e-13 relative of the scipy mixture, est_error relative too
    import nb_reference as ref  # skips this test when scipy is missing
    want = ref.avg_pd(5.0, 0.5, 0.1, 200.0)
    mv = avg_pd_closed(DetectorConfig(5.0), _f(0.5, 0.1), 200.0)
    assert 2e-35 < want < 3e-35
    assert abs(mv.value - want) <= min(mv.est_error, 1e-13 * want)
    assert mv.est_error < 1e-11 * want


def test_closed_pd_law_within_its_carried_bound():
    # pi_l against the NB(1/2) * NB(1/2) convolution at 40 digits, up to
    # l = 600, where the bound grows like l^2 eps with s near 1
    mp = pytest.importorskip("mpmath")
    from hoytsense.average import _Law
    count = 601
    for q, db in ((0.5, 10.0), (0.1, 30.0), (0.3, 60.0), (1.0, 60.0),
                  (1e-6, 30.0), (1e-3, -10.0)):
        mean = 10.0 ** (db / 10.0)
        law = _Law(q, mean)
        law.extend(count)
        with mp.workdps(40):
            q2 = mp.mpf(q) ** 2
            pmfs = []
            for theta in (2 * mean / (1 + q2), 2 * mean * q2 / (1 + q2)):
                p = theta / (1 + theta)
                pmf = [1 / mp.sqrt(1 + theta)]
                for k in range(count - 1):
                    pmf.append(pmf[-1] * (k + mp.mpf(0.5)) * p / (k + 1))
                pmfs.append(pmf)
            for l in range(count):
                want = mp.fsum(pmfs[0][j] * pmfs[1][l - j]
                               for j in range(l + 1))
                if want < 1e-300:
                    break
                assert abs(law.pi[l] - want) <= law.rel(l + 1) * want, (
                    q, db, l)


def test_shared_mixture_matches_the_marcum_sum():
    # specfun.marcum_q, the dot product of a Poisson window and a column
    # Q(u+k, b^2/2) (the pieces of the averaged Pd's quadrature), is within
    # 1e-13 relative of a 30-digit Marcum Q and within its own bound, from
    # Q = 1 down to 1e-300.  At a = 0 it is the column's anchor Q(u, b^2/2),
    # held to its bound only
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        smallest = _check_mixture_grid(mp)
    assert smallest < 1e-280


def _check_mixture_grid(mp):
    # the grid of test_shared_mixture_matches_the_marcum_sum; returns the
    # smallest value it checked
    import mp_reference
    from hoytsense.specfun import _marcum_q
    smallest = 1.0
    for u in (0.05, 0.7, 5.0, 12.7, 60.5, 150.0):
        # b = sqrt(200) is the lambda = 200 threshold whose -10 dB average
        # is 2.4e-35 at u = 5 (test_tiny_average_pd_stays_relative)
        for b in (0.3, 2.0, 7.0, math.sqrt(200.0), 30.0, 45.0):
            for i in range(11):
                a = (b + 12.0) * i / 10.0
                want = mp_reference.marcum_q(u, a, b)
                if want < 1e-300:
                    continue
                value, err = _marcum_q(u, a, b)
                assert value == specfun.marcum_q(u, a, b)
                miss = abs(value - want)
                assert miss <= err, (u, a, b)
                if a == 0.0:
                    continue  # the incomplete gamma alone, held to its bound
                assert miss <= 1e-13 * want, (u, a, b)
                smallest = min(smallest, value)
            # past b + 12 the integrand takes Pd = 1: the miss probability
            # sum_k Pois(k; a^2/2) P(u+k, b^2/2) is below exp(-72) there.
            # P falls with k; it is summed from k = top down, where
            # P(s-1, x) = P(s, x) + x^(s-1) e^(-x)/Gamma(s) adds positives
            h, x = mp.mpf(b + 12.0) ** 2 / 2, mp.mpf(b) ** 2 / 2
            top = int(x + u + 20.0 * math.sqrt(x + u)) + 50
            p = mp.gammainc(u + top, 0, x, regularized=True)
            e = mp.exp((u + top - 1) * mp.log(x) - x - mp.loggamma(u + top))
            w = mp.exp(top * mp.log(h) - h - mp.loggamma(top + 1))
            miss = p  # bounds the terms past top, whose weights add to < 1
            for k in range(top, -1, -1):
                miss += w * p
                p += e
                e *= (u + k - 1) / x
                w *= k / h
            assert miss < math.exp(-72.0), (u, b)
    return smallest


def test_tiny_average_pd_stays_relative():
    # u=5, q=0.5, -10 dB, lambda=200: Pd = 2.4e-35, within 1e-13 relative
    # of the scipy mixture, and est_error stays relative to it as well
    import nb_reference as ref  # skips this test when scipy is missing
    f = _f(0.5, 0.1)
    want = ref.avg_pd(5.0, 0.5, 0.1, 200.0)
    mv = avg_pd_quadrature(DetectorConfig(5.0), f, 200.0)
    assert 2e-35 < want < 3e-35
    assert abs(mv.value - want) <= min(mv.est_error, 1e-13 * want)
    assert mv.est_error < 1e-11 * want
