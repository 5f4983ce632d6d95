"""Monte-Carlo estimators: reproducibility, statistic law, closure."""

import math

import numpy as np
import pytest

from hoytsense.average import avg_auc_closed, avg_pd_quadrature
from hoytsense.detector import DetectorConfig, auc_awgn, pd as pd_closed, \
    threshold_for_pf
from hoytsense.hoyt import HoytFading
from hoytsense.montecarlo import (McConfig, McEstimate, _draw_h1, _wins,
                                  batch_rng, estimate_auc, estimate_pd,
                                  sample_statistic)
from hoytsense.quadrature import EvalPolicy

TIGHT = EvalPolicy(rel_tol=1e-13)


def test_config_validation():
    cfg = McConfig()
    assert cfg.trials == 1_000_000
    with pytest.raises(ValueError):
        McConfig(trials=0)
    with pytest.raises(ValueError):
        McConfig(master_seed=-1)
    with pytest.raises(ValueError):
        McConfig(master_seed=2 ** 64)


def test_batch_rng_streams_are_stable_and_distinct():
    mc = McConfig(master_seed=99)
    a = batch_rng(mc, 0).standard_normal(8)
    b = batch_rng(mc, 0).standard_normal(8)
    c = batch_rng(mc, 1).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # a different master seed moves every stream
    d = batch_rng(McConfig(master_seed=100), 0).standard_normal(8)
    assert not np.array_equal(a, d)


def test_sample_statistic_law():
    cfg = DetectorConfig(2.5)
    rng = np.random.default_rng(7)
    n = 200_000
    y0 = sample_statistic(cfg, 0.0, "H0", rng, size=n)
    # noise-only: chi-square with 2u degrees of freedom (mean 2u, var 4u)
    assert float(np.mean(y0)) == pytest.approx(5.0, abs=4 * math.sqrt(10.0 / n))
    assert float(np.var(y0)) == pytest.approx(10.0, rel=0.02)
    y1 = sample_statistic(cfg, 3.0, "H1", rng, size=n)
    # signal: noncentral chi-square, mean 2u + 2 snr, var 4u + 8 snr
    se = math.sqrt((10.0 + 24.0) / n)
    assert float(np.mean(y1)) == pytest.approx(11.0, abs=4 * se)
    assert float(np.var(y1)) == pytest.approx(34.0, rel=0.03)
    assert float(np.min(y0)) >= 0.0
    scalar = sample_statistic(cfg, 1.0, "H1", rng)
    assert np.ndim(scalar) == 0 and float(scalar) >= 0.0
    with pytest.raises(ValueError):
        sample_statistic(cfg, 1.0, "H2", rng)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="snr must be finite"):
            sample_statistic(cfg, bad, "H1", rng)


def test_estimate_auc_replay_is_bitwise():
    cfg = DetectorConfig(5.0)
    f = HoytFading(0.5, 10.0)
    mc = McConfig(trials=150_000, master_seed=42)
    e1 = estimate_auc(cfg, f, mc)
    e2 = estimate_auc(cfg, f, mc)
    assert isinstance(e1, McEstimate)
    assert e1.value == e2.value and e1.std_error == e2.std_error
    assert e1.trials == 150_000
    # a new seed gives a statistically distinct estimate
    e3 = estimate_auc(cfg, f, McConfig(trials=150_000, master_seed=43))
    assert e3.value != e1.value


def test_estimate_auc_fixed_snr_closure():
    mc = McConfig(trials=400_000, master_seed=11)
    for u, g in ((1.0, 2.0), (5.0, 10.0), (2.5, 5.0)):
        cfg = DetectorConfig(u)
        est = estimate_auc(cfg, g, mc)
        ref = auc_awgn(cfg, g, TIGHT).value
        assert abs(est.value - ref) < 4.0 * est.std_error
        assert 0.0 < est.std_error < 0.01


def test_estimate_auc_fading_closure():
    mc = McConfig(trials=400_000, master_seed=12)
    for u, q, mean in ((5.0, 0.5, 10.0), (2.5, 0.1, 3.0)):
        cfg = DetectorConfig(u)
        f = HoytFading(q, mean)
        est = estimate_auc(cfg, f, mc)
        ref = avg_auc_closed(cfg, f).value
        assert abs(est.value - ref) < 4.0 * est.std_error


def test_estimate_auc_uneven_batches():
    cfg = DetectorConfig(2.0)
    est = estimate_auc(cfg, 1.0, McConfig(trials=70_001, master_seed=3))
    assert est.trials == 70_001
    assert 0.5 < est.value < 1.0 and math.isfinite(est.std_error)


def test_estimate_pd_closures():
    cfg = DetectorConfig(2.5)
    lam = threshold_for_pf(cfg, 0.1)
    mc = McConfig(trials=400_000, master_seed=21)
    # fixed SNR against the Marcum form
    est = estimate_pd(cfg, 2.0, lam, mc)
    want = pd_closed(cfg, 2.0, lam)
    se = math.sqrt(want * (1.0 - want) / mc.trials)
    assert abs(est.value - want) < 4.0 * se
    assert est.std_error == pytest.approx(se, rel=0.2)
    # fading-averaged against the quadrature form
    f = HoytFading(0.5, 6.0)
    est = estimate_pd(cfg, f, lam, mc)
    want = avg_pd_quadrature(cfg, f, lam, TIGHT).value
    assert abs(est.value - want) < 4.0 * est.std_error
    # zero SNR reduces to the false-alarm probability
    est = estimate_pd(cfg, 0.0, lam, mc)
    assert abs(est.value - 0.1) < 4.0 * est.std_error


def test_standard_error_scales_with_trials():
    cfg = DetectorConfig(5.0)
    f = HoytFading(0.5, 10.0)
    e_small = estimate_auc(cfg, f, McConfig(trials=50_000, master_seed=5))
    e_large = estimate_auc(cfg, f, McConfig(trials=800_000, master_seed=5))
    assert e_large.std_error < e_small.std_error
    assert e_large.std_error == pytest.approx(e_small.std_error / 4.0,
                                              rel=0.25)


def test_fixed_seed_estimates_are_frozen():
    # recorded before the rank count sorted its H1 queries: the pair counts
    # are sums over a permutation, so the estimates must not move by a bit
    # (200_000 trials is three full batches and a partial one)
    cases = ((2.5, HoytFading(0.5, 10.0), 200_000, 7, 0.8776578442765391),
             (5.0, 3.0, 100_000, 1, 0.7790667226957391),
             (1.0, HoytFading(0.1, 1000.0), 70_000, 3, 0.9952126436556993))
    for u, channel, trials, seed, want in cases:
        est = estimate_auc(DetectorConfig(u), channel,
                           McConfig(trials=trials, master_seed=seed))
        assert est.value == want


def test_estimates_of_zero_or_one_report_the_rule_of_three():
    # no statistic passes the threshold, or every H1 draw outranks every H0
    # draw: the binomial s.e. is 0, so the one-sided 95% bound 3/trials is
    # reported instead
    est = estimate_pd(DetectorConfig(5.0), 0.0, 78.47,
                      McConfig(trials=100_000, master_seed=3))
    assert est.value == 0.0 and est.std_error == 3.0 / 100_000
    est = estimate_auc(DetectorConfig(1.0), HoytFading(1.0, 1e6),
                       McConfig(trials=20_000, master_seed=3))
    assert est.value == 1.0 and est.std_error == 3.0 / 20_000


def test_fading_pd_routes_reject_a_bad_threshold():
    # y > nan is never true, so a nan threshold must not reach the sampler
    cfg, f = DetectorConfig(5.0), HoytFading(0.5, 10.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            avg_pd_quadrature(cfg, f, bad)
        with pytest.raises(ValueError):
            estimate_pd(cfg, f, bad, McConfig(trials=1000))


def test_fixed_snr_estimators_reject_a_non_finite_snr():
    # the check comes before numpy's Poisson sampler sees the value
    cfg, mc = DetectorConfig(5.0), McConfig(trials=1000)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="snr must be finite"):
            estimate_auc(cfg, bad, mc)
        with pytest.raises(ValueError, match="snr must be finite"):
            estimate_pd(cfg, bad, 3.0, mc)


@pytest.mark.parametrize("u", [0.05, 0.7, 4.0, 200.0])
def test_zero_snr_draw_skips_the_poisson_counts(u):
    # Poisson(0) draws no bits: the scalar-shape gamma at snr = 0 gives
    # the H1 draws of 2 Gamma(u + Poisson(0)) bit for bit, and leaves the
    # generator where they leave it
    n = 5000
    fast, full = batch_rng(McConfig(), 3), batch_rng(McConfig(), 3)
    got = _draw_h1(u, 0.0, fast, n)
    want = 2.0 * full.standard_gamma(u + full.poisson(0.0, n))
    assert np.array_equal(got, want)
    assert fast.bit_generator.state == full.bit_generator.state


def _two_search_wins(y0_sorted, y1_sorted):
    below = np.searchsorted(y0_sorted, y1_sorted, side="left")
    below_or_tied = np.searchsorted(y0_sorted, y1_sorted, side="right")
    return 0.5 * (below + below_or_tied).sum()


def test_rank_count_matches_two_searches_on_ties():
    # integer-valued draws (ties everywhere), runs of exact zeros in both
    # samples, H1 draws below every H0 draw, and batches shorter than
    # _BATCH_SIZE: one search plus a second over the tied draws alone
    # gives the two-search count exactly
    rng = np.random.default_rng(5)
    zeros = np.zeros(300)
    cases = [
        (rng.integers(0, 20, 65_536).astype(float),
         rng.integers(0, 25, 65_536).astype(float)),
        (np.concatenate([zeros, rng.gamma(2.0, size=700)]),
         np.concatenate([zeros[:123], rng.gamma(2.0, size=877)])),
        (rng.integers(5, 9, 1001).astype(float),
         rng.integers(0, 6, 999).astype(float)),
        (np.arange(10.0), np.arange(10.0)),
        (np.ones(7), np.zeros(7)),
    ]
    for y0, y1 in cases:
        y0_sorted, y1_sorted = np.sort(y0), np.sort(y1)
        got = _wins(y0_sorted, y1_sorted)
        want = _two_search_wins(y0_sorted, y1_sorted)
        assert got == want and type(got) is type(want)
