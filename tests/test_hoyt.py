"""Hoyt SNR distribution: frozen values, moments, sampling law.

mpmath references for the density/distribution were computed from the
two-Gaussian quadratic form directly (50 digits), not from the Bessel or
Marcum expressions used at runtime.
"""

import math

import numpy as np
import pytest
from scipy import stats

from hoytsense.hoyt import HoytFading, sample_snr, snr_cdf, snr_mgf, snr_pdf
from hoytsense.quadrature import EvalPolicy, integrate_unit_interval

PDF_0P5_1_1 = 0.322826496186083786827       # q=0.5, mean=1, snr=1
PDF_0P05_2_0P3 = 0.483076420715602807235    # q=0.05, mean=2, snr=0.3
CDF_0P5_1_1 = 0.662974936275840053203
CDF_0P3_2_1P7 = 0.636058466244620342356
CDF_0P05_1_0P5 = 0.51994594920524079791
CDF_0P9_3_6 = 0.864660603705552541089


def test_channel_validation():
    HoytFading(1.0, 0.001)
    HoytFading(1e-9, 5.0)
    for q in (0.0, -0.1, 1.0 + 1e-9, math.nan):
        with pytest.raises(ValueError):
            HoytFading(q, 1.0)
    for mean in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            HoytFading(0.5, mean)


def test_q_stops_where_its_square_leaves_the_normal_range():
    # q^2 = 1e-300 is normal; below it the density read 0 at q = 1e-155
    # where the true value is 0.242 (the q -> 0 limit, a chi-square of one
    # degree of freedom scaled by the mean)
    for q in (9.99e-151, 1e-155, 1e-170, 5e-324):
        with pytest.raises(ValueError, match="at least 1e-150"):
            HoytFading(q, 1.0)
    want = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert snr_pdf(HoytFading(1e-150, 1.0), 1.0) == pytest.approx(want,
                                                                  rel=1e-14)


def test_pdf_frozen_values():
    assert snr_pdf(HoytFading(0.5, 1.0), 1.0) == pytest.approx(PDF_0P5_1_1,
                                                               rel=1e-13)
    assert snr_pdf(HoytFading(0.05, 2.0), 0.3) == pytest.approx(
        PDF_0P05_2_0P3, rel=1e-13)


def test_pdf_shape_and_domain():
    f = HoytFading(0.3, 2.0)
    assert snr_pdf(f, 0.0) == pytest.approx((1.0 + 0.09) / (2.0 * 0.3 * 2.0),
                                            rel=1e-13)
    assert snr_pdf(f, 1e4) == 0.0           # decayed to nothing, no overflow
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="snr must be finite"):
            snr_pdf(f, bad)
        with pytest.raises(ValueError, match="snr must be finite"):
            snr_cdf(f, bad)


def test_cdf_frozen_values():
    assert snr_cdf(HoytFading(0.5, 1.0), 1.0) == pytest.approx(CDF_0P5_1_1,
                                                               abs=1e-13)
    assert snr_cdf(HoytFading(0.3, 2.0), 1.7) == pytest.approx(CDF_0P3_2_1P7,
                                                               abs=1e-13)
    assert snr_cdf(HoytFading(0.05, 1.0), 0.5) == pytest.approx(
        CDF_0P05_1_0P5, abs=1e-13)
    assert snr_cdf(HoytFading(0.9, 3.0), 6.0) == pytest.approx(CDF_0P9_3_6,
                                                               abs=1e-13)


def test_cdf_limits_and_monotonicity():
    f = HoytFading(0.4, 1.5)
    assert snr_cdf(f, 0.0) == 0.0
    # far-tail limit: the Marcum difference truncates at a few times its
    # 1e-13 stop tolerance out here, so this is a limit check, not precision
    assert snr_cdf(f, 500.0) == pytest.approx(1.0, abs=1e-11)
    grid = [0.01 * 1.6 ** k for k in range(20)]
    vals = [snr_cdf(f, g) for g in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(x < y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        snr_cdf(f, -1.0)


def test_cdf_consistent_with_pdf_integral():
    pol = EvalPolicy(rel_tol=1e-12)
    for q, mean, g in ((0.15, 0.7, 1.0), (0.6, 3.0, 2.5), (0.95, 1.0, 0.8)):
        f = HoytFading(q, mean)
        ref, _, _ = integrate_unit_interval(lambda t: g * snr_pdf(f, g * t),
                                            pol)
        assert snr_cdf(f, g) == pytest.approx(ref, abs=1e-10)


def test_rayleigh_dispatch_is_seamless():
    # above the dispatch width the Marcum difference path must agree with
    # the exponential limit to far better than the width itself
    mean = 2.0
    for g in (0.5, 2.0, 8.0):
        expo = -math.expm1(-g / mean)
        assert snr_cdf(HoytFading(1.0, mean), g) == expo
        assert snr_cdf(HoytFading(1.0 - 5e-7, mean), g) == expo  # dispatched
        marcum_path = snr_cdf(HoytFading(1.0 - 2e-6, mean), g)
        assert marcum_path == pytest.approx(expo, abs=1e-8)


def test_mgf_closed_form_and_domain():
    f = HoytFading(0.5, 2.0)
    assert snr_mgf(f, 0.0) == 1.0
    # negative axis: compare against the defining radicand directly
    for s in (-3.0, -0.7, -0.01):
        rad = 1.0 - 2.0 * s * 2.0 + (2.0 * s * 2.0 * 0.5 / 1.25) ** 2
        assert snr_mgf(f, s) == pytest.approx(1.0 / math.sqrt(rad), rel=1e-15)
    # the convergence boundary sits at s = (1+q^2)/(2 mean); beyond it the
    # radicand crosses zero and evaluation must refuse
    s_edge = (1.0 + 0.25) / (2.0 * 2.0)
    assert snr_mgf(f, s_edge * 0.999) > 10.0
    with pytest.raises(ValueError):
        snr_mgf(f, s_edge * 1.0001)
    with pytest.raises(ValueError):
        snr_mgf(HoytFading(1.0, 4.0), 0.25)   # rayleigh pole s = 1/mean


def test_mgf_matches_sampled_mean():
    f = HoytFading(0.35, 1.4)
    rng = np.random.default_rng(2718)
    draws = sample_snr(f, rng, 400_000)
    for s in (-1.5, -0.4):
        emp = float(np.mean(np.exp(s * draws)))
        se = float(np.std(np.exp(s * draws))) / math.sqrt(draws.size)
        assert abs(emp - snr_mgf(f, s)) < 4.0 * se


def test_sample_snr_moments():
    rng = np.random.default_rng(90125)
    for q, mean in ((0.1, 1.0), (0.5, 3.0), (1.0, 0.5)):
        f = HoytFading(q, mean)
        g = sample_snr(f, rng, 1_000_000)
        assert g.min() >= 0.0
        se1 = float(np.std(g)) / math.sqrt(g.size)
        assert abs(float(np.mean(g)) - mean) < 4.0 * se1
        q2 = q * q
        want_m2 = mean * mean * (3.0 + 2.0 * q2 + 3.0 * q2 * q2) \
            / (1.0 + q2) ** 2
        g2 = g * g
        se2 = float(np.std(g2)) / math.sqrt(g.size)
        assert abs(float(np.mean(g2)) - want_m2) < 4.0 * se2


def test_sample_snr_distribution_against_cdf():
    # Kolmogorov-Smirnov against the analytic distribution at two q values
    rng = np.random.default_rng(55)
    f = HoytFading(1.0, 2.0)
    d = sample_snr(f, rng, 200_000)
    res = stats.kstest(d, lambda x: -np.expm1(-x / 2.0))
    assert res.pvalue > 0.01
    f = HoytFading(0.3, 1.0)
    d = sample_snr(f, rng, 200_000)
    res = stats.kstest(d, np.vectorize(lambda x: snr_cdf(f, float(x))))
    assert res.pvalue > 0.01


def test_sample_snr_draw_order_is_pinned():
    # reproducibility contract: z1 batch then z2 batch from the same stream
    f = HoytFading(0.4, 2.5)
    got = sample_snr(f, np.random.default_rng(17), 1000)
    rng = np.random.default_rng(17)
    z1 = rng.standard_normal(1000)
    z2 = rng.standard_normal(1000)
    q2 = 0.4 * 0.4
    want = 2.5 / (1.0 + q2) * (z1 * z1 + q2 * (z2 * z2))
    assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        sample_snr(f, rng, 0)
