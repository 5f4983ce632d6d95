"""Kernel special functions against high-precision reference values.

Reference constants were computed independently with mpmath at 50-digit
working precision and frozen here; tolerances are relative unless the value
itself is O(1), in which case absolute and relative coincide.
"""

import inspect
import math
import random
import sys
import time

import pytest

from hoytsense import average, specfun
from hoytsense.specfun import (ConvergenceError, _marcum_q, bessel_i,
                               binomial, kummer_1f1, laguerre, ln_gamma,
                               marcum_q, pochhammer, reg_upper_gamma)

# mpmath mp.loggamma / mp.gammainc(regularized=True)
LGAMMA_5P5 = 3.95781396761871629388
RUG_5_5 = 0.440493285065212411443
RUG_3_2P5 = 0.543813115883329517998
RUG_0P5_0P1 = 0.654720846018577029403
RUG_2P7_3P1 = 0.331999170052872127641

# mpmath mp.besseli
I0_1 = 1.2660658777520083356
I0_0P5 = 1.06348337074132351926
I1_2P3 = 2.09780002751742147684
I2P5_1P7 = 0.245280222047693300305
I0S_800 = 0.0141069450058691839791     # exp(-x) I0(x) at x = 800
I0S_150 = 0.0326007478839180494851
I1S_150 = 0.0324918963888489424816

# mpmath 1 - int_0^b t (t/a)^(m-1) exp(-(t^2+a^2)/2) I_(m-1)(a t) dt
MARCUM_1_1_1 = 0.732879803796820218251
MARCUM_1_2_1 = 0.918107696369406003911
MARCUM_2P5_1P3_2P1 = 0.664290114625566931586
MARCUM_5_2_3 = 0.790576956531218788481
MARCUM_1_10P5_11 = 0.325125710704336596302

# mpmath mp.hyp1f1
KUM_2_3_M1 = 0.528482235314230713618
KUM_0P5_1P5_M10 = 0.280247390506642740635

# mpmath mp.laguerre
LAG_12_2P5_7 = -6.80175944401804891544


def test_ln_gamma_spot_values():
    assert ln_gamma(5.5) == pytest.approx(LGAMMA_5P5, rel=1e-15)
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(2.0) == 0.0
    # recurrence ln G(x+1) = ln G(x) + ln x
    for x in (0.3, 1.7, 9.2):
        assert ln_gamma(x + 1.0) == pytest.approx(ln_gamma(x) + math.log(x),
                                                  rel=1e-14, abs=1e-14)


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-2.5)


def test_regularized_gamma_frozen_values():
    assert reg_upper_gamma(5.0, 5.0) == pytest.approx(RUG_5_5, rel=1e-13)
    assert reg_upper_gamma(3.0, 2.5) == pytest.approx(RUG_3_2P5, rel=1e-13)
    assert reg_upper_gamma(0.5, 0.1) == pytest.approx(RUG_0P5_0P1, rel=1e-13)
    assert reg_upper_gamma(2.7, 3.1) == pytest.approx(RUG_2P7_3P1, rel=1e-13)


def test_regularized_gamma_complement_and_limits():
    for a in (0.4, 1.0, 3.3, 12.0):
        for x in (1e-3, 0.5, 2.0, 30.0):
            assert 0.0 <= reg_upper_gamma(a, x) <= 1.0
    assert reg_upper_gamma(2.0, 0.0) == 1.0
    assert reg_upper_gamma(2.0, 900.0) < 1e-300


def test_regularized_gamma_rejects_bad_domain():
    with pytest.raises(ValueError):
        reg_upper_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_upper_gamma(2.0, -0.5)


def test_bessel_frozen_values():
    # bessel_i is scaled by e^-x; the constants are the unscaled I_nu(x)
    for nu, x, want in ((0.0, 1.0, I0_1), (0.0, 0.5, I0_0P5),
                        (1.0, 2.3, I1_2P3), (2.5, 1.7, I2P5_1P7)):
        assert bessel_i(nu, x) * math.exp(x) == pytest.approx(want, rel=1e-14)


def test_bessel_scaled_frozen_values():
    # all three are past the crossover x = 25 + nu^2, in the asymptotic
    # branch, which carries the exp(-x) factor internally
    assert bessel_i(0.0, 800.0) == pytest.approx(I0S_800, rel=1e-13)
    assert bessel_i(0.0, 150.0) == pytest.approx(I0S_150, rel=1e-13)
    assert bessel_i(1.0, 150.0) == pytest.approx(I1S_150, rel=1e-13)


def test_bessel_half_order_closed_form():
    # I_(1/2)(x) = sqrt(2/(pi x)) sinh x
    for x in (0.3, 2.0, 10.0):
        want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert bessel_i(0.5, x) * math.exp(x) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 2.5, 5.0])
def test_bessel_holds_5e_14_against_mpmath(nu):
    # a log grid of x from 1e-3 to 1.5e3, and the points on either side of
    # the switch from the ascending series to the asymptotic expansion at
    # x = 25 + nu^2.  The series' e^(-x) scaling rounds by ~x ulps, so one
    # run out to a few hundred misses 5e-14.  Order 0 is the fixed
    # polynomials, held to 2e-15
    import mp_reference
    cross = 25.0 + nu * nu
    bound = 2e-15 if nu == 0.0 else 5e-14
    grid = [1e-3 * 1.5e6 ** (i / 96.0) for i in range(97)]
    for x in grid + [cross - 0.5, math.nextafter(cross, 0.0), cross,
                     math.nextafter(cross, math.inf), cross + 0.5]:
        want = mp_reference.bessel_i(nu, x)
        assert abs(bessel_i(nu, x) - want) <= bound * want, x


def _best_times(nu, xs, rounds=50):
    # best of interleaved rounds of 20 calls at each x
    best = dict.fromkeys(xs, math.inf)
    for _ in range(rounds):
        for x in xs:
            start = time.perf_counter()
            for _ in range(20):
                bessel_i(nu, x)
            best[x] = min(best[x], time.perf_counter() - start)
    return best


def test_bessel_cost_is_flat_past_the_crossover():
    # past x = 25 + nu^2 (26 at nu = 1) the asymptotic expansion, whose
    # term count falls as x grows, takes over from the series, whose count
    # grows as x/2 (at x = 600 it would take ~10 times as long as at 26)
    xs = (26.0, 100.0, 600.0, 1500.0)
    best = _best_times(1.0, xs)
    for x in xs[1:]:
        assert best[x] < best[26.0], (x, best)


def test_bessel_order_zero_cost_is_flat():
    # one degree-11 polynomial wherever x lies
    best = _best_times(0.0, (1e-3, 1.0, 8.0, 25.0, 100.0, 1e4))
    assert max(best.values()) < 2.0 * min(best.values()), best


def test_bessel_order_zero_holds_2e_15_from_1e_300_to_1e300():
    # a point every third decade over the double range, ten a decade from
    # 1e-3 to 1e6, and both sides of every edge between the fixed
    # polynomials (mpmath takes ~10 ms a point at 1e200)
    import mp_reference
    grid = ([10.0 ** k for k in range(-300, 301, 3)]
            + [10.0 ** (k / 10.0) for k in range(-30, 61)])
    edges = specfun._I0E_EDGES[1:] + (64.0,)
    sides = [math.nextafter(e, d) for e in edges for d in (0.0, math.inf)]
    worst = max(abs(bessel_i(0.0, x) - mp_reference.bessel_i(0.0, x))
                / mp_reference.bessel_i(0.0, x) for x in grid + sides)
    assert worst <= 2e-15


def test_bessel_at_zero_argument():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(1.5, 0.0) == 0.0


def test_marcum_frozen_values():
    assert marcum_q(1.0, 1.0, 1.0) == pytest.approx(MARCUM_1_1_1, rel=1e-13)
    assert marcum_q(1.0, 2.0, 1.0) == pytest.approx(MARCUM_1_2_1, rel=1e-13)
    assert marcum_q(2.5, 1.3, 2.1) == pytest.approx(MARCUM_2P5_1P3_2P1, rel=1e-13)
    assert marcum_q(5.0, 2.0, 3.0) == pytest.approx(MARCUM_5_2_3, rel=1e-13)
    # large, nearly balanced arguments: the window around a^2/2 = 55 meets
    # the threshold b^2/2 = 60.5 inside it, where Q climbs fastest
    assert marcum_q(1.0, 10.5, 11.0) == pytest.approx(MARCUM_1_10P5_11, rel=1e-12)


def test_marcum_degenerate_arguments():
    # zero noncentrality reduces to the regularized upper gamma
    for m in (1.0, 2.5, 5.0):
        for b in (0.7, 2.0):
            assert marcum_q(m, 0.0, b) == pytest.approx(
                reg_upper_gamma(m, 0.5 * b * b), rel=1e-13)
    assert marcum_q(3.0, 2.0, 0.0) == 1.0


def test_marcum_monotonicity_and_range():
    bs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    for m in (1.0, 3.5):
        for a in (0.0, 1.0, 3.0):
            vals = [marcum_q(m, a, b) for b in bs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(x >= y - 1e-14 for x, y in zip(vals, vals[1:]))
        # larger noncentrality shifts mass upward
        for b in (1.0, 3.0):
            assert marcum_q(m, 2.0, b) >= marcum_q(m, 1.0, b) - 1e-14


def test_kummer_frozen_values():
    assert kummer_1f1(2.0, 3.0, -1.0) == pytest.approx(KUM_2_3_M1, rel=1e-13)
    assert kummer_1f1(0.5, 1.5, -10.0) == pytest.approx(KUM_0P5_1P5_M10, rel=1e-12)
    # terminating polynomial case, exact rational value
    assert kummer_1f1(-3.0, 2.0, 5.0) == pytest.approx(19.0 / 24.0, rel=1e-14)


def test_kummer_exponential_identity():
    for a in (0.5, 2.0, 7.0):
        for x in (-6.0, -0.3, 1.2, 4.0):
            assert kummer_1f1(a, a, x) == pytest.approx(math.exp(x), rel=1e-12)


def test_kummer_regularized_nonpositive_denominator():
    # terminating numerator with nonpositive integer b: leading 1/Gamma(b+k)
    # terms vanish, leaving a short polynomial (values derived by hand)
    assert kummer_1f1(-2.0, -1.0, 1.5, regularized=True) == pytest.approx(
        1.5 ** 2, rel=1e-14)
    assert kummer_1f1(-3.0, -1.0, 2.0, regularized=True) == pytest.approx(
        3.0 * 4.0 - 8.0, rel=1e-14)
    # regularized at positive b is the plain value over Gamma(b)
    assert kummer_1f1(2.0, 3.0, -1.0, regularized=True) == pytest.approx(
        KUM_2_3_M1 / math.gamma(3.0), rel=1e-13)


def test_laguerre_frozen_and_explicit():
    assert laguerre(12, 2.5, 7.0) == pytest.approx(LAG_12_2P5_7, rel=1e-12)
    # low orders against the textbook polynomials
    for alpha in (0.0, 1.0, 4.0):
        for x in (-2.0, 0.0, 1.3):
            assert laguerre(0, alpha, x) == 1.0
            assert laguerre(1, alpha, x) == pytest.approx(alpha + 1.0 - x,
                                                          rel=1e-14, abs=1e-14)
            want2 = 0.5 * x * x - (alpha + 2.0) * x \
                + 0.5 * (alpha + 1.0) * (alpha + 2.0)
            assert laguerre(2, alpha, x) == pytest.approx(want2, rel=1e-13,
                                                          abs=1e-13)


def test_laguerre_rejects_bad_order():
    with pytest.raises(ValueError):
        laguerre(-1, 2.0, 1.0)


def test_pochhammer_and_binomial():
    assert pochhammer(3.0, 4) == 3.0 * 4.0 * 5.0 * 6.0
    assert pochhammer(0.5, 3) == pytest.approx(0.5 * 1.5 * 2.5, rel=1e-15)
    assert pochhammer(2.0, 0) == 1.0
    # negative n: (a)_(-n) = 1/(a-n)_n
    assert pochhammer(5.0, -2) == pytest.approx(1.0 / (3.0 * 4.0), rel=1e-15)
    with pytest.raises(ValueError):
        pochhammer(2.0, -3)  # hits the pole at zero
    assert binomial(5.0, 2) == 10.0
    assert binomial(4.5, 3) == pytest.approx(4.5 * 3.5 * 2.5 / 6.0, rel=1e-15)
    assert binomial(3.0, 0) == 1.0
    with pytest.raises(ValueError):
        binomial(3.0, -1)
    # consistency with the rising factorial
    for top, k in ((7.5, 3), (2.0, 2), (10.3, 5)):
        assert binomial(top, k) == pytest.approx(
            pochhammer(top - k + 1.0, k) / math.factorial(k), rel=1e-13)


def test_series_cap_raises_convergence_error():
    # a^2/2 = 5e9: the Poisson window would need ~7e5 terms each side of
    # its mode, past the fixed term cap, and says so before walking them
    with pytest.raises(ConvergenceError, match=(
            r"^Marcum Q at m=1\.0, a=100000\.0, b=100000\.0: the Poisson "
            r"weights of a\^2/2=5000000000\.0 cannot close within 10000 "
            r"terms of their mode$")):
        marcum_q(1.0, 1e5, 1e5)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            marcum_q(1.0, 1e5, 1e5)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01


@pytest.mark.parametrize("m, h, lam", [
    (150.0, 1436.0, 3025.0), (150.0, 1e4, 20600.0), (5.0, 1e5, 200900.0),
    (5.0, 1e6, 2e6), (5.0, 1e6, 2004000.0)])
def test_marcum_within_its_bound_at_large_noncentrality(m, h, lam):
    # a^2/2 = h up to 1e6: the window's weights are divided by their own
    # sum, so the rounding of the mode's exponent (~h ln h ulps) drops out.
    # What is left, the column anchor's own prefactor, is in the bound
    import mp_reference
    a, b = math.sqrt(2.0 * h), math.sqrt(lam)
    want = mp_reference.marcum_q(m, a, b)
    value, err = _marcum_q(m, a, b)
    assert value == marcum_q(m, a, b)
    assert abs(value - want) <= err
    assert err < 1e-10 * want


def test_marcum_leaves_the_unit_interval_by_less_than_its_bound():
    # nothing clamps the sum into [0, 1]; where rounding carries it out,
    # the returned bound covers the excess.  Noncentralities a^2/2 from 10
    # to 1e6, thresholds 1 to 10 standard deviations below the mean, where
    # Q is near 1 and some sums do pass it
    rng = random.Random(20261019)
    outside = 0
    for _ in range(100):
        m = rng.choice((0.05, 0.7, 5.0, 60.5, 500.0))
        h = 10.0 ** rng.uniform(1.0, 6.0)
        mean, sd = 2.0 * (h + m), math.sqrt(4.0 * m + 8.0 * h)
        lam = max(0.0, mean - rng.uniform(1.0, 10.0) * sd)
        value, err = _marcum_q(m, math.sqrt(2.0 * h), math.sqrt(lam))
        assert -err <= value <= 1.0 + err, (m, h, lam)
        outside += not 0.0 <= value <= 1.0
    assert outside > 0


def test_specfun_has_no_unit_interval_clamp():
    source = inspect.getsource(specfun)
    assert "min(1.0, max(0.0" not in source


def test_one_poisson_mixture_entry_point():
    # each Poisson mixture is one plain loop of its own (Marcum Q here, the
    # fixed-SNR CAUC in detector, the closed Pd's two sums in average):
    # the generic weights/column protocol and its helpers are gone, and
    # average's law is no specfun column
    for name in ("_Window", "_mixture", "_Weights", "_Poisson", "_Column",
                 "_drawn", "_increments"):
        assert not hasattr(specfun, name), name
    assert not hasattr(specfun._BetaTable, "column")
    assert average._Law.__bases__ == (object,)
    for name in ("_MAX_H", "_Window", "_SURE", "_mixture", "_series_value",
                 "_closed_miss", "_closed_hit"):
        assert not hasattr(average, name), name


@pytest.mark.parametrize("b", [43.0, 43.565, 45.0])
def test_marcum_below_the_normal_range(b):
    # Q_60.5(0.7746, b) is 5.8e-305, 7.3e-315 (subnormal) and 1.2e-340
    # (0 in doubles): the upward stop test must pass where a fraction of a
    # subnormal total rounds to 0.  The reference sums the Poisson mixture
    # of regularized gammas term by term at 50 digits (mpmath.nsum
    # misjudges tails this small); by k = 200 the terms fall by > 1e-300
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        h = mpmath.mpf(0.7746) ** 2 / 2
        x = mpmath.mpf(b) ** 2 / 2
        want = mpmath.fsum(
            mpmath.exp(-h) * h ** k / mpmath.factorial(k)
            * mpmath.gammainc(60.5 + k, x, regularized=True)
            for k in range(200))
        got = marcum_q(60.5, 0.7746, b)
        assert abs(got - want) <= 1e-300
        if want > sys.float_info.min:
            assert abs(got - want) <= 1e-12 * want
    best = math.inf
    for _ in range(20):
        start = time.perf_counter()
        marcum_q(60.5, 0.7746, b)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3


def test_marcum_tiny_q_far_above_the_mode():
    # a^2/2 = 644136.37, b^2/2 = 655759.65: Q ~ 1.1e-24, whose terms peak
    # ~5,800 above the Poisson mode and are needed to ~10,700 past it, more
    # than _MAX_TERMS; only the terms summed past the window count
    import mp_reference
    a, b = math.sqrt(2.0 * 644136.37), math.sqrt(2.0 * 655759.65)
    value, err = _marcum_q(5.0, a, b)
    want = mp_reference.marcum_q(5.0, a, b)
    assert 1e-24 < want < 1.2e-24
    assert abs(value - want) <= err < 1e-10 * want


def test_marcum_walk_past_its_cap_names_the_loop():
    # a^2/2 = 1e6, b^2/2 = 1.03e6: Q ~ e^-226 (scipy's ncx2), whose terms
    # peak ~15,000 above the Poisson mode and are needed to ~22,000, more
    # than _MAX_TERMS past the weights' reach: the walk up says so
    a, b = math.sqrt(2e6), math.sqrt(2.06e6)
    with pytest.raises(ConvergenceError, match=(
            r"^Marcum Q at m=5\.0, a=1414\.2\d+, b=1435\.2\d+: the sum passed "
            r"10000 terms past the reach of its Poisson weights$")):
        marcum_q(5.0, a, b)


@pytest.mark.parametrize("h", [1.296e5, 1.3e5, 1.305e5, 1.313e5])
def test_marcum_whose_terms_peak_far_above_the_mode(h):
    # b^2/2 = 1.5e5: Q is 3.3e-326, 3.6e-313, 2.8e-297 and 8.8e-273, where
    # its Chernoff bound is above 2^-1075.  The column lifts the terms'
    # peak ~9,000 above the Poisson mode, and the walk follows them up
    # there and stops on their own falling ratio
    import mp_reference
    a, b = math.sqrt(2.0 * h), math.sqrt(3e5)
    value, err = _marcum_q(5.0, a, b)
    want = mp_reference.marcum_q(5.0, a, b)
    assert abs(value - want) <= err
    if want > sys.float_info.min:
        assert err < 1e-10 * want


@pytest.mark.parametrize("h", [1.15e5, 1.29e5])
def test_marcum_far_below_the_subnormal_range_is_zero(h):
    # b^2/2 = 1.5e5: Q is 6.6e-1011 and 2.7e-346.  The Chernoff bound on Q
    # is below 2^-1075 there, so 0 is Q's rounding, with no sum
    import mp_reference
    a, b = math.sqrt(2.0 * h), math.sqrt(3e5)
    half_subnormal = mp_reference.mp.mpf(2) ** -1075
    assert mp_reference.marcum_q(5.0, a, b) < half_subnormal
    assert _marcum_q(5.0, a, b) == (0.0, 5e-324)
    assert marcum_q(5.0, a, b) == 0.0


def test_marcum_subnormal_anchor_increment():
    # at h = 65, x = 1012.5 the increment at the Poisson mode is subnormal
    # while the increments still rise; upward products from it put Q 0.86%
    # high.  The mixture's terms peak near k = 200, far above the mode, and
    # are below 1e-300 of the total by k = 600
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        h = mpmath.mpf(11.4) ** 2 / 2
        x = mpmath.mpf(45) ** 2 / 2
        want = mpmath.fsum(
            mpmath.exp(-h) * h ** k / mpmath.factorial(k)
            * mpmath.gammainc(12.7 + k, x, regularized=True)
            for k in range(600))
    assert abs(marcum_q(12.7, 11.4, 45.0) - want) <= 1e-13 * want


def test_marcum_threshold_whose_half_underflows():
    # b^2/2 below the subnormal range is the zero threshold, not log(0)
    for m, a in ((0.05, 0.0), (0.05, 3.0), (5.0, 3.0)):
        assert marcum_q(m, a, math.sqrt(5e-324)) == 1.0


def test_kummer_overflow_raises():
    # the terms pass double range near k = x; inf <= rel_tol * inf must not
    # end the sum as converged
    assert math.isfinite(kummer_1f1(0.5, 1.5, 600.0))
    with pytest.raises(OverflowError):
        kummer_1f1(0.5, 1.5, 2000.0)


def test_ln_gamma_ratio_error_bound_below_30():
    # math.lgamma's rounding does not shrink near its zeros, so the relative
    # claim alone fell short by up to 18x (u = 1.017); the bound also holds
    # the worst point of a 23,000-point search (u = 1.983, 7.3 eps past the
    # relative part)
    mp = pytest.importorskip("mpmath")
    us = [0.05 + 29.95 * i / 640 for i in range(640)]
    us += [0.549, 1.017, 1.9830061436799609]
    misses = []
    with mp.workdps(40):
        for u in us:
            value, err = specfun._ln_gamma_ratio(u)
            want = mp.loggamma(u + 0.5) - mp.loggamma(u + 1)
            if not abs(value - want) <= err:
                misses.append((u, float(abs(value - want)), err))
    assert misses == []


def test_bessel_at_the_smallest_subnormal_argument():
    # x/2 underflows to 0 there; the series' first term is taken from ln x
    x = 5e-324
    assert bessel_i(0.0, x) == 1.0
    # I_(1/2)(x) ~ sqrt(2x/pi) as x -> 0
    want = math.sqrt(2.0 / math.pi) * math.sqrt(x)
    assert bessel_i(0.5, x) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(1.7735e-162, rel=1e-4)
    assert 0.0 <= bessel_i(1.0, x) <= 5e-324


def test_beta_tails_within_their_reported_error():
    # d_l = I_{1/2}(u+l, u) summed from far out inwards, against mpmath,
    # through the first blocks and well past 2u: at u = 499.5 the
    # increments fall by only ~1 - 1/(2u) a step near l = 0, so a sum
    # started too close to its block loses whole digits there
    import mp_reference
    for u in (0.05, 2.5, 499.5):
        table = specfun._BetaTable(u)
        top = int(2.0 * u)
        ls = sorted({0, 1, 2, 31, 32, 33, 63, 64, 100, top + 1, top + 40,
                     top + 300})
        d = table.tails(ls[-1] + 1)
        for l in ls:
            want = mp_reference.beta_tail(u, l)
            assert abs(d[l] - want) <= table.rel[l] * want, (u, l)
            assert table.rel[l] < 1e-12, (u, l)
