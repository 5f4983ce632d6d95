"""Executable validation suites.

Each suite function returns (name, passed, detail) triples; the CLI renders
them as a table and folds the booleans into its exit code.  The pytest suite
exercises the same properties independently — these exist so a built
artifact can be interrogated without a test harness present.

The errata suite is the exception log made executable: for every defective
published transcription this package corrects, it prints the as-printed
value, the corrected value, and the independent reference (quadrature of
the defining integral, or the integrated density for the distribution
function), so the corrections stay justified by numbers rather than by
assertion.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from . import average, detector, hoyt, montecarlo, specfun
from .quadrature import EvalPolicy, integrate_half_line, integrate_unit_interval
from .specfun import ConvergenceError

__all__ = ["SUITES", "run_suite", "specfun_suite", "detector_suite",
           "hoyt_suite", "average_suite", "mc_suite", "errata_suite"]

Line = Tuple[str, bool, str]

_Q_GRID = (0.1, 0.3, 0.5, 0.75, 1.0)
_DB_GRID = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

def specfun_suite() -> List[Line]:
    lines: List[Line] = []

    # reg_upper_gamma takes 1 - P from the series below x = a + 1 and Q from
    # the continued fraction above it; at the switch the two must agree
    worst = 0.0
    for a in (0.3, 1.0, 2.5, 5.0, 7.3):
        x = a + 1.0
        worst = max(worst, abs(1.0 - specfun._lower_gamma_series(a, x)
                               - specfun._upper_gamma_cf(a, x)))
    lines.append(("incomplete_gamma_branches_agree", worst < 1e-13,
                  f"max |1 - P_series - Q_cf| at x=a+1 = {worst:.2e}"))

    # order recurrence of the Marcum function against the scaled Bessel term
    worst = 0.0
    for m in (1.0, 2.0, 2.5, 5.0):
        for a in (0.5, 1.0, 2.2):
            for b in (0.4, 1.0, 1.9, 3.0):
                lhs = specfun.marcum_q(m + 1.0, a, b) - specfun.marcum_q(m, a, b)
                rhs = ((b / a) ** m * math.exp(-0.5 * (a - b) ** 2)
                       * specfun.bessel_i(m, a * b))
                worst = max(worst, abs(lhs - rhs))
    lines.append(("marcum_order_recurrence", worst < 1e-10,
                  f"max |Q_(m+1)-Q_m - Bessel term| = {worst:.2e}"))

    worst = 0.0
    for u in (1.0, 2.5, 5.0):
        for lam in (0.5, 2.0, 10.0):
            worst = max(worst, abs(specfun.marcum_q(u, 0.0, math.sqrt(lam))
                                   - specfun.reg_upper_gamma(u, 0.5 * lam)))
    lines.append(("marcum_zero_noncentrality", worst < 1e-12,
                  f"max |Q_u(0,sqrt(l)) - Q(u,l/2)| = {worst:.2e}"))

    worst = 0.0
    for a in (0.5, 2.0, 5.5):
        for x in (-8.0, -1.0, 0.5, 3.0):
            got = specfun.kummer_1f1(a, a, x)
            worst = max(worst, abs(got - math.exp(x)) / math.exp(x))
    lines.append(("kummer_exponential_reduction", worst < 1e-12,
                  f"max rel |1F1(a;a;x) - e^x| = {worst:.2e}"))

    worst = 0.0
    for n, alpha, x in ((3, 5.0, -2.0), (5, 2.5, 1.7), (12, 2.5, 7.0)):
        explicit = math.fsum(
            (-1.0) ** k * specfun.binomial(n + alpha, n - k) * x ** k
            / math.factorial(k) for k in range(n + 1))
        got = specfun.laguerre(n, alpha, x)
        worst = max(worst, abs(got - explicit) / max(abs(explicit), 1.0))
    lines.append(("laguerre_explicit_sum", worst < 1e-11,
                  f"max rel recurrence-vs-sum = {worst:.2e}"))

    worst = 0.0
    for a, k in ((7.5, 3), (4.0, 4), (2.3, 0), (10.0, 7)):
        lhs = specfun.binomial(a, k)
        rhs = specfun.pochhammer(a - k + 1.0, k) / math.factorial(k)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    lines.append(("binomial_pochhammer_consistency", worst < 1e-13,
                  f"max rel = {worst:.2e}"))

    # the order-0 polynomials against the ascending series up to x = 25 and
    # the asymptotic expansion, summed to 1e-17, past it: at each piece's
    # middle and on both sides of each edge, which share one series value
    # (the last piece, from 64 up, is taken to 4096)
    def series(x):
        return (specfun._bessel_series(0.0, x) if x <= 25.0
                else specfun._bessel_asymptotic(0.0, x, 1e-17))

    worst, points = 0.0, 0
    edges = specfun._I0E_EDGES + (64.0, 4096.0)
    for a, b in zip(edges, edges[1:]):
        mid, at_b = 0.5 * (a + b), series(b)
        for x, want in ((mid, series(mid)), (b, at_b),
                        (math.nextafter(b, a), at_b)):
            worst = max(worst, abs(specfun.bessel_i(0.0, x) - want) / want)
            points += 1
    lines.append(("bessel_i0_pieces_match_series", worst < 1e-14,
                  f"max rel |polynomial - series| at {points} points = "
                  f"{worst:.2e}"))

    # a^2/2 = 5e9: the Poisson window would need ~7e5 terms each side of its
    # mode, far past the term cap
    try:
        specfun.marcum_q(1.0, 1e5, 1e5)
        lines.append(("series_cap_raises", False, "no ConvergenceError raised"))
    except ConvergenceError:
        lines.append(("series_cap_raises", True,
                      f"ConvergenceError at the {specfun._MAX_TERMS}-term "
                      "cap as required"))
    return lines


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------

def detector_suite() -> List[Line]:
    lines: List[Line] = []
    tight = EvalPolicy(rel_tol=1e-12)

    ok = True
    for u, g in ((1.0, 2.0), (5.0, 10.0), (2.5, 5.0), (7.3, 0.5)):
        cfg = detector.DetectorConfig(u)
        a = detector.auc_awgn(cfg, g, tight)
        c = detector.cauc_awgn(cfg, g, tight)
        ok = ok and (a.value + c.value == 1.0)
    lines.append(("auc_cauc_complement_exact", ok, "auc + cauc == 1 bitwise"))

    worst = 0.0
    for u in (1.0, 2.0, 5.0, 2.5, 7.3):
        cfg = detector.DetectorConfig(u)
        worst = max(worst, abs(detector.auc_awgn(cfg, 0.0, tight).value - 0.5))
    lines.append(("auc_half_at_zero_snr", worst < 1e-12,
                  f"max |A(0)-1/2| = {worst:.2e}"))

    ok = True
    for u in (1.0, 2.5, 5.0):
        cfg = detector.DetectorConfig(u)
        prev = -1.0
        for i in range(101):
            val = detector.auc_awgn(cfg, 0.5 * i, tight).value
            if val < prev - 1e-12:
                ok = False
            prev = val
    lines.append(("auc_nondecreasing_in_snr", ok, "grid snr = 0..50 step 0.5"))

    worst10, worst12 = 0.0, 0.0
    for u in range(1, 6):
        cfg = detector.DetectorConfig(float(u))
        for g in (0.5, 3.7, 10.0):
            lag = detector.auc_awgn(cfg, g, tight).value
            hyp = detector.auc_awgn_1f1_variant(cfg, g).value
            ser = detector.auc_awgn_series(cfg, g, tight).value
            worst10 = max(worst10, abs(lag - hyp))
            worst12 = max(worst12, abs(lag - ser))
    lines.append(("integer_auc_three_forms_agree",
                  worst10 < 1e-10 and worst12 < 1e-12,
                  f"laguerre-vs-1f1 {worst10:.2e}, laguerre-vs-series {worst12:.2e}"))

    worst = 0.0
    for u, g in ((1.0, 2.0), (2.0, 3.7), (5.0, 10.0), (2.5, 5.0),
                 (1.5, 12.0), (7.3, 0.5)):
        cfg = detector.DetectorConfig(u)
        closed = detector.auc_awgn(cfg, g, tight).value
        quad = detector.auc_quadrature(cfg, g, tight).value
        worst = max(worst, abs(closed - quad))
    lines.append(("auc_closed_vs_quadrature", worst < 1e-8,
                  f"max |closed - quadrature| = {worst:.2e}"))

    cfg = detector.DetectorConfig(2.5)
    prev = -1.0
    ok = True
    for k in range(1, 20):
        p = k / 20.0
        val = detector.pd(cfg, 2.0, detector.threshold_for_pf(cfg, p))
        if val < prev:
            ok = False
        prev = val
    pts = detector.roc_points_awgn(detector.DetectorConfig(1.0), 2.0, 100)
    trap = math.fsum((pts[i + 1][0] - pts[i][0])
                     * 0.5 * (pts[i + 1][1] + pts[i][1]) for i in range(99))
    want = 1.0 - math.exp(-1.0) / 2.0
    ok = ok and abs(trap - want) < 0.005
    lines.append(("roc_trace_valid", ok,
                  f"pd nondecreasing in pf; trapezoid dev = {abs(trap - want):.2e}"))
    return lines


# ---------------------------------------------------------------------------
# hoyt channel
# ---------------------------------------------------------------------------

def hoyt_suite() -> List[Line]:
    lines: List[Line] = []
    pol = EvalPolicy(rel_tol=1e-12)
    qs = (0.05, 0.1, 0.3, 0.5, 0.75, 1.0)
    gbars = (0.1, 1.0, 10.0, 100.0)

    worst_n, worst_m = 0.0, 0.0
    for q in qs:
        for gb in gbars:
            f = hoyt.HoytFading(q, gb)
            total, _, _ = integrate_half_line(lambda g: hoyt.snr_pdf(f, g),
                                              pol, scale=gb)
            mean, _, _ = integrate_half_line(lambda g: g * hoyt.snr_pdf(f, g),
                                             pol, scale=gb)
            worst_n = max(worst_n, abs(total - 1.0))
            worst_m = max(worst_m, abs(mean - gb) / gb)
    lines.append(("pdf_normalization", worst_n < 1e-10,
                  f"max |integral - 1| = {worst_n:.2e} over {len(qs)}x{len(gbars)} grid"))
    lines.append(("pdf_mean", worst_m < 1e-8,
                  f"max rel |mean - mean_snr| = {worst_m:.2e}"))

    worst = 0.0
    for q, gb in ((0.05, 1.0), (0.3, 2.0), (0.5, 1.0), (0.75, 10.0), (1.0, 2.5)):
        f = hoyt.HoytFading(q, gb)
        for frac in (0.2, 1.0, 3.0):
            g = frac * gb
            ref, _, _ = integrate_unit_interval(
                lambda t: g * hoyt.snr_pdf(f, g * t), pol)
            worst = max(worst, abs(hoyt.snr_cdf(f, g) - ref))
    lines.append(("cdf_matches_pdf_integral", worst < 1e-8,
                  f"max |cdf - integral| = {worst:.2e}"))

    worst = 0.0
    for q, gb in ((0.1, 1.0), (0.5, 2.0), (1.0, 0.5)):
        f = hoyt.HoytFading(q, gb)
        for s in (-2.0, -1.0, -0.5, -0.1):
            ref, _, _ = integrate_half_line(
                lambda g: math.exp(s * g) * hoyt.snr_pdf(f, g), pol, scale=gb)
            worst = max(worst, abs(hoyt.snr_mgf(f, s) - ref))
    lines.append(("mgf_matches_pdf_transform", worst < 1e-8,
                  f"max |mgf - integral| = {worst:.2e}"))

    f = hoyt.HoytFading(1.0, 2.5)
    worst = 0.0
    for g in (0.1, 1.0, 3.0, 10.0):
        worst = max(worst, abs(hoyt.snr_pdf(f, g) - math.exp(-g / 2.5) / 2.5))
        worst = max(worst, abs(hoyt.snr_cdf(f, g) - (1.0 - math.exp(-g / 2.5))))
    for s in (-1.0, -0.2):
        worst = max(worst, abs(hoyt.snr_mgf(f, s) - 1.0 / (1.0 - 2.5 * s)))
    lines.append(("rayleigh_limit_reductions", worst < 1e-12,
                  f"max dev from exponential forms = {worst:.2e}"))
    return lines


# ---------------------------------------------------------------------------
# fading average
# ---------------------------------------------------------------------------

def average_suite() -> List[Line]:
    lines: List[Line] = []
    pol = EvalPolicy(rel_tol=1e-11)

    worst = 0.0
    argmax = None
    for u in (1.0, 2.0, 3.0, 4.0, 5.0, 1.5, 2.5, 7.3):
        cfg = detector.DetectorConfig(u)
        for q in _Q_GRID:
            for db in _DB_GRID:
                f = hoyt.HoytFading(q, hoyt.db_to_linear(db))
                closed = average.avg_auc_closed(cfg, f, pol).value
                quad = average.avg_auc_quadrature(cfg, f, pol).value
                dev = abs(closed - quad)
                if dev > worst:
                    worst, argmax = dev, (u, q, db)
    lines.append(("avg_auc_closed_vs_quadrature", worst < 1e-8,
                  f"max |closed - quadrature| = {worst:.2e} at (u,q,dB)={argmax}"))

    worst = 0.0
    for u in range(1, 6):
        cfg = detector.DetectorConfig(float(u))
        for q in _Q_GRID:
            for db in _DB_GRID:
                f = hoyt.HoytFading(q, hoyt.db_to_linear(db))
                fin = average.avg_auc_closed(cfg, f, pol, form="finite_sum").value
                ser = average.avg_auc_closed(cfg, f, pol, form="series").value
                worst = max(worst, abs(fin - ser))
    lines.append(("integer_finite_sum_vs_series", worst < 1e-8,
                  f"max |finite - series| = {worst:.2e}"))

    ok = True
    for u in (1.0, 5.0, 2.5):
        cfg = detector.DetectorConfig(u)
        for q in (0.1, 0.5, 1.0):
            prev = -1.0
            for db in _DB_GRID:
                val = average.avg_auc_closed(
                    cfg, hoyt.HoytFading(q, hoyt.db_to_linear(db)), pol).value
                if val < prev - 1e-12:
                    ok = False
                prev = val
    lines.append(("avg_auc_nondecreasing_in_mean_snr", ok, "dB grid -5..30"))

    worst = 0.0
    cfg1 = detector.DetectorConfig(1.0)
    for q in _Q_GRID:
        for db in _DB_GRID:
            gb = hoyt.db_to_linear(db)
            got = average.avg_auc_closed(cfg1, hoyt.HoytFading(q, gb), pol).value
            want = 1.0 - 0.5 / math.sqrt(1.0 + gb + (q * gb / (1.0 + q * q)) ** 2)
            worst = max(worst, abs(got - want))
    lines.append(("unit_u_mgf_identity", worst < 1e-10,
                  f"max dev = {worst:.2e}"))

    ok = True
    for u, q, db in ((1.0, 0.5, 10.0), (5.0, 0.1, 0.0), (2.5, 1.0, 20.0)):
        cfg = detector.DetectorConfig(u)
        f = hoyt.HoytFading(q, hoyt.db_to_linear(db))
        a = average.avg_auc_closed(cfg, f, pol)
        c = average.avg_cauc_closed(cfg, f, pol)
        ok = ok and (a.value + c.value == 1.0)
    lines.append(("avg_complement_exact", ok, "sum is 1 bitwise"))

    # independent Rayleigh check: exponential weight coded inline, no HoytFading
    worst = 0.0
    for u in (1.0, 5.0, 2.5):
        cfg = detector.DetectorConfig(u)
        for gb in (1.0, 10.0):
            ref, _, _ = integrate_half_line(
                lambda g: detector.auc_awgn(cfg, g, pol).value
                * math.exp(-g / gb) / gb, pol, scale=gb)
            got = average.avg_auc_closed(cfg, hoyt.HoytFading(1.0, gb), pol).value
            worst = max(worst, abs(got - ref))
    lines.append(("rayleigh_exponential_weight_match", worst < 1e-9,
                  f"max dev = {worst:.2e}"))

    # measured q-ordering in the mid-SNR band: the average AUC RISES with q
    # (deeper fading hurts), so the q=0.1 curve sits lowest
    cfg5 = detector.DetectorConfig(5.0)
    ok = True
    sample = None
    for db in (5.0, 10.0, 15.0, 20.0):
        vals = [average.avg_auc_closed(
            cfg5, hoyt.HoytFading(q, hoyt.db_to_linear(db)), pol).value
            for q in _Q_GRID]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            ok = False
        if db == 10.0:
            sample = (vals[0], vals[-1])
    lines.append(("avg_auc_increasing_in_q_mid_snr", ok,
                  f"at 10 dB: A(q=0.1)={sample[0]:.6f} < A(q=1)={sample[1]:.6f}"))

    # the high-SNR law (Wang and Giannakis 2003): CAUC ~ (1+q^2)/(2 q m)
    # (1/2 + Gamma(u+1/2)/(sqrt(pi) Gamma(u))), to 1.5 sqrt(u+1)/(q^2 m)
    # where q^2 m >= 1e3; integer u >= 50 overflows its finite sum at 60 dB
    worst = 0.0
    for u in (0.05, 0.5, 2.5, 20.5, 150.5, 499.5, 1.0, 5.0):
        cfg = detector.DetectorConfig(u)
        shape = 0.5 + math.exp(math.lgamma(u + 0.5) - math.lgamma(u)) / (
            math.sqrt(math.pi))
        for q in (0.1, 0.3, 0.5, 1.0):
            for m in map(hoyt.db_to_linear, (50, 52.5, 55, 57.5, 60)):
                if q * q * m >= 1e3:
                    c = average.avg_cauc_closed(cfg, hoyt.HoytFading(q, m))
                    law = (1.0 + q * q) / (2.0 * q * m) * shape
                    worst = max(worst, abs(c.value / law - 1.0) * q * q * m
                                / (1.5 * math.sqrt(u + 1.0)))
    lines.append(("high_snr_cauc_law", worst <= 1.0,
                  f"max |CAUC/law - 1| = {worst:.2f} of its bound"))

    # the area under the averaged ROC, CAUC = int (1 - Pd) f0 dlam, f0 the
    # chi-square density with 2u degrees of freedom: the closed Pd on one
    # law, integrated to 1e-12, against the closed CAUC; they share only
    # the law.  The bound adds the largest Pd est_error (f0 integrates to
    # 1), the last change between levels and the CAUC's est_error
    worst, argmax = 0.0, None
    for u, q, db in ((2.5, 0.5, 10.0), (5.0, 0.3, 60.0), (5.0, 1e-3, 60.0),
                     (7.3, 1e-3, 20.0), (20.0, 1.0, 0.0), (60.5, 0.5, 30.0)):
        cfg = detector.DetectorConfig(u)
        f = hoyt.HoytFading(q, hoyt.db_to_linear(db))
        law = average._Law(q, f.mean_snr)
        ln_norm = u * math.log(2.0) + math.lgamma(u)
        pd_err = 0.0

        def miss(lam: float) -> float:
            nonlocal pd_err
            ln_f0 = (u - 1.0) * math.log(lam) - 0.5 * lam - ln_norm
            if ln_f0 < -745.0:
                return 0.0
            mv = average._closed_pd(law, cfg, lam, EvalPolicy().rel_tol)
            pd_err = max(pd_err, mv.est_error)
            return (1.0 - mv.value) * math.exp(ln_f0)

        area, delta, _ = integrate_half_line(
            miss, EvalPolicy(rel_tol=1e-12), scale=2.0 * u)
        cauc = average.avg_cauc_closed(cfg, f, pol)
        dev = abs(area - cauc.value) / (pd_err + delta + cauc.est_error)
        if dev >= worst:
            worst, argmax = dev, (u, q, db)
    lines.append(("roc_area_is_the_closed_cauc", worst <= 1.0,
                  f"max |area - CAUC| = {worst:.2f} of its bound at "
                  f"(u,q,dB)={argmax}"))
    return lines


# ---------------------------------------------------------------------------
# Monte-Carlo
# ---------------------------------------------------------------------------

def mc_suite(trials: int = 1_000_000, master_seed: int = 20260815) -> List[Line]:
    lines: List[Line] = []
    cfg5 = detector.DetectorConfig(5.0)
    cfg25 = detector.DetectorConfig(2.5)

    small = montecarlo.McConfig(trials=max(10_000, trials // 20),
                                master_seed=master_seed)
    e1 = montecarlo.estimate_auc(cfg5, hoyt.HoytFading(0.5, 10.0), small)
    e2 = montecarlo.estimate_auc(cfg5, hoyt.HoytFading(0.5, 10.0), small)
    lines.append(("replay_bit_identical", e1.value == e2.value,
                  f"two runs -> {e1.value!r} / {e2.value!r}"))

    rng = montecarlo.batch_rng(montecarlo.McConfig(master_seed=master_seed), 0)
    n = max(10_000, trials // 4)
    y0 = montecarlo.sample_statistic(cfg25, 0.0, "H0", rng, size=n)
    y1 = montecarlo.sample_statistic(cfg25, 3.0, "H1", rng, size=n)
    dev0 = abs(float(y0.mean()) - 5.0) / (float(y0.std()) / math.sqrt(n))
    dev1 = abs(float(y1.mean()) - 11.0) / (float(y1.std()) / math.sqrt(n))
    lines.append(("statistic_means", dev0 < 4.0 and dev1 < 4.0,
                  f"H0 dev {dev0:.2f} s.e., H1 dev {dev1:.2f} s.e. at n={n}"))

    lam = detector.threshold_for_pf(cfg5, 0.1)
    y = montecarlo.sample_statistic(cfg5, 0.0, "H0", rng, size=n)
    emp = float((y > lam).mean())
    dev = abs(emp - 0.1) / math.sqrt(0.1 * 0.9 / n)
    lines.append(("empirical_false_alarm", dev < 4.0,
                  f"emp {emp:.5f} vs 0.1, {dev:.2f} binomial s.e."))

    mcc = montecarlo.McConfig(trials=trials, master_seed=master_seed + 1)
    est = montecarlo.estimate_pd(cfg25, 2.0, 3.0, mcc)
    want = detector.pd(cfg25, 2.0, 3.0)
    dev = abs(est.value - want) / est.std_error
    lines.append(("empirical_detection_prob", dev < 4.0,
                  f"emp {est.value:.5f} vs {want:.5f}, {dev:.2f} s.e."))

    ok = True
    details = []
    for u, g in ((1.0, 2.0), (5.0, 10.0), (2.5, 5.0)):
        cfg = detector.DetectorConfig(u)
        est = montecarlo.estimate_auc(cfg, g, mcc)
        ref = detector.auc_quadrature(cfg, g).value
        dev = abs(est.value - ref) / est.std_error
        ok = ok and dev < 3.0
        details.append(f"(u={u},snr={g}): {dev:.2f} s.e.")
    lines.append(("fixed_snr_auc_closure", ok, "; ".join(details)))

    ok = True
    details = []
    for u, q, db in ((5.0, 0.5, 10.0), (5.0, 1.0, 0.0)):
        cfg = detector.DetectorConfig(u)
        f = hoyt.HoytFading(q, hoyt.db_to_linear(db))
        est = montecarlo.estimate_auc(cfg, f, mcc)
        ref = average.avg_auc_closed(cfg, f).value
        dev = abs(est.value - ref) / est.std_error
        ok = ok and dev < 3.0
        details.append(f"(u={u},q={q},{db}dB): {dev:.2f} s.e.")
    lines.append(("fading_averaged_auc_closure", ok, "; ".join(details)))
    return lines


# ---------------------------------------------------------------------------
# errata report
# ---------------------------------------------------------------------------

def _laguerre_wrong_order_auc(u: int, snr: float) -> float:
    # fixed-SNR AUC with the Laguerre upper index transcribed one too high
    # (order u instead of u-1); kept only for the report below
    acc = math.fsum(specfun.laguerre(l, float(u), -0.5 * snr) / 2.0 ** (l + u)
                    for l in range(u))
    return 1.0 - math.exp(-0.5 * snr) * acc


def _kummer_printed_auc(u: int, snr: float) -> float:
    # detector.auc_awgn_1f1_variant as printed: Kummer functions at +snr/2
    # with no compensating exponential; kept only for the report below
    base = 1.0 - specfun.reg_upper_gamma(float(u), 0.5 * snr)
    return base + math.fsum(
        specfun.pochhammer(float(u), l)
        * specfun.kummer_1f1(float(u + l), float(1 + l), 0.5 * snr)
        / (math.factorial(l) * 2.0 ** (u + l)) for l in range(u))


def _binomial_shift_auc(u: int, q: float, mean_snr: float) -> float:
    # average._finite_sum_cauc with the binomial C(l+u, l-i) for C(l+u-1, l-i),
    # as the published double sum over 0 <= i <= l < u; kept for the report
    q2 = q * q
    den, s = average._finite_sum_setup(q, mean_snr)
    terms = [math.ldexp(math.comb(l + u, l - i), i + 1 - l - u) * leg
             * (mean_snr ** i / den ** (i + 1))
             for i, leg in zip(range(u), average._legendre_fill([], q2, s, u))
             for l in range(i, u)]
    return 1.0 - (1.0 + q2) * q * math.fsum(terms)


def _printed_finite_sum_auc(u: int, q: float, mean_snr: float) -> float:
    # average._finite_sum_cauc without the (1+q^2) factor the published
    # finite sum drops; kept for the report
    cfg = detector.DetectorConfig(float(u))
    return 1.0 - average._finite_sum_cauc(cfg, q, mean_snr) / (1.0 + q * q)


def _printed_series_auc(u: float, q: float, mean_snr: float,
                        policy: EvalPolicy) -> float:
    """The published real-u average-AUC series verbatim.

    There the mean SNR enters to the first power only: x (and with it rho)
    loses its factor of m and the prefactor gains one, so they are rescaled
    from the corrected `average._series_setup`; pref * sum_l M_l = 1 no
    longer holds and the series is summed as printed, pref * sum_l c_l M_l.
    Its term ratio tends to 2/(2m+1+q^2), which exceeds 1 once
    m < (1-q^2)/2 — the series then diverges (a ConvergenceError here is
    the expected outcome, not a numerical accident).
    """
    x, s, pref, rho = average._series_setup(q, mean_snr)
    x, pref, rho = x / mean_snr, pref * mean_snr, rho / mean_snr
    c = 0.5
    total = 0.0
    m: List[float] = []
    inc = specfun.beta_increments(u)[0]
    for l in range(specfun._MAX_TERMS):
        if l == len(m):  # the Legendre terms, in chunks that double
            average._legendre_fill(m, x, s, 2 * l)
        term = c * m[l]
        total += term
        if (l > 20 and rho < 1.0
                and term * rho / (1.0 - rho) <= policy.rel_tol * total):
            return pref * total
        c += inc
        inc *= (2.0 * u + l) / (2.0 * (u + l + 1.0))
    raise ConvergenceError(
        f"printed average-AUC series did not meet rel_tol={policy.rel_tol} "
        f"within {specfun._MAX_TERMS} terms (term ratio approaches {rho:.6f})"
        + ("; it diverges for this input" if rho >= 1.0 else ""))


def _cdf_variant(f: hoyt.HoytFading, snr: float, symmetric: bool) -> float:
    # the two rejected Marcum argument pairs for the distribution function:
    # as-printed (mixed 1-q^4 / 1+q^4 factors) and the symmetric 1-q^4 reading
    q = f.q
    num2 = (1.0 - q ** 4) if symmetric else (1.0 + q ** 4)
    al = math.sqrt((1.0 - q ** 4) * (1.0 - q) * snr
                   / (8.0 * q * (1.0 + q) * f.mean_snr))
    be = math.sqrt(num2 * (1.0 + q) * snr
                   / (8.0 * q * (1.0 - q) * f.mean_snr))
    return specfun.marcum_q(1.0, al, be) - specfun.marcum_q(1.0, be, al)


def errata_suite() -> List[Line]:
    lines: List[Line] = []
    pol = EvalPolicy(rel_tol=1e-11)

    # 1. fixed-SNR AUC, confluent-hypergeometric route: as printed, the
    # Kummer argument is +snr/2 with no compensating exponential; values
    # leave [0,1] immediately.
    rows = []
    ok = True
    for u in (1, 2, 5):
        cfg = detector.DetectorConfig(float(u))
        for g in (3.0, 10.0):
            printed = _kummer_printed_auc(u, g)
            corrected = detector.auc_awgn_1f1_variant(cfg, g).value
            quad = detector.auc_quadrature(cfg, g, pol).value
            ok = ok and abs(corrected - quad) < 1e-8
            rows.append(f"u={u} snr={g}: printed={printed:.6g} "
                        f"corrected={corrected:.10f} quad={quad:.10f} "
                        f"printed-dev={printed - quad:+.3g}")
    lines.append(("kummer_argument_sign", ok, " | ".join(rows)))

    # 2. integer-u average AUC finite sum: the published expression drops a
    # (1+q^2) factor.  Also shown: the tempting binomial-index repair
    # (upper index l+u instead of l+u-1), which the reference rejects.  Both
    # blocks take their quadrature on one configuration per u, so the
    # second reads the first's node AUCs.
    cfgs = {u: detector.DetectorConfig(float(u)) for u in (1, 2, 3, 5)}
    rows = []
    ok = True
    worst_printed = 0.0
    for u, cfg in cfgs.items():
        for q in (0.1, 0.5, 1.0):
            for gb in (1.0, 10.0):
                f = hoyt.HoytFading(q, gb)
                printed = _printed_finite_sum_auc(u, q, gb)
                corrected = average.avg_auc_closed(cfg, f, pol).value
                quad = average.avg_auc_quadrature(cfg, f, pol).value
                ok = ok and abs(corrected - quad) < 1e-8
                worst_printed = max(worst_printed, abs(printed - quad))
                rows.append(f"u={u} q={q} m={gb}: printed-dev={printed - quad:+.2e}")
    lines.append(("finite_sum_missing_mean_square_factor",
                  ok and worst_printed > 1e-3,
                  f"corrected matches quadrature <1e-8; printed deviates up to "
                  f"{worst_printed:.2e} | " + " | ".join(rows)))

    rows = []
    worst = 0.0
    for u in (2, 3, 5):
        for q in (0.1, 0.5, 1.0):
            for gb in (1.0, 10.0):
                conj = _binomial_shift_auc(u, q, gb)
                quad = average.avg_auc_quadrature(
                    cfgs[u], hoyt.HoytFading(q, gb), pol).value
                dev = conj - quad
                worst = max(worst, abs(dev))
                rows.append(f"u={u} q={q} m={gb}: {dev:+.2e}")
    lines.append(("finite_sum_binomial_shift_rejected", worst > 1e-3,
                  "raising the binomial upper index does NOT repair the printed "
                  f"form; deviation up to {worst:.2e} | " + " | ".join(rows)))

    # 3. real-u average AUC series: published mean-SNR exponent is 1, the
    # corrected exponent is the series index; the published version also
    # diverges once the mean SNR drops below (1-q^2)/2.
    rows = []
    ok = True
    for u, q, gb in ((2.0, 0.5, 10.0), (2.5, 0.5, 10.0), (5.0, 1.0, 100.0)):
        cfg = detector.DetectorConfig(u)
        f = hoyt.HoytFading(q, gb)
        printed = _printed_series_auc(u, q, gb, pol)
        corrected = average.avg_auc_closed(cfg, f, pol, form="series").value
        quad = average.avg_auc_quadrature(cfg, f, pol).value
        ok = ok and abs(corrected - quad) < 1e-8
        rows.append(f"u={u} q={q} m={gb}: printed={printed:.6f} "
                    f"corrected={corrected:.10f} printed-dev={printed - quad:+.2e}")
    try:
        _printed_series_auc(2.0, 0.3, 0.1, pol)
        diverged = "printed series unexpectedly converged at m=0.1"
        ok = False
    except ConvergenceError:
        diverged = "printed series diverges at q=0.3, m=0.1 (term ratio > 1) as analyzed"
    lines.append(("series_mean_snr_exponent", ok,
                  " | ".join(rows) + " | " + diverged))

    # 4. fixed-SNR Laguerre order (supplementary): upper index must be u-1;
    # with u the sum is not even 1/2 at zero SNR.
    v0 = _laguerre_wrong_order_auc(5, 0.0)
    v1 = _laguerre_wrong_order_auc(2, 3.7)
    good = detector.auc_awgn(detector.DetectorConfig(2.0), 3.7).value
    lines.append(("laguerre_order_check", abs(v0 - 0.24609375) < 1e-12,
                  f"wrong-order AUC at (u=5, snr=0) = {v0} (must be 0.5); "
                  f"at (2, 3.7) = {v1:.10f} vs correct {good:.10f}"))

    # 5. distribution-function Marcum argument pairs (supplementary): the
    # adopted pair against the integrated density, and both rejected pairs.
    rows = []
    ok = True
    polq = EvalPolicy(rel_tol=1e-12)
    for q, gb, g in ((0.3, 2.0, 1.7), (0.5, 1.0, 1.0), (0.05, 1.0, 0.5),
                     (0.8, 3.0, 6.0)):
        f = hoyt.HoytFading(q, gb)
        ref, _, _ = integrate_unit_interval(
            lambda t: g * hoyt.snr_pdf(f, g * t), polq)
        adopted = hoyt.snr_cdf(f, g)
        printed = _cdf_variant(f, g, symmetric=False)
        sym = _cdf_variant(f, g, symmetric=True)
        ok = ok and abs(adopted - ref) < 1e-9
        rows.append(f"q={q} m={gb} snr={g}: adopted-dev={adopted - ref:+.1e} "
                    f"printed-dev={printed - ref:+.2e} symmetric-dev={sym - ref:+.2e}")
    lines.append(("cdf_marcum_argument_pair", ok, " | ".join(rows)))
    return lines


SUITES = {
    "specfun": specfun_suite,
    "detector": detector_suite,
    "hoyt": hoyt_suite,
    "average": average_suite,
    "mc": mc_suite,
    "errata": errata_suite,
}


def run_suite(name: str, trials: Optional[int] = None,
              master_seed: Optional[int] = None) -> List[Line]:
    """Run one suite by name ('all' chains every suite in a fixed order)."""
    if name == "all":
        out: List[Line] = []
        for key in ("specfun", "detector", "hoyt", "average", "mc", "errata"):
            out.extend(run_suite(key, trials, master_seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name == "mc":
        kwargs = {}
        if trials is not None:
            kwargs["trials"] = trials
        if master_seed is not None:
            kwargs["master_seed"] = master_seed
        return mc_suite(**kwargs)
    return SUITES[name]()
