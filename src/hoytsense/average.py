"""Detector performance averaged over Hoyt fading.

Two closed evaluation routes cover the average AUC: a finite double sum for
integer time-bandwidth products and an infinite series for arbitrary real
ones.  Both reduce, after the Bessel-moment integration of the fading
density, to Legendre polynomials evaluated above 1; those are generated by
the standard three-term recurrence with the power factors folded in, so no
hypergeometric evaluations happen at runtime and every term is positive.

The published transcriptions of BOTH closed forms carry defects — a dropped
(1+q^2) factor in the finite sum and a mean-SNR exponent frozen at one in
the series (which additionally makes the series divergent below roughly
0 dB).  The corrected forms implemented here were adjudicated against the
quadrature reference, and the routes take no switch for anything else;
the errata report (`validate`) rebuilds the defective transcriptions from
the corrected pieces to quantify the damage.

Both sum the complementary AUC (CAUC) from positive terms, returned by
`avg_cauc_closed` to full relative precision; one absolute est_error also
covers 1 - CAUC.  The series' CAUC weights fall like 2^-l, so its cost is
flat in the SNR.
Over u <= 500, q in [1e-6, 1] and -10..60 dB it stops after 27-280 terms
(under a millisecond) for rel_tol down to 5e-14, well inside the package
term cap `specfun._MAX_TERMS`.  The finite sum takes u terms whatever the
SNR: its inner sum over the binomial weights is a binomial tail, and all u
tails come from one pass over the Bin(2u-1, 1/2) pmf.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Sequence, Tuple, Union

from . import specfun
from .detector import (_DEFAULT_POLICY, DetectorConfig, MetricValue,
                       _detection_prob, auc_awgn)
from .hoyt import HoytFading, snr_pdf
from .quadrature import (EvalPolicy, integrate_half_line,
                         integrate_half_line_many)
from .specfun import ConvergenceError

__all__ = [
    "avg_auc_closed",
    "avg_cauc_closed",
    "avg_auc_quadrature",
    "avg_pd_quadrature",
    "avg_pd_quadrature_curve",
]

_EPS = 2.0 ** -52


def _legendre_terms(x: float, s: float) -> Iterator[float]:
    # M_l = x^l P_l(s) s^(l+1), l = 0, 1, ..., via the folded recurrence
    # M_{n+1} = x s^2 ((2n+1) M_n - n x M_{n-1}) / (n+1); for s >= 1 every
    # M_l > 0 and M_{l+1}/M_l <= x s (s + sqrt(s^2 - 1)) = x / (1 - w)
    xs2 = x * s * s
    m_prev, m_cur = s, x * s * s * s
    yield m_prev
    yield m_cur
    n = 1
    while True:
        m_prev, m_cur = m_cur, xs2 * ((2.0 * n + 1.0) * m_cur
                                      - n * x * m_prev) / (n + 1.0)
        yield m_cur
        n += 1


def _binomial_tails(u: int) -> List[float]:
    # P(Bin(2u-1, 1/2) >= u + i), i = 0..u-1: the pmf from the centre
    # outwards by the ratio (n-k+1)/k, normalised by the symmetric total (the
    # upper half is exactly 1/2 of it, n being odd), then added from the far
    # end inwards so every addition is positive
    n = 2 * u - 1
    pmf = [1.0]
    for k in range(u + 1, n + 1):
        pmf.append(pmf[-1] * (n - k + 1) / k)
    tails = list(itertools.accumulate(reversed(pmf)))[::-1]
    total = 2.0 * tails[0]
    return [t / total for t in tails]


def _finite_sum_setup(q: float, mean_snr: float) -> Tuple[float, float]:
    # (den, s) of the finite sum: the i-th Legendre term carries
    # m^i / den^(i+1), and s = 1/sqrt(1 - w^2) for w = (1 - q^4)/den
    q2 = q * q
    den = 2.0 * mean_snr * q2 + (1.0 + q2) ** 2
    # 1 - w^2, factored so that small q does not cancel:
    # (den - 1 + q^4)(den + 1 - q^4) = 4 q^2 (m+1+q^2)(m q^2+1+q^2)
    one_minus_w2 = (4.0 * q2 * (mean_snr + 1.0 + q2)
                    * (mean_snr * q2 + 1.0 + q2) / (den * den))
    if not one_minus_w2 > 0.0:  # guaranteed algebraically; kept as a tripwire
        raise ValueError(f"legendre argument left [0,1): 1 - w^2 = {one_minus_w2!r}")
    return den, 1.0 / math.sqrt(one_minus_w2)


def _finite_sum_cauc(u: int, q: float, mean_snr: float) -> float:
    """Integer-u average CAUC by the finite double sum, in u terms.

    The published double sum runs over 0 <= i <= l < u with the weight
    C(l+u-1, l-i) 2^(i+1-l-u) on the i-th Legendre term.  Its inner sum
    over l is a negative-binomial partial sum, so it collapses to a binomial
    tail,

        sum_{l=i}^{u-1} C(l+u-1, l-i) 2^(i+1-l-u)
            = 2^(i+1) P(Bin(2u-1, 1/2) >= u+i),

    so the whole sum takes u terms, one tail each (`_binomial_tails`).  The
    published version drops the (1+q^2) factor restored here.  Raises
    OverflowError where mean_snr^i or den^(i+1) leaves double range; the
    series form covers those points.
    """
    q2 = q * q
    den, s = _finite_sum_setup(q, mean_snr)
    # q^(2i) rides in the Legendre terms: q^(1+2i) alone underflows at
    # small q while P_i(s) s^(i+1) overflows, and 0 * inf is NaN
    try:
        terms = [math.ldexp(tail, i + 1) * leg
                 * (mean_snr ** i / den ** (i + 1))
                 for i, (tail, leg) in enumerate(zip(_binomial_tails(u),
                                                     _legendre_terms(q2, s)))]
    except OverflowError:
        raise OverflowError(
            f"finite-sum CAUC: mean_snr**i or den**(i+1) left double range "
            f"at u={u}, q={q}, mean_snr={mean_snr}; the series form "
            f"(--method series) covers this point") from None
    return (1.0 + q2) * q * math.fsum(terms)


def _series_setup(q: float, mean_snr: float):
    # (x, s, pref, rho) of the real-u series; rho = x/(1-w) bounds the
    # Legendre term ratio
    q2 = q * q
    den = 4.0 * mean_snr * q2 + (1.0 + q2) ** 2
    # 1 -+ w for w = (1 - q^4)/den, written without the small-q cancellation
    one_minus_w = 2.0 * q2 * (2.0 * mean_snr + 1.0 + q2) / den
    one_plus_w = 2.0 * (2.0 * mean_snr * q2 + 1.0 + q2) / den
    if not one_minus_w > 0.0:
        raise ValueError(f"legendre argument left [0,1): 1 - w = {one_minus_w!r}")
    s = 1.0 / math.sqrt(one_minus_w * one_plus_w)
    x = 4.0 * q2 * mean_snr / den
    return x, s, 2.0 * q * (1.0 + q2) / den, x / one_minus_w


def _series_value(u: float, q: float, mean_snr: float, policy: EvalPolicy):
    """Real-u average CAUC series; returns (cauc, terms, est_error).

    The AUC is pref * sum_l c_l M_l with c_l = I_{1/2}(u, u+l) the
    half-domain beta weights of the fixed-SNR series and M_l = x^l P_l(s)
    s^(l+1) Legendre terms.  pref * sum_l M_l = 1 (with every c_l = 1 the
    detector would be perfect, AUC = 1), so the CAUC is pref * sum_l d_l M_l
    with d_l = 1 - c_l = I_{1/2}(u+l, u) = sum_{j>=l} inc_j.  The M_l alone
    decay only like rho^l, rho = 2m/(2m+1+q^2), which is what made summing
    c_l M_l cost O(mean SNR) terms; the d_l fall like 2^-l and make the cost
    flat in the SNR.

    The weights are never formed by subtraction: exchanging the order of
    summation gives CAUC = pref * sum_j inc_j S_j with the partial sums
    S_j = M_0 + ... + M_j, all terms positive.  Stopping after term J drops
    (a) the remaining terms sum_{l>J} d_l M_l and (b) the part d_{J+1} of
    every kept weight, d_{J+1} S_J.  With r = max(1/2, inc_{J+2}/inc_{J+1}),
    which bounds every later ratio of the increments and of the d_l,
    d_{J+1} <= D = inc_{J+1}/(1-r), the term ratio of (a) is at most r*rho,
    so (a) + (b) <= D (S_J + rho M_J/(1-r*rho)); by the identity above the
    whole cut is also at most pref * D * sum_l M_l = D.
    """
    x, s, pref, rho = _series_setup(q, mean_snr)
    # rounding: lgamma's absolute error in inc_0, then a few ulps a term
    increments, lgamma_err = specfun.beta_increments(u)
    partial = 0.0
    total = 0.0
    for j, inc, m_j in zip(range(specfun._MAX_TERMS),
                           increments, _legendre_terms(x, s)):
        partial += m_j
        total += inc * partial
        t_next = (2.0 * u + j + 1.0) / (2.0 * (u + j + 2.0))
        r = max(0.5, t_next)
        bound = inc * (2.0 * u + j) / (2.0 * (u + j + 1.0)) / (1.0 - r)
        cut = min(pref * bound * (partial + rho * m_j / (1.0 - r * rho)),
                  bound)
        if cut <= policy.rel_tol * pref * total:
            cauc = pref * total
            rounding = (lgamma_err + 4e-16 * (j + 1)) * cauc + _EPS
            return cauc, j + 1, cut + rounding
    raise ConvergenceError(
        f"average-AUC series did not meet rel_tol={policy.rel_tol} within "
        f"{specfun._MAX_TERMS} terms (u={u}, q={q}, mean_snr={mean_snr})")


def avg_cauc_closed(cfg: DetectorConfig, f: HoytFading,
                    policy: EvalPolicy = _DEFAULT_POLICY,
                    form: str = "auto") -> MetricValue:
    """Fading-averaged complementary AUC by the corrected closed forms.

    form: "auto" picks the finite sum for integer u and the series otherwise;
    "finite_sum" and "series" force a route (finite_sum requires integer u —
    the series accepts any u, which is how the two routes cross-check).
    """
    if form not in ("auto", "finite_sum", "series"):
        raise ValueError(f"unknown form {form!r}")
    if form == "auto":
        form = "finite_sum" if cfg.is_integer else "series"
    if form == "finite_sum":
        if not cfg.is_integer:
            raise ValueError("finite_sum form requires integer time_bandwidth")
        u = int(round(cfg.time_bandwidth))
        value = _finite_sum_cauc(u, f.q, f.mean_snr)
        return MetricValue(value, "closed_integer", u, 1e-15 * u)
    value, terms, err = _series_value(cfg.time_bandwidth, f.q, f.mean_snr, policy)
    return MetricValue(value, "closed_series", terms, err)


def avg_auc_closed(cfg: DetectorConfig, f: HoytFading,
                   policy: EvalPolicy = _DEFAULT_POLICY,
                   form: str = "auto") -> MetricValue:
    """Fading-averaged AUC: exactly 1 - avg_cauc_closed, same est_error."""
    c = avg_cauc_closed(cfg, f, policy, form)
    return MetricValue(1.0 - c.value, c.method, c.terms_used, c.est_error)


def avg_auc_quadrature(cfg: DetectorConfig, f: HoytFading,
                       policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Reference average AUC: fixed-SNR AUC integrated against the SNR density.

    This is the arbiter the closed forms are judged against, so it goes out
    of its way to share nothing with them: the integrand composes the
    detector's AUC (Laguerre or fixed-SNR series) with the Bessel-form
    density, on the substituted half line scaled by the mean SNR.

    est_error adds the largest fixed-SNR est_error at any node to the last
    change between levels: with positive weights and a density that
    integrates to 1, the nodes' own errors move the result by no more.
    """
    node_err = 0.0

    def integrand(g: float) -> float:
        nonlocal node_err
        density = snr_pdf(f, g)
        if density == 0.0:
            return 0.0
        mv = auc_awgn(cfg, g, policy)
        node_err = max(node_err, mv.est_error)
        return mv.value * density

    value, err, evals = integrate_half_line(integrand, policy, scale=f.mean_snr)
    return MetricValue(value, "quadrature", evals, err + node_err)


def avg_pd_quadrature_curve(cfg: DetectorConfig, f: HoytFading,
                            thresholds: Sequence[float],
                            policy: EvalPolicy = _DEFAULT_POLICY,
                            ) -> List[Union[MetricValue, ArithmeticError]]:
    """Average detection probability at each of several thresholds.

    All thresholds share one quadrature pass: the SNR density and the Marcum
    argument sqrt(2 g) are evaluated once per node, and each threshold's
    integral refines, stops and fails on its own, so entry i is exactly
    avg_pd_quadrature(cfg, f, thresholds[i], policy), or the ArithmeticError
    that call would raise.  A threshold that is negative, nan or inf raises
    ValueError before any integration.
    """
    for threshold in thresholds:
        if not 0.0 <= threshold < math.inf:
            raise ValueError(
                f"threshold must be finite and >= 0, got {threshold}")
    u = cfg.time_bandwidth

    def node(g: float) -> Tuple[float, float]:
        density = snr_pdf(f, g)
        if density == 0.0:
            return 0.0, 0.0
        return density, math.sqrt(2.0 * g)

    def pd_integrand(b: float):
        def integrand(at: Tuple[float, float]) -> float:
            density, a = at
            if density == 0.0:
                return 0.0
            return _detection_prob(u, a, b) * density
        return integrand

    # a zero threshold is detected with certainty and needs no integral
    positive = [i for i, t in enumerate(thresholds) if t != 0.0]
    out: List[Union[MetricValue, ArithmeticError]] = [
        MetricValue(1.0, "quadrature", 0, 0.0)] * len(thresholds)
    outcomes = integrate_half_line_many(
        node, [pd_integrand(math.sqrt(thresholds[i])) for i in positive],
        policy, scale=f.mean_snr) if positive else []
    for i, outcome in zip(positive, outcomes):
        out[i] = (outcome if isinstance(outcome, ArithmeticError)
                  else MetricValue(outcome[0], "quadrature", outcome[2],
                                   outcome[1]))
    return out


def avg_pd_quadrature(cfg: DetectorConfig, f: HoytFading, threshold: float,
                      policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Average detection probability at a fixed threshold.

    The one-threshold call of `avg_pd_quadrature_curve`, raising where that
    returns an error.  The average has a closed positive series, a Poisson
    mixture of the fixed-SNR terms, but that route is not implemented; this
    one pairs with the fading-independent pf to trace averaged ROC curves.
    """
    (mv,) = avg_pd_quadrature_curve(cfg, f, (threshold,), policy)
    if isinstance(mv, ArithmeticError):
        raise mv
    return mv
