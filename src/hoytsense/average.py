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

What depends on u alone is built once per `DetectorConfig` and shared by
every evaluation at it (`DetectorConfig._table`; the CLI builds one per
request): the series' beta increments and cut bounds
(`specfun._BetaTable`), the finite sum's tail weights and the column of
betas at the quadrature's real-u nodes.  So a row pays only for what its
q and SNR set: the Legendre terms and the sums over them.

The averaged detection probability has a closed route too: the series'
terms are the law of the Poisson count that the Hoyt-averaged statistic
carries, so 1 - Pd is a positive sum over that law (`avg_pd_closed`).  Its
quadrature (`avg_pd_quadrature`) is the independent check; each node is
`specfun.marcum_q`'s own Poisson mixture.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from . import detector, specfun
from .detector import _DEFAULT_POLICY, DetectorConfig, MetricValue, auc_awgn
from .hoyt import HoytFading, snr_pdf
from .quadrature import EvalPolicy, integrate_half_line
from .specfun import ConvergenceError, _q_column

__all__ = [
    "avg_auc_closed",
    "avg_cauc_closed",
    "avg_auc_quadrature",
    "avg_pd_closed",
    "avg_pd_closed_curve",
    "avg_pd_quadrature",
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


def _binomial_tails(u: float) -> List[float]:
    # P(Bin(2u-1, 1/2) >= u + i), i = 0..u-1 for u within rounding of an
    # integer: the pmf from the centre outwards by the ratio (n-k+1)/k,
    # normalised by the symmetric total (the upper half is exactly 1/2 of
    # it, n being odd), then added from the far end inwards so every
    # addition is positive
    u = int(round(u))
    n = 2 * u - 1
    pmf = [1.0]
    for k in range(u + 1, n + 1):
        pmf.append(pmf[-1] * (n - k + 1) / k)
    tails = list(itertools.accumulate(reversed(pmf)))[::-1]
    total = 2.0 * tails[0]
    return [t / total for t in tails]


def _finite_sum_weights(u: float) -> List[float]:
    # 2^(i+1) P(Bin(2u-1, 1/2) >= u + i), the finite sum's weights
    return [math.ldexp(tail, i + 1)
            for i, tail in enumerate(_binomial_tails(u))]


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


def _finite_sum_cauc(cfg: DetectorConfig, q: float, mean_snr: float) -> float:
    """Integer-u average CAUC by the finite double sum, in u terms.

    The published double sum runs over 0 <= i <= l < u with the weight
    C(l+u-1, l-i) 2^(i+1-l-u) on the i-th Legendre term.  Its inner sum
    over l is a negative-binomial partial sum, so it collapses to a binomial
    tail,

        sum_{l=i}^{u-1} C(l+u-1, l-i) 2^(i+1-l-u)
            = 2^(i+1) P(Bin(2u-1, 1/2) >= u+i),

    so the whole sum takes u terms, one tail each (`_binomial_tails`; cfg
    keeps the weights for all its rows).  The published version drops the
    (1+q^2) factor restored here.  Raises OverflowError where mean_snr^i or
    den^(i+1) leaves double range; the series form covers those points.
    """
    u = int(round(cfg.time_bandwidth))
    q2 = q * q
    den, s = _finite_sum_setup(q, mean_snr)
    weights = cfg._table(_finite_sum_weights)
    # q^(2i) rides in the Legendre terms: q^(1+2i) alone underflows at
    # small q while P_i(s) s^(i+1) overflows, and 0 * inf is NaN
    try:
        terms = [w * leg * (mean_snr ** i / den ** (i + 1))
                 for i, (w, leg) in enumerate(zip(weights,
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


def _series_value(cfg: DetectorConfig, q: float, mean_snr: float,
                  policy: EvalPolicy):
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
    whole cut is also at most pref * D * sum_l M_l = D.  The increments, r
    and D depend on u alone: cfg's `specfun._BetaTable` holds them, grown
    as far as the longest sum at this u has needed.
    """
    x, s, pref, rho = _series_setup(q, mean_snr)
    beta = cfg._table(specfun._BetaTable)
    inc, ratio, tail = beta.inc, beta.ratio, beta.tail
    terms = _legendre_terms(x, s)
    tol = policy.rel_tol * pref
    partial = 0.0
    total = 0.0
    lo = 0
    while lo < specfun._MAX_TERMS:
        # the whole table first, then doubling it
        hi = min(max(2 * lo, len(tail), 64), specfun._MAX_TERMS)
        beta.extend(hi)
        for j, a, r, bound, m_j in zip(range(lo, hi), inc[lo:hi],
                                       ratio[lo:hi], tail[lo:hi], terms):
            partial += m_j
            total += a * partial
            cut = min(pref * bound * (partial + rho * m_j / (1.0 - r * rho)),
                      bound)
            if cut <= tol * total:
                cauc = pref * total
                # lgamma's absolute error in inc_0, then a few ulps a term
                rounding = (beta.err + 4e-16 * (j + 1)) * cauc + _EPS
                return cauc, j + 1, cut + rounding
        lo = hi
    raise ConvergenceError(
        f"average-AUC series did not meet rel_tol={policy.rel_tol} within "
        f"{specfun._MAX_TERMS} terms (u={cfg.time_bandwidth}, q={q}, "
        f"mean_snr={mean_snr})")


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
        value = _finite_sum_cauc(cfg, f.q, f.mean_snr)
        return MetricValue(value, "closed_integer", u, 1e-15 * u)
    value, terms, err = _series_value(cfg, f.q, f.mean_snr, policy)
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
    density, on the substituted half line scaled by the mean SNR; at real
    u all nodes share cfg's column of betas (`specfun._BetaTable`).

    est_error adds the largest fixed-SNR est_error at any node to the last
    change between levels: with positive weights and a density that
    integrates to 1, the nodes' own errors move the result by no more.
    """
    u = cfg.time_bandwidth
    col = None if cfg.is_integer else cfg._table(specfun._BetaTable).column
    node_err = 0.0

    def integrand(g: float) -> float:
        nonlocal node_err
        density = snr_pdf(f, g)
        if density == 0.0:
            return 0.0
        mv = (auc_awgn(cfg, g, policy) if col is None
              else detector._auc_series(u, g, policy.rel_tol, col))
        node_err = max(node_err, mv.est_error)
        return mv.value * density

    value, err, evals = integrate_half_line(integrand, policy, scale=f.mean_snr)
    return MetricValue(value, "quadrature", evals, err + node_err)


_REL_FLOOR = 1e-300


def avg_pd_quadrature(cfg: DetectorConfig, f: HoytFading, threshold: float,
                      policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Average detection probability at a fixed threshold.

    The quadrature over the SNR nodes g of Q_u(sqrt(2g), b) times the
    density, b = sqrt(threshold).  Each node's Marcum Q is
    `specfun.marcum_q`'s own Poisson mixture sum_k Pois(k; g) Q(u+k, b^2/2)
    with its error bound, so the route reaches as far in g as Marcum Q
    does (~1e6).  It is the independent check of `avg_pd_closed`, the
    closed positive series over the negative-binomial law of the same
    Poisson count.

    est_error adds the node errors to the last change between levels.  The
    weights and the density are positive, so if no node is off by more
    than r times its value, the integral is off by at most r times its
    own: it takes the largest such ratio over the nodes whose value is
    above 1e-300 (and the largest error over the others), which keeps a
    tiny average Pd's error relative to it.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(
            f"threshold must be finite and >= 0, got {threshold}")
    # a zero threshold is detected with certainty and needs no integral
    if threshold == 0.0:
        return MetricValue(1.0, "quadrature", 0, 0.0)
    u = cfg.time_bandwidth
    b = math.sqrt(threshold)
    # the largest node error relative to its node's value, and the largest
    # at a node whose value is below _REL_FLOOR, where the absolute floors
    # of Marcum Q's bound dominate
    node_rel = 0.0
    node_abs = 0.0

    def integrand(g: float) -> float:
        nonlocal node_rel, node_abs
        density = snr_pdf(f, g)
        if density == 0.0:
            return 0.0
        value, err = specfun._marcum_q(u, math.sqrt(2.0 * g), b)
        if err > node_rel * value:
            if value > _REL_FLOOR:
                node_rel = err / value
            elif err > node_abs:
                node_abs = err
        return value * density

    value, delta, evals = integrate_half_line(integrand, policy,
                                              scale=f.mean_snr)
    return MetricValue(value, "quadrature", evals,
                       delta + node_rel * abs(value) + node_abs)


# ---------------------------------------------------------------------------
# closed averaged Pd
# ---------------------------------------------------------------------------

_ULP = 0.5 * _EPS  # the unit roundoff
# relative rounding of _series_setup's x, s and pref
_SETUP_X, _SETUP_S, _SETUP_PREF = 9.0 * _ULP, 14.0 * _ULP, 10.0 * _ULP
# below this a law term or an increment is subnormal and rounds absolutely
_TINY = 2.0 ** -1022
# x = threshold/2 rounds to 0 only below the smallest subnormal
_LN_SUBNORMAL = math.log(5e-324)


class _Law:
    """pi_l = P(K = l), l = 0, 1, ..., with partial sums S_l = pi_0 + ... +
    pi_l, built on demand and shared by every threshold of a call.

    Under H1 the statistic is 2 Gamma(u + K), with K Poisson given the SNR;
    over the Hoyt SNR, K follows pi_l = pref M_l, the terms of the CAUC
    series (`_series_setup`, `_legendre_terms`, pref sum M_l = 1), and
    pi_(l+1) <= rho pi_l.  `rel[l]` bounds the relative error of pi_0 ..
    pi_l.  The recurrence M_(n+1) = x s^2 (a - b)/(n+1), a = (2n+1) M_n,
    b = n x M_(n-1), carries relative errors by r_(n+1) = (a r_n -
    b r_(n-1))/(a - b).  The response of later terms to an error made at
    one step is a difference P_n Q_k - Q_n P_k of Legendre functions, which
    is positive for s >= 1, so adding each step's rounding (and the
    setup's) at its full size bounds the error of every term.  Against
    40-digit NB(1/2) * NB(1/2) sums up to l = 600 the bound is at least 9
    times the actual error; it grows like l^2 eps where s is near 1.
    """

    __slots__ = ("q", "mean_snr", "rho", "pi", "partial", "rel", "_x",
                 "_pref", "_terms", "_m", "_r")

    def __init__(self, q: float, mean_snr: float) -> None:
        x, s, pref, self.rho = _series_setup(q, mean_snr)
        self.q, self.mean_snr, self._x, self._pref = q, mean_snr, x, pref
        self._terms = _legendre_terms(x, s)
        m0 = next(self._terms)
        self._m = (0.0, m0)
        self._r = (0.0, _SETUP_S)
        self.pi, self.partial = [pref * m0], [pref * m0]
        self.rel = [_SETUP_S + _SETUP_PREF + _ULP]

    def extend(self, n: int) -> None:
        # terms up to l = n - 1
        pi, partial, rel = self.pi, self.partial, self.rel
        x, pref = self._x, self._pref
        m_prev, m_cur = self._m
        r_prev, r_cur = self._r
        for k in range(len(pi) - 1, n - 1):
            m_next = next(self._terms)
            if k == 0:  # M_1 = x s^3
                r_next = _SETUP_X + 3.0 * _SETUP_S + 3.0 * _ULP
            elif m_next >= _TINY:
                a, b = (2.0 * k + 1.0) * m_cur, k * x * m_prev
                d = a - b
                r_next = ((a * r_cur - b * r_prev + (a + 2.0 * b) * _ULP
                           + b * _SETUP_X) / d
                          + 5.0 * _ULP + _SETUP_X + 2.0 * _SETUP_S)
            else:  # subnormal: its error is absolute (see _closed_miss)
                r_next = r_cur
            m_prev, m_cur, r_prev, r_cur = m_cur, m_next, r_cur, r_next
            p = pref * m_next
            pi.append(p)
            partial.append(partial[-1] + p)
            rel.append(max(rel[-1], r_next + _SETUP_PREF + _ULP))
        self._m, self._r = (m_prev, m_cur), (r_prev, r_cur)


def _closed_miss(law: _Law, u: float, x: float,
                 rel_tol: float) -> Tuple[float, int, float]:
    """(miss, terms, error) of sum_l pi_l P(u+l, x), P = 1 - Q.

    P runs downward, P(s, x) = P(s+1, x) + e_s with the increments e_s =
    x^s e^(-x)/Gamma(s+1); exchanging the order of summation gives
    sum_j e_(u+j) S_j, every term positive.  The increments come from their
    peak (`specfun.poisson_increments`) and fall past it; after term J the
    rest is at most P(u+J+1, x) <= e_(u+J+1)/(1 - x/(u+J+2)) (S_j <= 1),
    and the sum stops once that is below rel_tol of the total.
    """
    if x - u > specfun._MAX_TERMS:
        raise ConvergenceError(
            f"closed average Pd needs more than {specfun._MAX_TERMS} terms "
            f"(u={u}, q={law.q}, mean_snr={law.mean_snr}, threshold={2 * x})")
    down, e_err = specfun.poisson_increments(u, x, specfun._MAX_TERMS)
    peak = len(down) - 1
    law.extend(peak + 1)
    partial = law.partial
    terms = list(map(mul, down, partial))
    total = sum(terms)
    e, j = down[-1], peak
    while True:
        e *= x / (u + j + 1.0)
        cut = e / (1.0 - x / (u + j + 2.0))
        if cut <= rel_tol * total:
            break
        j += 1
        if j == specfun._MAX_TERMS:
            raise ConvergenceError(
                f"closed average Pd miss sum passed {specfun._MAX_TERMS} "
                f"terms (u={u}, q={law.q}, mean_snr={law.mean_snr}, "
                f"threshold={2 * x})")
        if j == len(partial):
            law.extend(2 * j)
        t = e * partial[j]
        terms.append(t)
        total += t
    miss = math.fsum(terms)
    # law terms, increments (2 roundings a step past the peak), partial
    # sums and products; each subnormal step rounds by up to 2^-1074
    rel = law.rel[j] + e_err + (2.0 * (j - peak) + 1.0) * _EPS + (j + 2) * _ULP
    return miss, j + 1, cut + miss * rel + (j + 1) * (j + 1) * 5e-324


def _closed_hit(law: _Law, u: float, threshold: float, x: float,
                rel_tol: float) -> Tuple[Optional[float], int, float]:
    """(Pd, terms, error) by the detection sum sum_l pi_l Q(u+l, x), or
    (None, terms, inf) where it would pass `specfun._MAX_TERMS`.

    Q comes from the threshold's column (`specfun._q_column`, anchored at
    `specfun.marcum_q(u, 0, sqrt(threshold))`).  Q <= 1 and pi_(l+1) <=
    rho pi_l, so after term L the rest is at most pi_L rho/(1 - rho); the
    sum grows by chunks, each at most doubling it, until that is below
    rel_tol of it.  The same ratio bounds the terms still needed, and the
    sum gives up as soon as that bound passes the cap: with rho near 1 (1 -
    rho ~ 1/(2 mean_snr)) the tail takes ~2 mean_snr ln(1/(rel_tol Pd))
    terms.  The column's x = b^2/2 differs from threshold/2 by rounding,
    and |dQ(s, x)/dx| / Q(s, x) <= 1 + 1/x, so that moves Pd relatively by
    at most |dx| (1 + 1/x).
    """
    rho = law.rho
    if not rho < 1.0:  # mean SNR past 2^53: no tail bound in double
        return None, 0, math.inf
    col = _q_column(u, math.sqrt(threshold), 0, specfun._MAX_TERMS)
    pi, c = law.pi, col.c
    total, lo, hi = 0.0, 0, len(c) + 16
    while True:
        law.extend(hi)
        col.extend(hi)
        total += sum(map(mul, pi[lo:hi], c[lo:hi]))
        cut = pi[hi - 1] * (1.0 + law.rel[hi - 1]) * rho / (1.0 - rho)
        if cut <= rel_tol * total:
            break
        # pi falls by rho a term at least: no more than `more` terms reach
        # the stop, and doubling bounds the overshoot where it falls faster
        more = (math.log(cut / (rel_tol * total)) / -math.log(rho)
                if total > 0.0 else hi)
        if hi == specfun._MAX_TERMS or (total > 0.0 and
                                        hi + more >= specfun._MAX_TERMS):
            return None, hi, math.inf
        lo, hi = hi, min(2 * hi, hi + 1 + int(more), specfun._MAX_TERMS)
    dx = abs(col.x - x) * (1.0 + 1.0 / min(x, col.x))
    rel = law.rel[hi - 1] + col.err + dx + (3 * hi + 3) * _EPS
    return total, hi, cut + total * rel + col.abs0 + hi * hi * 5e-324


def _closed_pd(law: _Law, u: float, threshold: float,
               rel_tol: float) -> MetricValue:
    """The averaged Pd at one threshold from the shared law."""
    x = 0.5 * threshold
    if x == 0.0:
        # the zero threshold, or one whose half underflows: the miss is
        # at most P(u, x) <= x^u/Gamma(u+1) with x below 5e-324
        err = (0.0 if threshold == 0.0
               else math.exp(u * _LN_SUBNORMAL - math.lgamma(u + 1.0)))
        return MetricValue(1.0, "closed_series", 0, err)
    miss, terms, err = _closed_miss(law, u, x, rel_tol)
    if miss <= 0.5:
        return MetricValue(1.0 - miss, "closed_series", terms, err + _ULP)
    # Pd is below 1/2: its own sum keeps a tiny Pd's relative accuracy
    hit, more, hit_err = _closed_hit(law, u, threshold, x, rel_tol)
    if hit is not None:
        return MetricValue(hit, "closed_series", terms + more, hit_err)
    # the law's tail falls too slowly for the detection sum: Pd is 1 - miss
    # (exact for miss >= 1/2), the miss summed again to rel_tol of Pd, and
    # its error is the miss's, absolute (1e-16 and up)
    tol = max(rel_tol * (1.0 - miss) / miss, _EPS)
    miss, again, err = _closed_miss(law, u, x, tol)
    return MetricValue(1.0 - miss, "closed_series", terms + more + again, err)


def avg_pd_closed_curve(cfg: DetectorConfig, f: HoytFading,
                        thresholds: Sequence[float],
                        policy: EvalPolicy = _DEFAULT_POLICY,
                        ) -> List[Union[MetricValue, ArithmeticError]]:
    """Average detection probability at each of several thresholds, closed.

    Under H1 the statistic is 2 Gamma(u + K), and over the Hoyt SNR the
    Poisson count K follows pi_l = pref M_l, the CAUC series' own terms
    (`_Law`), so at x = threshold/2

        1 - Pd = sum_l pi_l P(u+l, x),

    a sum of positive terms whose cost does not depend on the SNR (Digham,
    Alouini and Simon, IEEE Trans. Commun. 55(1), 2007, write average Pd
    over fading as a series of this kind).  Where that miss exceeds 1/2, Pd
    is the detection sum sum_l pi_l Q(u+l, x) instead, unless that sum
    would pass the term cap (the law's tail falls too slowly, as at q =
    1e-6 from ~24 dB); then Pd is 1 - miss, its error absolute.  The law
    is built once and shared by every threshold, and each threshold stops
    and fails on its own, so entry i is exactly avg_pd_closed(cfg, f,
    thresholds[i], policy), or the ArithmeticError that call would raise.
    A threshold that is negative, nan or inf raises ValueError first.

    est_error adds the truncation bound, the law's carried recurrence error
    (`_Law`), the error of the increments or of the column, and the
    rounding of the sums.
    """
    for threshold in thresholds:
        if not 0.0 <= threshold < math.inf:
            raise ValueError(
                f"threshold must be finite and >= 0, got {threshold}")
    law = _Law(f.q, f.mean_snr)
    u = cfg.time_bandwidth
    out: List[Union[MetricValue, ArithmeticError]] = []
    for threshold in thresholds:
        try:
            out.append(_closed_pd(law, u, threshold, policy.rel_tol))
        except ArithmeticError as exc:
            out.append(exc)
    return out


def avg_pd_closed(cfg: DetectorConfig, f: HoytFading, threshold: float,
                  policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Average detection probability at a fixed threshold, closed: the
    one-threshold call of `avg_pd_closed_curve`, raising where that returns
    an error."""
    (mv,) = avg_pd_closed_curve(cfg, f, (threshold,), policy)
    if isinstance(mv, ArithmeticError):
        raise mv
    return mv
