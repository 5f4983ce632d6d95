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
covers 1 - CAUC.  The finite sum takes u terms whatever the SNR: its inner
sum over the binomial weights is a binomial tail, and all u tails come from
one pass over the Bin(2u-1, 1/2) pmf.

The Legendre terms are the law of the Poisson count that the Hoyt-averaged
statistic carries (`_Law`, pi_l = pref M_l).  The series sums them against
u's beta tails (`_series_cauc`, 7-260 terms over u <= 500, q in [1e-6, 1]
and -10..60 dB), the averaged Pd (`avg_pd_closed`) against a threshold's
incomplete gammas or, as 1 - miss, its gamma increments against the law's
CDF: one loop of positive terms each, stopped by a geometric bound on its
rest.  The quadrature Pd (`avg_pd_quadrature`) is the independent check.

What depends on u alone, or on u and a threshold, is built once per
`DetectorConfig` (`_table`; the CLI builds one per request): the beta
increments and tails (`specfun._BetaTable`), the finite sum's tail
weights, and a threshold's gamma increments and column.  So a row pays
only for what its q and SNR set: the Legendre terms and the sums over
them.  The quadrature keeps its node CAUCs there too, which fadings at
one mean SNR share, and the SNR past which a node's CAUC is 0.  It
integrates the CAUC mass below that SNR, on a half line scaled by the
smaller of the two, and stops at the tolerance of the AUC
(`avg_auc_quadrature`).
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import Dict, List, Sequence, Tuple, Union

from . import detector, specfun
from .detector import (_DEFAULT_POLICY, DetectorConfig, MetricValue,
                       _binomial_tails)
# average's own binding of auc_awgn, which the quadrature's nodes no longer
# call, is one of the sites perfbench's tracer wraps (perfbench/tracer.py)
from .detector import auc_awgn  # noqa: F401
from .hoyt import HoytFading, snr_pdf
from .quadrature import EvalPolicy, integrate_half_line

__all__ = [
    "avg_auc_closed",
    "avg_cauc_closed",
    "avg_auc_quadrature",
    "avg_pd_closed",
    "avg_pd_closed_curve",
    "avg_pd_quadrature",
]

_EPS = 2.0 ** -52


def _legendre_fill(m: List[float], x: float, s: float, n: int) -> List[float]:
    # m extended to M_l = x^l P_l(s) s^(l+1), l < n (M_0 and M_1 at least;
    # an empty m starts at M_0), by the folded recurrence M_{k+1} = x s^2
    # ((2k+1) M_k - k x M_{k-1}) / (k+1), from m's last two entries; for
    # s >= 1 every M_l > 0 and M_{l+1}/M_l <= x s (s + sqrt(s^2 - 1)) =
    # x / (1 - w)
    if not m:
        m += (s, x * s * s * s)
    xs2 = x * s * s
    m_prev, m_cur = m[-2], m[-1]
    k = len(m) - 1.0  # a float counter: mixed int/float arithmetic is slower
    for _ in range(len(m), n):
        m_prev, m_cur = m_cur, xs2 * ((2.0 * k + 1.0) * m_cur
                                      - k * x * m_prev) / (k + 1.0)
        m.append(m_cur)
        k += 1.0
    return m


def _finite_sum_weights(cfg: DetectorConfig) -> List[float]:
    # 2^(i+1) P(Bin(2u-1, 1/2) >= u + i), the finite sum's weights, from the
    # tails the Poisson node kernels read (`_binomial_tails`), so that one
    # request builds those once; kept beside them on cfg.  Past u ~ 5,900
    # a weight leaves double range, and the error names u and the loop
    tables = cfg._tables
    weights = tables.get(_finite_sum_weights)
    if weights is None:
        tails = cfg._table(_binomial_tails)
        weights = []
        try:
            for i, tail in enumerate(tails):
                weights.append(math.ldexp(tail, i + 1))
        except OverflowError:
            raise OverflowError(
                f"finite-sum weights: 2^(i+1) P(Bin(2u-1, 1/2) >= u+i) left "
                f"double range at u={len(tails)}, i={i}; the series form "
                f"(--method series) covers this point") from None
        tables[_finite_sum_weights] = weights
    return weights


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
    keeps the tails and the weights for all its rows).  The published
    version drops the (1+q^2) factor restored here.  Raises OverflowError
    where mean_snr^i or den^(i+1) leaves double range; the series form
    covers those points.
    """
    w = _finite_sum_weights(cfg)
    u = len(w)
    q2 = q * q
    den, s = _finite_sum_setup(q, mean_snr)
    # q^(2i) rides in the Legendre terms: q^(1+2i) alone underflows at
    # small q while P_i(s) s^(i+1) overflows, and 0 * inf is NaN.  Each
    # term takes its Legendre term's place in the list
    terms = _legendre_fill([], q2, s, u)
    try:
        for i in range(u):
            terms[i] = w[i] * terms[i] * (mean_snr ** i / den ** (i + 1))
    except OverflowError:
        raise OverflowError(
            f"finite-sum CAUC: mean_snr**i or den**(i+1) left double range "
            f"at u={u}, q={q}, mean_snr={mean_snr}; the series form "
            f"(--method series) covers this point") from None
    del terms[u:]  # the M_1 that u = 1 does not use
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


def avg_cauc_closed(cfg: DetectorConfig, f: HoytFading,
                    policy: EvalPolicy = _DEFAULT_POLICY,
                    form: str = "auto") -> MetricValue:
    """Fading-averaged complementary AUC by the corrected closed forms.

    form: "auto" picks the finite sum for integer u and the series otherwise;
    "finite_sum" and "series" force a route (finite_sum requires integer u —
    the series accepts any u, which is how the two routes cross-check).

    The series: with pi_l = pref M_l the law (`_Law`), the CAUC is
    pref sum_l M_l d_l, d_l = I_{1/2}(u+l, u) = sum_{j>=l} inc_j, the beta
    tails of cfg's table (`specfun._BetaTable.tails`, summed from far out
    inwards, so a CAUC of 1e-6 keeps every digit).  pi_l falls at least
    like rho^l, rho = 2m/(2m+1+q^2), and d_(l+1)/d_l <= r_l = max(1/2,
    (2u+l)/(2(u+l+1))), so the terms past L add up to at most pref M_L d_L
    rho r_L/(1 - rho r_L): the sum stops where that is below rel_tol of
    it, and raises ConvergenceError past `specfun._MAX_TERMS` terms.  Its
    est_error adds that bound to the value times the law's relative error
    (`_Law.rel`), the tails' (`_BetaTable.rel`) and one rounding a product
    and a sum.
    """
    return MetricValue(*_cauc_closed(cfg, f, policy, form))


def avg_auc_closed(cfg: DetectorConfig, f: HoytFading,
                   policy: EvalPolicy = _DEFAULT_POLICY,
                   form: str = "auto") -> MetricValue:
    """Fading-averaged AUC: exactly 1 - avg_cauc_closed, same est_error."""
    cauc, method, terms, err = _cauc_closed(cfg, f, policy, form)
    return MetricValue(1.0 - cauc, method, terms, err)


def _cauc_closed(cfg: DetectorConfig, f: HoytFading, policy: EvalPolicy,
                 form: str) -> Tuple[float, str, int, float]:
    # avg_cauc_closed's (value, method, terms_used, est_error), no record
    if form == "auto":
        form = "finite_sum" if cfg.is_integer else "series"
    elif form not in ("finite_sum", "series"):
        raise ValueError(f"unknown form {form!r}")
    if form == "finite_sum":
        if not cfg.is_integer:
            raise ValueError("finite_sum form requires integer time_bandwidth")
        u = int(round(cfg.time_bandwidth))
        return (_finite_sum_cauc(cfg, f.q, f.mean_snr), "closed_integer", u,
                1e-15 * u)
    value, err, terms = _series_cauc(cfg._table(specfun._BetaTable), f.q,
                                     f.mean_snr, policy.rel_tol)
    return value, "closed_series", terms, err


def _series_cauc(table: specfun._BetaTable, q: float, mean_snr: float,
                 rel_tol: float) -> Tuple[float, float, int]:
    # pref sum_l M_l d_l (avg_cauc_closed), its error bound and its terms:
    # the recurrence of `_legendre_fill`, inline, against u's beta tails,
    # in chunks that follow the table's blocks [0, 32), [32, 64), [64, 128),
    # ..., so a row does not depend on how far the table has grown
    x, s, pref, rho = _series_setup(q, mean_snr)
    u, limit = table.u, specfun._MAX_TERMS
    xs2 = x * s * s
    m_prev, m_cur = 0.0, s  # M_1 = x s^2 (1 M_0 - 0): x s^3, as in the fill
    total = k = 0.0  # k, a float counter, indexes m_cur
    n = 0
    while True:
        if n >= limit:
            raise specfun.ConvergenceError(
                f"average CAUC series at u={u}, q={q}, mean_snr={mean_snr} "
                f"passed {limit} terms")
        end = 2 * n if n else 32
        # for l >= n, d_(l+1)/d_l <= r and pi_(l+1)/pi_l <= rho: the terms
        # past l add up to at most term_l rho r/(1 - rho r)
        r = rho * specfun._beta_ratio(u, n)
        c = r / ((1.0 - r) * rel_tol)
        for d_l in table.tails(end)[n:min(end, limit)]:
            t = m_cur * d_l
            total += t
            if t * c <= total:
                break
            m_prev, m_cur = m_cur, xs2 * ((2.0 * k + 1.0) * m_cur
                                          - k * x * m_prev) / (k + 1.0)
            k += 1.0
        else:  # the chunk ran out: the next one
            n = int(k)
            continue
        break
    n = int(k) + 1
    # the bound on the rest, by the ratios at the last term's index
    r = rho * specfun._beta_ratio(u, k)
    value = pref * total
    return value, (pref * t * r / (1.0 - r)
                   + value * (_law_rel(s, n) + table.rel[n - 1]
                              + (n + 1.0) * _EPS)
                   + n * 5e-324), n


# the most node CAUCs a configuration keeps for one rel_tol: a long sweep
# or a stalled integral (ten levels are 32,736 nodes) stops adding at
# ~0.75 MB
_MEMO_NODES = 1 << 13

# the relative step below which `_exit_cut`'s walk stops, and the margin it
# adds past the crossing: far more than the bound's rounding, a few ulps of
# its logarithm, can move the crossing
_CUT_WIDTH = 1e-6


def _node_caucs(u: float, rel_tol: float) -> Dict[float, complex]:
    # node -> complex(CAUC, est_error): one complex holds the pair in 32
    # bytes, where a tuple of two floats takes 104
    return {}


def _exit_cut(u: float, rel_tol: float) -> float:
    # an SNR past which the Chernoff bound on the fixed-SNR CAUC
    # (`detector._cauc_chernoff`) is at most rel_tol/2, _CUT_WIDTH relative
    # above the smallest such SNR.  The log of the bound falls and is
    # concave in the SNR, its slope -s/(1+s) (`detector._chernoff_ln`), so
    # Newton's walk on it lands above the crossing from any start (a
    # concave function lies below its tangents) and then falls to it from
    # above, 2-6 bound evaluations over u <= 500 at rel_tol 1e-10.  It
    # starts from 2 ln(2/rel_tol), since the bound is above e^(-snr/2), and
    # the margin on top keeps every node past the cut passing the bound's
    # own test
    half = 0.5 * rel_tol
    if half >= 1.0:
        return 0.0
    target = math.log(half)
    g = -2.0 * target
    while True:
        ln_bound, s = detector._chernoff_ln(u, g)
        step = (ln_bound - target) * (1.0 + s) / s
        g += step
        if abs(step) <= _CUT_WIDTH * g:
            return g * (1.0 + _CUT_WIDTH)


def avg_auc_quadrature(cfg: DetectorConfig, f: HoytFading,
                       policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Reference average AUC: 1 - the fixed-SNR CAUC integrated against the
    SNR density.

    The arbiter of the closed forms, so it shares nothing with them: the
    detector's CAUC at each node (the integer-u Poisson sum over cfg's
    binomial tails, or the real-u series over its beta tails, by the
    detector's float kernels `_cauc_poisson`, `_cauc_forward` and
    `_cauc_series`) times the Bessel-form density, integrated on the half
    line, and the AUC is 1 minus that integral.

    A node needs its CAUC only to the integral's tolerance.  Past the cut
    g_c where the Chernoff bound on the CAUC falls to rel_tol/2
    (`_exit_cut`, one per u and rel_tol, kept on cfg) a node's CAUC is 0,
    at any u: it costs no density and no kernel.  Below it the real-u
    series sums the CAUC to _SUM_TOL of itself plus rel_tol/4 absolute: up
    from k = 0 at g <= `detector._FORWARD_MAX` (150), out from the terms'
    peak above.  The integer-u Poisson sum takes its u terms.  The map
    x = h t/(1-t) is scaled by h = min(mean SNR, g_c), so at any mean SNR
    half of each level's nodes lie below the cut, where the mass is; the
    levels stop where they agree within rel_tol of the AUC, not of the
    CAUC.  The nodes depend on the mean SNR, u, rel_tol and the level
    alone, never on q, so cfg keeps each node's CAUC and est_error below the cut for the
    next fading at that mean SNR and rel_tol (`_node_caucs`, the first
    _MEMO_NODES nodes): a q family computes each such node's CAUC once,
    and a row is bit for bit the one a fresh configuration gives.

    est_error adds to the last change between levels the largest node
    error: that of the nodes below the cut, or the Chernoff bound at the
    smallest node past it, taken once after the integral, whichever is
    larger (the bound falls with g, so it covers every node past the
    cut).  With positive weights and a density that integrates to 1, the
    nodes' own errors move the result no more.
    """
    rel_tol = policy.rel_tol
    atol = 0.25 * rel_tol
    if cfg.is_integer:
        tails, betas = cfg._table(_binomial_tails), None
    else:
        tails, betas = None, cfg._table(specfun._BetaTable)
    nodes = cfg._table(_node_caucs, rel_tol)
    cut = cfg._table(_exit_cut, rel_tol)
    node_err = 0.0
    g_exit = math.inf  # the smallest node past the cut

    def integrand(g: float) -> float:
        # -c(g) f(g), added to the base 1
        nonlocal node_err, g_exit
        if g >= cut:
            if g < g_exit:
                g_exit = g
            return 0.0
        density = snr_pdf(f, g)
        if density == 0.0:
            return 0.0
        c = nodes.get(g)
        if c is None:
            if betas is None:
                value, err = detector._cauc_poisson(tails, g)
            elif g <= detector._FORWARD_MAX:
                value, err, _ = detector._cauc_forward(betas, g, atol)
            else:
                value, err, _ = detector._cauc_series(betas, g, atol)
            c = complex(value, err)
            if len(nodes) < _MEMO_NODES:
                nodes[g] = c
        if c.imag > node_err:
            node_err = c.imag
        return -c.real * density

    # a cut of 0 (rel_tol >= 2) leaves no node below it, at any scale
    scale = min(f.mean_snr, cut) if cut else f.mean_snr
    value, err, evals = integrate_half_line(integrand, policy, scale=scale,
                                            base=1.0)
    if g_exit < math.inf:
        node_err = max(node_err,
                       detector._cauc_chernoff(cfg.time_bandwidth, g_exit))
    return MetricValue(value, "quadrature", evals, err + node_err)


_REL_FLOOR = 1e-300


def avg_pd_quadrature(cfg: DetectorConfig, f: HoytFading, threshold: float,
                      policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Average detection probability at a fixed threshold.

    The quadrature over the SNR nodes g of Q_u(sqrt(2g), b) times the
    density, b = sqrt(threshold), each node's Marcum Q with its own bound
    (`specfun._marcum_q`), so it reaches as far in g as Marcum Q does
    (~1e6).  It is the independent check of `avg_pd_closed`.  est_error
    adds the node errors to the last change between levels: weights and
    density are positive, so if no node is off by more than r times its
    value, the integral is off by at most r times its own.  It takes the
    largest such ratio over the nodes above 1e-300 (and the largest error
    over the others), which keeps a tiny average Pd's error relative.
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
# `_Law.rel`: the rounding of x, s and pref, of the first and later steps
_SETUP_X, _SETUP_S, _SETUP_PREF = 9.0 * _ULP, 14.0 * _ULP, 10.0 * _ULP
_D1 = _SETUP_X + 2.0 * _SETUP_S + 3.0 * _ULP
_STEP = 9.0 * _ULP + 2.0 * _SETUP_X + 2.0 * _SETUP_S


def _law_rel(s: float, n: int) -> float:
    # `_Law.rel` at Legendre argument s: the sum over k <= n of min((k+1)/2,
    # L), L = 1/(1 - s^-2), is (k+1)/2 up to k = 2L - 1
    lim = 1.0 / (1.0 - 1.0 / (s * s)) if s > 1.0 else 1e300
    k = min(n, int(2.0 * lim - 1.0))
    return (_SETUP_S + _SETUP_PREF + _ULP + _D1 * (1.0 + math.log(n))
            + _STEP * (k * (k + 3) / 4.0 + (n - k) * lim))


class _Law:
    """pi_l = P(K = l) and the CDF c_l = pi_0 + ... + pi_l, l = 0, 1, ...,
    as lists built on demand: under H1 the statistic is 2 Gamma(u + K), K
    Poisson given the SNR, and over the Hoyt SNR K follows pi_l = pref M_l,
    the Legendre terms (`_series_setup`, the recurrence of
    `_legendre_fill`, run inline), with pi_(l+1) <= rho pi_l.

    `rel(n)` bounds the relative error of pi_0 .. pi_(n-1).  The recurrence
    M_(n+1) = x s^2 (a - b)/(n+1), a = (2n+1) M_n, b = n x M_(n-1), carries
    relative errors by r_(n+1) = (a r_n - b r_(n-1))/(a - b), plus its own
    rounding and the setup's; a step's error reaches later terms through
    P_n Q_k - Q_n P_k > 0 (s >= 1), so each rounding counts at full size.
    As P_(n+1) >= s P_n, g_n = b/(a - b) <= n/((n+1) s^2), and d_n = r_n -
    r_(n-1) obeys d_(n+1) <= g_n d_n + _STEP, so d_n <= d_1/n + _STEP
    min((n+1)/2, L), L = 1/(1 - s^-2): n^2 eps near s = 1, linear past n ~
    2L; subnormals round absolutely.
    """

    __slots__ = ("q", "mean_snr", "rho", "pi", "c", "_x", "_s", "_pref",
                 "_m")

    def __init__(self, q: float, mean_snr: float) -> None:
        x, s, pref, self.rho = _series_setup(q, mean_snr)
        self.q, self.mean_snr = q, mean_snr
        self._x, self._s, self._pref = x, s, pref
        self._m = (0.0, s)  # M_(l-1), M_l for l = len(pi) - 1
        self.pi, self.c = [pref * s], [pref * s]

    def extend(self, n: int) -> None:
        # pi and c up to l = n - 1
        pi, c = self.pi, self.c
        x, pref, xs2 = self._x, self._pref, self._x * self._s * self._s
        m_prev, m_cur = self._m
        acc = c[-1]
        k = len(pi) - 1.0  # a float counter, indexing m_cur
        for _ in range(len(pi), n):
            m_prev, m_cur = m_cur, xs2 * ((2.0 * k + 1.0) * m_cur
                                          - k * x * m_prev) / (k + 1.0)
            k += 1.0
            p = pref * m_cur
            pi.append(p)
            acc += p
            c.append(acc)
        self._m = (m_prev, m_cur)

    def rel(self, n: int) -> float:
        return _law_rel(self._s, n)


def _gamma_increments(u: float,
                      x: float) -> Tuple[int, List[float], float, float]:
    # (lo, e, e's relative error, their sum below lo): e_j = P(u+j, x) -
    # P(u+j+1, x) from lo = x - u - sqrt(2 x L), L = -ln _WINDOW_MASS,
    # below which they add up to at most e^-L (Chernoff) and e_lo rho/(1 -
    # rho), rho = (u+lo)/x, to past their peak ~x - u, until the rest, at
    # most e_j r/(1 - r), r = x/(u+j+1), is below e^-L too
    lo = int(max(0.0, x - u - math.sqrt(2.0 * x * specfun._LN_MASS)))
    e, err = specfun.poisson_increments(u + lo, x, max(0, int(x - u)) - lo)
    e_j, j, peak = e[-1], lo + len(e), len(e)
    while True:
        r = x / (u + j)
        if r < 1.0 and e_j * r <= specfun._WINDOW_MASS * (1.0 - r):
            break
        e_j *= r
        e.append(e_j)
        j += 1
    rho = (u + lo) / x
    return (lo, e, err + 2.0 * (len(e) - peak) * _EPS,
            e[0] * rho / (1.0 - rho) if lo else 0.0)


def _hit_column(u: float,
                threshold: float) -> Tuple[int, List[float], float, float]:
    # (start, Q(u+l, x) from l = start, where it is below e^-800, relative
    # and absolute errors), with no cap (`_gamma_increments` bounds x); its
    # x = b^2/2 is threshold/2 but for rounding, and |dQ/dx|/Q <= 1 + 1/x
    x = 0.5 * threshold
    b = math.sqrt(threshold)
    start = int(max(0.0, x - u - math.sqrt(1600.0 * x)))
    col, err, err0 = specfun._q_column(u, b, start, sys.maxsize)
    x_col = 0.5 * b * b
    dx = abs(x_col - x) / min(x, x_col) * (1.0 + min(x, x_col))
    return start, col, err + dx, err0 + col[0] * dx


def _closed_pd(law: _Law, cfg: DetectorConfig, threshold: float,
               rel_tol: float) -> MetricValue:
    """The averaged Pd at one threshold from the shared law.

    At x = threshold/2 the miss is sum_l pi_l P(u+l, x), P = 1 - Q.  As
    P(s, x) = P(s+1, x) + e_s, e_s = x^s e^(-x)/Gamma(s+1), exchanging the
    order of summation gives sum_j e_(u+j) c_j, the threshold's increments
    (`_gamma_increments`) against the law's CDF c.  The detection sum is
    the law against Q(u+l, x) (`_hit_column`).  cfg keeps both tables, one
    per threshold.  Each sum adds its first terms with math.fsum and goes
    on in one loop of positive terms, stopped where its rest (the
    increments' or the law's geometric tail, times c or Q <= 1) is below
    its tolerance.

    The route is chosen before summing.  The increments peak at j0 = x -
    u: where P(K <= j0) <= 1/2, Pd >= Q(u+j0+1, x)/2 is at least ~1/6 and
    1 - miss keeps its precision.  Otherwise the detection sum keeps a
    small Pd relative, unless its count of terms, known as pi falls by rho
    a term, passes `specfun._MAX_TERMS` (as at q = 1e-6 from ~24 dB), or
    rho is 1: then Pd is 1 - miss, summed to eps, its error absolute.
    """
    u = cfg.time_bandwidth
    x = 0.5 * threshold
    if x == 0.0:
        # the zero threshold, or one whose half underflows: the miss is
        # at most P(u, x) <= x^u/Gamma(u+1) with x below 5e-324
        err = (0.0 if threshold == 0.0 else
               math.exp(u * math.log(5e-324) - math.lgamma(u + 1.0)))
        return MetricValue(1.0, "closed_series", 0, err)
    if specfun._poisson_reach(x) > specfun._MAX_TERMS:  # x ~ 1e6
        raise specfun.ConvergenceError(
            f"closed Pd at u={u}, threshold={threshold}: the gamma "
            f"increments of x={x} cannot close within {specfun._MAX_TERMS} "
            f"terms of their peak")
    j0 = max(0, int(x - u))
    law.extend(j0 + 2)
    pi, c, rho = law.pi, law.c, law.rho
    tol = rel_tol
    if c[j0] > 0.5:
        tol = _EPS
        if rho < 1.0:
            start, col, col_err, col_err0 = cfg._table(_hit_column, threshold)
            n, last = len(col), col[-1]
            jm = j0 + 1  # Q(u+jm, x) is past its middle
            # past L = jm + more, pi_L rho/(1 - rho) <= pi_jm rho^(L-jm+1)/
            # (1 - rho) is below rel_tol pi_jm Q(u+jm, x) <= rel_tol Pd
            q_jm = col[jm - start] if jm - start < n else last
            more = (math.log(rel_tol * q_jm * (1.0 - rho)) / math.log(rho)
                    if rho > 0.0 else 0.0)
            if jm + 1 - start + more <= specfun._MAX_TERMS:
                # up to jm at once (col reaches past Q's middle), then
                # tested, as Q >= ~1/2 (its bound 1 costs at most 2x), or
                # in the subnormal range, where pi_l may even read < 0
                cut = rel_tol * (1.0 - rho)
                floor = specfun._TAIL_FLOOR * (1.0 - rho)
                hit, l = math.fsum(map(mul, pi[start:jm], col)), jm
                while True:
                    if l == len(pi):
                        law.extend(2 * l)
                    p = pi[l]
                    hit += p * (col[l - start] if l - start < n else last)
                    above = p * rho
                    if above <= cut * hit or above <= floor:
                        break
                    l += 1
                terms = l + 1 - start
                below = c[start - 1] * col[0] if start else 0.0  # l < start
                err = (hit * (law.rel(l + 1) + col_err
                              + (2.0 * terms + 2.0 * (l - start) + 1.0) * _EPS)
                       + col_err0 + (abs(above) + 5e-324) / (1.0 - rho)
                       + below + terms * 5e-324)
                return MetricValue(hit, "closed_series", terms, err)
    lo, e, e_err, e_below = cfg._table(_gamma_increments, x)
    j = lo + len(e)
    law.extend(j)
    miss, e_j = math.fsum(map(mul, e, c[lo:j])), e[-1]
    # on past the table while its rest, at most e_(j-1) r/(1 - r), r =
    # x/(u+j) < 1, is above tol of the sum
    while True:
        r = x / (u + j)
        if e_j * r <= (1.0 - r) * tol * miss:
            break
        if j >= j0 + specfun._MAX_TERMS:
            raise specfun.ConvergenceError(
                f"closed Pd's miss sum at u={u}, threshold={threshold}, "
                f"q={law.q}, mean_snr={law.mean_snr} passed "
                f"{specfun._MAX_TERMS} terms past the gamma increments' peak")
        if j == len(c):
            law.extend(2 * j)
        e_j *= r
        miss += e_j * c[j]
        j += 1
    terms = j - lo
    err = (miss * (e_err + law.rel(j) + (2.0 * terms + j + 1.0) * _EPS)
           + e_j * r / (1.0 - r) + c[lo] * e_below + terms * 5e-324)
    return MetricValue(1.0 - miss, "closed_series", terms, err + _ULP)


def avg_pd_closed_curve(cfg: DetectorConfig, f: HoytFading,
                        thresholds: Sequence[float],
                        policy: EvalPolicy = _DEFAULT_POLICY,
                        ) -> List[Union[MetricValue, ArithmeticError]]:
    """Average detection probability at each of several thresholds, closed.

    Under H1 the statistic is 2 Gamma(u + K), and over the Hoyt SNR the
    Poisson count K follows pi_l = pref M_l, the CAUC series' own terms
    (`_Law`), so at x = threshold/2

        1 - Pd = sum_l pi_l P(u+l, x),

    a sum of positive terms (Digham, Alouini and Simon, IEEE Trans. Commun.
    55(1), 2007, write average Pd over fading as a series of this kind), or
    Pd is the detection sum instead (`_closed_pd`).  The law is built once
    and shared, and each threshold stops and fails on its own: entry i is
    exactly avg_pd_closed(cfg, f, thresholds[i], policy), or the
    ArithmeticError that call would raise.  A threshold that is negative,
    nan or inf raises ValueError first.
    """
    for threshold in thresholds:
        if not 0.0 <= threshold < math.inf:
            raise ValueError(
                f"threshold must be finite and >= 0, got {threshold}")
    law = _Law(f.q, f.mean_snr)
    out: List[Union[MetricValue, ArithmeticError]] = []
    for threshold in thresholds:
        try:
            out.append(_closed_pd(law, cfg, threshold, policy.rel_tol))
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
