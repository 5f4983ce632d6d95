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
statistic carries (`_Law`, pi_l = pref M_l).  The series is pref sum_l M_l
d_l against u's beta tails d_l = I_{1/2}(u+l, u) (`_series_cauc`): one
loop runs the Legendre recurrence and stops where the bound on the rest,
pref M_L d_L rho r/(1 - rho r), is below rel_tol of the sum, as each term
falls by the law's ratio rho times the tails' r.  So its cost is flat in
the SNR: 7-260 terms over u <= 500, q in [1e-6, 1] and -10..60 dB at
rel_tol 1e-10 to 1e-13.  The averaged detection probability
(`avg_pd_closed`) is one `specfun._mixture` call on the law: the law
dotted with a threshold's incomplete gammas, or 1 minus its miss, the
threshold's gamma increments dotted with the law's CDF.  The quadrature
Pd (`avg_pd_quadrature`) is the independent check.

What depends on u alone, or on u and a threshold, is built once per
`DetectorConfig` (`_table`; the CLI builds one per request): the beta
increments and tails (`specfun._BetaTable`), the finite sum's tail
weights, and a threshold's gamma increments and column.  So a row pays
only for what its q and SNR set: the Legendre terms and the sums over
them.  The quadrature keeps its node AUCs there too, which fadings at one
mean SNR share.
"""

from __future__ import annotations

import itertools
import math
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
    # request builds those once; kept beside them on cfg
    tables = cfg._tables
    weights = tables.get(_finite_sum_weights)
    if weights is None:
        weights = tables[_finite_sum_weights] = [
            math.ldexp(tail, i + 1)
            for i, tail in enumerate(cfg._table(_binomial_tails))]
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


# the most node AUCs a configuration keeps for one rel_tol: a long sweep or
# a stalled integral (ten levels are 32,736 nodes) stops adding at ~0.75 MB
_MEMO_NODES = 1 << 13


def _node_aucs(u: float, rel_tol: float) -> Dict[float, complex]:
    # node -> complex(AUC, est_error): one complex holds the pair in 32
    # bytes, where a tuple of two floats takes 104
    return {}


def avg_auc_quadrature(cfg: DetectorConfig, f: HoytFading,
                       policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Reference average AUC: fixed-SNR AUC integrated against the SNR density.

    This is the arbiter the closed forms are judged against, so it goes out
    of its way to share nothing with them: the integrand composes the
    detector's AUC (the integer-u Poisson sum or the fixed-SNR series) with
    the Bessel-form density, on the substituted half line scaled by the
    mean SNR; at real u all nodes share cfg's column of betas
    (`specfun._BetaTable`), at integer u its binomial tails, the one table
    the finite sum also reads, which the tests pin to exact sums.  A node
    takes auc_awgn's value and est_error from the detector's float kernels
    (`detector._auc_poisson`, `detector._auc_series`), with no record.

    The nodes depend on the mean SNR and the level alone, never on q, so
    cfg keeps each node's AUC and its est_error for the next fading at that
    mean SNR and rel_tol (`_node_aucs`; the first _MEMO_NODES nodes): a q
    family computes each node's AUC once.  A row is bit for bit the one a
    fresh configuration gives.

    est_error adds the largest fixed-SNR est_error at any node to the last
    change between levels: with positive weights and a density that
    integrates to 1, the nodes' own errors move the result by no more.
    """
    u, rel_tol = cfg.time_bandwidth, policy.rel_tol
    if cfg.is_integer:
        tails, col = cfg._table(_binomial_tails), None
    else:
        tails, col = None, cfg._table(specfun._BetaTable).column
    nodes = cfg._table(_node_aucs, rel_tol)
    node_err = 0.0

    def integrand(g: float) -> float:
        nonlocal node_err
        density = snr_pdf(f, g)
        if density == 0.0:
            return 0.0
        auc = nodes.get(g)
        if auc is None:
            if col is None:
                value, err = detector._auc_poisson(tails, g)
            else:
                value, err, _ = detector._auc_series(u, g, rel_tol, col)
            auc = complex(value, err)
            if len(nodes) < _MEMO_NODES:
                nodes[g] = auc
        if auc.imag > node_err:
            node_err = auc.imag
        return auc.real * density

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


class _Law(specfun._Column, specfun._Weights):
    """pi_l = P(K = l), l = 0, 1, ..., built on demand: under H1 the
    statistic is 2 Gamma(u + K), K Poisson given the SNR, and over the Hoyt
    SNR K follows pi_l = pref M_l, the Legendre terms (`_series_setup`,
    `_legendre_fill`, pref sum M_l = 1), with pi_(l+1) <= rho pi_l.  As a
    `specfun._Column` its entries are the CDF c_l = pi_0 + ... + pi_l; as
    `_mixture` weights, `pi` from the anchor 0 with the tail pi_L rho/(1 -
    rho).

    `rel(n)` bounds the relative error of pi_0 .. pi_(n-1).  The recurrence
    M_(n+1) = x s^2 (a - b)/(n+1), a = (2n+1) M_n, b = n x M_(n-1), carries
    relative errors by r_(n+1) = (a r_n - b r_(n-1))/(a - b), plus its own
    rounding and the setup's.  The response of later terms to one step's
    error is a difference P_n Q_k - Q_n P_k of Legendre functions, positive
    for s >= 1, so adding each rounding at full size bounds every term.  As
    P_(n+1) >= s P_n, g_n = b/(a - b) = n P_(n-1)/((n+1) P_(n+1)) <=
    n/((n+1) s^2), and the steps d_n = r_n - r_(n-1) obey d_(n+1) <= g_n
    d_n + _STEP, so d_n <= d_1/n + _STEP min((n+1)/2, L), L = 1/(1 -
    s^-2): n^2 eps near s = 1, linear past n ~ 2L (a carried g_n: bound up
    to 18 times lower, 3 times the cost); subnormals round absolutely.
    """

    __slots__ = ("q", "mean_snr", "rho", "pi", "w", "_s", "_pref", "_m")
    params = ("q", "mean_snr")

    def __init__(self, q: float, mean_snr: float) -> None:
        x, s, pref, self.rho = _series_setup(q, mean_snr)
        self.q, self.mean_snr = q, mean_snr
        self._s, self._pref, self._m = s, pref, []  # the M_l, filled on demand
        self.pi = self.w = [pref * s]
        # `extend` grows c, so the column draws nothing from `more`
        super().__init__(self.pi[:], 0, x, 0.0, 0.0, 1.0, iter(()))

    def extend(self, n: int) -> None:
        # pi and c up to l = n - 1, from the Legendre terms M_l
        pi = self.pi
        if n > len(pi):
            pref = self._pref
            m = _legendre_fill(self._m, self.x, self._s, n)
            # a comprehension: on CPython 3.11 it multiplies faster than
            # map(mul, repeat(pref), ...), at 13 terms and at 1,000
            new = [pref * m_l for m_l in m[len(pi):n]]
            pi.extend(new)
            self.c.extend(itertools.accumulate(new, initial=self.c.pop()))

    def rel(self, n: int) -> float:
        return _law_rel(self._s, n)

    def error(self, total: float, rounding: float, n: int) -> float:
        return total * (rounding + self.rel(n))  # entries are off by rel(n)

    def above(self, hi: int, col: specfun._Column) -> float:
        return self.pi[hi - 1] * self.rho / (1.0 - self.rho)

    def reach(self, lo: int, hi: int, target: float, limit: int,
              col: specfun._Column) -> int:
        # pi falls by rho a term: `more` terms reach the target at most
        more = (math.log(self.above(hi, col) / target) / -math.log(self.rho)
                if target > 0.0 else hi)
        return min(2 * hi - lo, hi + 1 + int(more), limit)


def _hit_column(u: float, threshold: float) -> specfun._Column:
    # Q(u+l, x) from where it is below e^-800 (Chernoff); its x = b^2/2 is
    # threshold/2 but for rounding, and |dQ/dx| / Q <= 1 + 1/x
    x = 0.5 * threshold
    col = specfun._q_column(
        u, math.sqrt(threshold),
        int(max(0.0, x - u - math.sqrt(1600.0 * x))), int(x) + 1)
    dx = abs(col.x - x) * (1.0 + 1.0 / min(x, col.x))
    col.err += dx
    col.abs0 += col.c[0] * dx
    return col


def _closed_pd(law: _Law, cfg: DetectorConfig, threshold: float,
               rel_tol: float) -> MetricValue:
    """The averaged Pd at one threshold from the shared law.

    At x = threshold/2 the miss is sum_l pi_l P(u+l, x), P = 1 - Q.  As
    P(s, x) = P(s+1, x) + e_s, e_s = x^s e^(-x)/Gamma(s+1), exchanging the
    order of summation gives sum_j e_(u+j) c_j with c_j the law's CDF: the
    threshold's increments (`specfun._Poisson` at s = u) dotted with the
    law.  The detection sum is the law dotted with Q(u+l, x)
    (`_hit_column`).  cfg keeps both tables, one per threshold.

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
    # e_(u+j) = P(u+j, x) - P(u+j+1, x); raises past its reach, x ~ 1e6
    weights = cfg._table(specfun._Poisson, x)
    j0 = max(0, int(x - u))
    law.extend(j0 + 2)
    tol = rel_tol
    if law.c[j0] > 0.5:
        tol = _EPS
        if law.rho < 1.0:
            col = cfg._table(_hit_column, threshold)
            jm = j0 + 1  # Q(u+jm, x) is past its middle
            col.extend(jm + 1 - col.start)
            # past L = jm + more, pi_L rho/(1 - rho) <= pi_jm rho^(L-jm+1)/
            # (1 - rho) is below rel_tol pi_jm Q(u+jm, x) <= rel_tol Pd
            more = (math.log(rel_tol * col.c[jm - col.start] * (1.0 - law.rho))
                    / math.log(law.rho) if law.rho > 0.0 else 0.0)
            if jm + 1 - col.start + more <= specfun._MAX_TERMS:
                hit, err, terms = specfun._mixture(law, col, rel_tol, jm + 1)
                return MetricValue(hit, "closed_series", terms, err)
    miss, err, terms = specfun._mixture(weights, law, tol)
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
