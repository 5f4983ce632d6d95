"""Energy-detector metrics on the unfaded channel.

The decision statistic has 2u degrees of freedom with u the observation
time-bandwidth product: central chi-square under noise only, noncentral with
noncentrality 2*snr when a signal is present.  From those two distributions
follow the false-alarm and detection probabilities, and the area under the
ROC curve at a fixed SNR, which is what everything else in the package
averages over fading.

Three independent AUC routes are kept side by side on purpose: a finite
Poisson sum for integer u (the paper's Laguerre form with its two sums
swapped), an infinite series valid for any real u > 0, and direct
quadrature of P_d against the noise-only threshold density.  They must
agree; the validation suite holds them to that.

Both closed forms sum the complementary AUC (CAUC), returned by
`cauc_awgn` to full relative precision, from positive terms: the integer-u
form in u terms, the real-u series sum_k Pois(k; snr) d_k over the beta
tails d_k = I_{1/2}(u+k, u) (`specfun._BetaTable.tails`) in one loop out
from the terms' peak (`_cauc_series`), or for a quadrature node at a
moderate SNR in one loop up from k = 0 (`_cauc_forward`).  The AUC is
1 - CAUC.  One derived CAUC bound, `_cauc_chernoff`, ends the AUC with 1
where it is below rel_tol/2, and the CAUC with 0 where it is below the
normal range.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from typing import Any, Callable, Dict, List, Tuple

from . import specfun
from .specfun import ConvergenceError
from .quadrature import EvalPolicy, integrate_half_line
from .record import Record, _set

__all__ = [
    "DetectorConfig",
    "MetricValue",
    "pf",
    "pd",
    "threshold_for_pf",
    "auc_awgn",
    "auc_awgn_series",
    "auc_awgn_1f1_variant",
    "cauc_awgn",
    "auc_quadrature",
    "roc_points_awgn",
]

_INTEGER_EPS = 1e-12
_LN2 = math.log(2.0)
_EPS = 2.0 ** -52
_ULP = 0.5 * _EPS  # the unit roundoff
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1

_DEFAULT_POLICY = EvalPolicy()

_METHODS = ("closed_integer", "closed_series", "quadrature", "monte_carlo")


class DetectorConfig(Record):
    """Receiver configuration; time_bandwidth is u = T*W of the integrator.

    is_integer tells whether u is within _INTEGER_EPS of a positive integer.
    The tables that depend on u alone, or on u and a threshold or a
    tolerance, are kept on the instance (`_table`), so every evaluation at
    one configuration shares them; the CLI builds one configuration per
    request.
    """

    _fields = ("time_bandwidth",)
    __slots__ = _fields + ("is_integer", "_tables")
    time_bandwidth: float
    is_integer: bool
    _tables: Dict[Any, Any]

    def __init__(self, time_bandwidth: float) -> None:
        u = time_bandwidth
        if not (math.isfinite(u) and u > 0.0):
            raise ValueError(
                f"time-bandwidth product must be finite and positive, got {u!r}")
        _set(self, "time_bandwidth", u)
        # round(u) is 0 below 1/2
        _set(self, "is_integer", u > 0.5 and abs(u - round(u)) < _INTEGER_EPS)
        _set(self, "_tables", {})

    def _table(self, build: Callable[..., Any], *args: Any) -> Any:
        # build(u, *args), called on the first use and kept for the next ones
        tables, key = self._tables, (build, *args) if args else build
        if key not in tables:
            tables[key] = build(self.time_bandwidth, *args)
        return tables[key]


class MetricValue(Record):
    """A computed probability plus how it was obtained.

    `method` is one of closed_integer / closed_series / quadrature /
    monte_carlo.  `est_error` is an estimate (usually a bound) of the
    numerical error of `value`; it does not include model error.
    """

    __slots__ = _fields = ("value", "method", "terms_used", "est_error")
    value: float
    method: str
    terms_used: int
    est_error: float

    def __init__(self, value: float, method: str, terms_used: int = 0,
                 est_error: float = 0.0) -> None:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}, expected one of {_METHODS}")
        if terms_used < 0:
            raise ValueError(f"terms_used must be >= 0, got {terms_used}")
        if not (est_error >= 0.0):
            raise ValueError(f"est_error must be >= 0, got {est_error}")
        _set(self, "value", value)
        _set(self, "method", method)
        _set(self, "terms_used", terms_used)
        _set(self, "est_error", est_error)


def pf(cfg: DetectorConfig, threshold: float) -> float:
    """False-alarm probability at the given energy threshold.

    The noise-only statistic is central chi-square with 2u degrees of
    freedom, so this is the regularized upper gamma Q(u, threshold/2);
    strictly decreasing in the threshold.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    return specfun.reg_upper_gamma(cfg.time_bandwidth, 0.5 * threshold)


def pd(cfg: DetectorConfig, snr: float, threshold: float) -> float:
    """Detection probability Q_u(sqrt(2*snr), sqrt(threshold)).

    snr is the instantaneous linear SNR.  At snr=0 this reduces exactly to
    pf (same incomplete-gamma evaluation), which keeps ROC curves honest at
    the no-signal end.
    """
    return _pd(cfg, snr, threshold)[0]


def _pd(cfg: DetectorConfig, snr: float,
        threshold: float) -> Tuple[float, float]:
    # pd and its error bound (at snr = 0 the fixed 1e-15 of pf rows)
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if snr == 0.0:
        # identical evaluation, not just equal in the limit: avoids the
        # sqrt/square round-trip perturbing the gamma argument by an ulp
        return pf(cfg, threshold), 1e-15
    return specfun._marcum_q(cfg.time_bandwidth,
                             math.sqrt(2.0 * snr), math.sqrt(threshold))


def threshold_for_pf(cfg: DetectorConfig, pf_target: float) -> float:
    """Invert pf: find the threshold whose false-alarm probability is pf_target.

    Newton in t = ln(threshold) on the log of the smaller tail: ln pf up to
    pf = 1/2, ln(1 - pf) above.  Both are concave in t, as ln of a Gamma
    variable has a log-concave density, so a step from anywhere lands at
    or past the root, and from there the steps close in on it from that
    side.  The log coordinate also reaches the tiny roots near pf = 1 at
    u < 1 (~1e-180 at u = 0.05, pf = 1 - 1e-9).  It starts at the
    Wilson-Hilferty chi-square quantile, or at the lower bound on the root
    from P(u, x) <= x^u / Gamma(u+1) where that is higher, and takes 1 to 7
    pf calls over u in [0.05, 500] and pf in [1e-12, 1 - 1e-12].  It stops
    at |pf - target| <= 1e-13 * target, or once the bracket on t is an ulp
    wide or the step rounds away, where the rounding of pf itself sets the
    limit (a few 1e-13 at u = 500); it returns the closest threshold it
    tried.  cfg keeps each root for the request.
    """
    if not (0.0 < pf_target < 1.0):
        raise ValueError(f"pf_target must lie in (0, 1), got {pf_target}")
    roots = cfg._table(_roots)
    if pf_target not in roots:
        roots[pf_target] = _invert_pf(cfg, pf_target)
    return roots[pf_target][0]


def _roots(u: float) -> Dict[float, Tuple[float, float]]:
    # pf target -> (threshold, pf at it): the inversions made at u
    return {}


def _threshold_and_pf(cfg: DetectorConfig,
                      pf_target: float) -> Tuple[float, float]:
    # threshold_for_pf's root and the pf its inversion found there, which
    # is pf(cfg, root) bit for bit
    lam = threshold_for_pf(cfg, pf_target)
    return lam, cfg._table(_roots)[pf_target][1]


def _normal_upper_quantile(p: float) -> float:
    # z with P(N(0, 1) > z) = p, within 4.5e-4 (Abramowitz & Stegun 26.2.23)
    r = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = r - (((0.010328 * r + 0.802853) * r + 2.515517)
             / (((0.001308 * r + 0.189269) * r + 1.432788) * r + 1.0))
    return z if p <= 0.5 else -z


def _invert_pf(cfg: DetectorConfig, pf_target: float) -> Tuple[float, float]:
    # threshold_for_pf past its argument check: (threshold, pf there)
    u = cfg.time_bandwidth
    lo = _LN2 + (math.log1p(-pf_target) + math.lgamma(u + 1.0)) / u
    # Wilson-Hilferty: (chi2_2u / 2u)^(1/3) is near normal, mean 1 - v,
    # variance v
    v = 1.0 / (9.0 * u)
    base = 1.0 - v + _normal_upper_quantile(pf_target) * math.sqrt(v)
    t = max(lo, math.log(2.0 * u) + 3.0 * math.log(base)) if base > 0.0 else lo
    hi = 709.0  # lam ~ 8e307
    upper = pf_target <= 0.5
    side = pf_target if upper else 1.0 - pf_target
    ln_norm = u * _LN2 + specfun.ln_gamma(u)
    best = (math.inf, 0.0, 0.0)
    for _ in range(100):
        lam = math.exp(t)
        got = pf(cfg, lam)
        err = got - pf_target
        if err > 0.0:
            lo = t  # pf too high -> threshold too low
            if t > 700.0:  # lam ~ 1e304
                raise ConvergenceError(
                    f"threshold inversion ran away at u={u}, "
                    f"target {pf_target}, pf error {err:.3e}")
        else:
            hi = t
        best = min(best, (abs(err), lam, got))
        if abs(err) <= 1e-13 * pf_target or hi - lo <= _EPS * max(1.0, abs(t)):
            return best[1], best[2]
        # Newton on the log of the tail, -d pf/dt = threshold density times
        # the threshold; bisect where the step leaves the bracket
        ln_slope = _ln_threshold_density(u, lam, ln_norm) + t
        tail = got if upper else 1.0 - got
        nxt = lo
        if tail > 0.0 and ln_slope > -700.0:
            step = (math.log1p((err if upper else -err) / side) * tail
                    / math.exp(ln_slope))
            nxt = t + step if upper else t - step
            if nxt == t:
                return best[1], best[2]
        t = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise ConvergenceError(f"threshold inversion stalled at u={u}, "
                           f"target {pf_target}, pf error {err:.3e}")


def _cauc_chernoff(u: float, snr: float) -> float:
    # the CAUC is P(X < Y), X ~ Gamma(u + Poisson(snr)), Y ~ Gamma(u), so
    # for 0 < s < 1 it is below E e^(s(Y-X)) = (1-s^2)^-u e^(-snr s/(1+s))
    # (`_chernoff_ln`)
    return math.exp(_chernoff_ln(u, snr)[0])


def _chernoff_ln(u: float, snr: float) -> Tuple[float, float]:
    # (the log of `_cauc_chernoff`'s bound, its s).  s is the minimiser,
    # the root of 2u s^2 + (2u+snr) s - snr, so the log's slope in snr is
    # -s/(1+s); but any s in (0, 1) gives a valid bound, so rounding in s
    # cannot break it: past b^2's range b is scaled out of the root, and
    # where s rounds to 1 it takes the largest double below 1
    b = 2.0 * u + snr
    root = math.sqrt(b * b + 8.0 * u * snr)
    if root < math.inf:
        s = 2.0 * snr / (b + root)
    else:
        x = snr / b
        s = 2.0 * x / (1.0 + math.sqrt(1.0 + 8.0 * u * x / b))
    s = min(s, _BELOW_ONE)
    return -u * math.log1p(-s * s) - snr * s / (1.0 + s), s


def auc_awgn_series(cfg: DetectorConfig, snr: float,
                    policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """AUC at fixed SNR by the real-u series (works for integer u too).

    1 - CAUC, the CAUC from `_cauc_series` over cfg's beta tails, with an
    absolute est_error: the CAUC's bound and the rounding of 1 - CAUC.
    rel_tol sets only the exit: AUC 1 where the Chernoff CAUC bound, then
    its est_error, is below rel_tol/2.
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    value, err, terms = _auc_series(cfg._table(specfun._BetaTable), snr,
                                    policy.rel_tol)
    return MetricValue(value, "closed_series", terms, err)


def _auc_series(table: specfun._BetaTable, snr: float,
                rel_tol: float) -> Tuple[float, float, int]:
    # auc_awgn_series past its argument check: (AUC, error bound, terms)
    bound = _cauc_chernoff(table.u, snr)
    if bound <= 0.5 * rel_tol:
        return 1.0, bound, 0
    c, err, terms = _cauc_series(table, snr)
    return 1.0 - c, err + min(c, _ULP), terms


def _cauc_series(table: specfun._BetaTable, snr: float,
                 atol: float = 0.0) -> Tuple[float, float, int]:
    # sum_k Pois(k; snr) d_k over the tails d_k = I_{1/2}(u+k, u) (cauc_awgn
    # at real u): (CAUC, error bound, terms).  It starts at the terms' peak,
    # the first k with snr d_(k+1) <= (k+1) d_k, by bisection up to k + 1 =
    # snr r_0, where it holds (d_(k+1)/d_k <= r_k <= r_0, r_k =
    # `specfun._beta_ratio(u, k)`).  Up, every later term ratio is at most
    # rho = snr r_k/(k+1); down, d <= 1/2 and the Poisson mass below k is
    # at most Pois(k) s/(1 - s), s = k/snr < 1: each stops once that rest
    # is at most _SUM_TOL of the sum plus atol, and both rests count in
    # the error bound.  The public routes take atol = 0, the CAUC to its
    # own relative precision; a quadrature node, which needs it only to
    # its integral's tolerance, passes a share of that
    u, tol = table.u, specfun._SUM_TOL
    if snr == 0.0:
        return 0.5, 0.0, 1  # I_{1/2}(u, u) = 1/2
    hi = int(snr * specfun._beta_ratio(u, 0.0))
    d = table.tails(hi + 2)  # grows in place
    n_d = len(d)
    lo = bisect.bisect_left(range(hi), True,
                            key=lambda k: snr * d[k + 1] <= (k + 1) * d[k])
    w_peak, w_err = specfun.poisson_weight(lo, snr)
    total = t = w_peak * d[lo]
    w, k, j = w_peak, float(lo), lo
    v = u if u > 1.0 else 1.0  # r_k is 1/2 for u <= 1, as it is at u = 1
    while True:
        rho = snr * ((2.0 * v + k) / (2.0 * (v + k + 1.0))) / (k + 1.0)
        if t * rho <= (tol * total + atol) * (1.0 - rho):
            break
        if j - lo == specfun._MAX_TERMS:
            raise ConvergenceError(
                f"fixed-SNR CAUC series at u={u}, snr={snr} passed "
                f"{specfun._MAX_TERMS} terms past its peak at k={lo}")
        j += 1
        if j == n_d:
            n_d = len(table.tails(2 * j))
        k += 1.0
        w *= snr / k
        t = w * d[j]
        total += t
    above = t * rho / (1.0 - rho)
    w, k, below = w_peak, float(lo), 0.0
    while lo:
        s = k / snr
        below = 0.5 * w * s / (1.0 - s)
        if below <= tol * total + atol:
            break
        w *= s
        k -= 1.0
        lo -= 1
        total += w * d[lo]
    else:
        below = 0.0
    terms = j - lo + 1
    # a rounding a weight step, a product and a sum, and `_BetaTable.rel`
    rel = w_err + table.rel[j] + 2.0 * terms * _EPS
    return total, total * rel + above + below + terms * 5e-324, terms


# the largest node SNR that `_cauc_forward` takes.  Its cost grows with
# the SNR, as it walks up from k = 0, where `_cauc_series` walks out from
# the peak.  In-process at atol = 2.5e-11 (CPython 3.11, a shared 2-vCPU
# Xeon, best of 40) the forward loop took 2.3-19.6 us a node up to g =
# 150 over u = 0.7 to 499.5, and the peak walk with a Chernoff test
# before it (`_auc_series`) 5.1-33 us; the two cost the same at g ~155 at
# u = 150.5 (exit cut 164), ~170 at u = 200.5, ~200 at u = 300.5 and ~240
# at u = 499.5, just below the cut.  From u ~140 the
# cut passes 150.  And e^(-150) = 7e-66 keeps the weights normal
_FORWARD_MAX = 150.0


def _cauc_forward(table: specfun._BetaTable, snr: float,
                  atol: float) -> Tuple[float, float, int]:
    # the CAUC of `_cauc_series` for a quadrature node at snr <=
    # _FORWARD_MAX, with no peak search and no down walk: (CAUC, error
    # bound, terms).  The weights build up from k = 0, w_0 = e^(-snr), w_k
    # = w_(k-1) snr/k, against t_k = w_k d_k.  Past the mode (k > snr) every
    # later term ratio is at most rho = snr/(k+1), as d falls, so the rest
    # is at most t_k rho/(1 - rho) = t_k snr/(k + 1 - snr); the sum stops
    # once that is at most _SUM_TOL of it plus atol, so no weight falls
    # far below 1e-16 of the first term e^(-snr)/2: every weight is normal
    tol, n = specfun._SUM_TOL, int(snr) + 1
    d = table.tails(n + 1)  # grows in place
    n_d = len(d)
    w = math.exp(-snr)
    total = w * d[0]
    for k in range(1, n + 1):
        w *= snr / k
        total += w * d[k]
    t, k = w * d[n], float(n)
    while t * snr > (tol * total + atol) * (k + 1.0 - snr):
        n += 1
        if n == n_d:
            n_d = len(table.tails(2 * n))
        k += 1.0
        w *= snr / k
        t = w * d[n]
        total += t
    # relative roundings: exp's ulp (two), two a weight step, one in each
    # product and each addition, 3n + 3 in all and one for their products;
    # `_BetaTable.rel`; and 2^-1074 a product that underflows
    rel = table.rel[n] + (3.0 * n + 4.0) * _ULP
    return (total, total * rel + t * snr / (k + 1.0 - snr) + (n + 1) * 5e-324,
            n + 1)


def auc_awgn(cfg: DetectorConfig, snr: float,
             policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """AUC at a fixed SNR: the series for real u, else 1 - cauc_awgn."""
    if not cfg.is_integer:
        return auc_awgn_series(cfg, snr, policy)
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    tails = cfg._table(_binomial_tails)
    value, err = _auc_poisson(tails, snr)
    return MetricValue(value, "closed_integer", len(tails), err)


def _auc_poisson(tails: List[float], snr: float) -> Tuple[float, float]:
    # 1 - the integer-u CAUC, whose forming rounds by at most min(c, 2^-53)
    c, err = _cauc_poisson(tails, snr)
    return 1.0 - c, err + min(c, _ULP)


def auc_awgn_1f1_variant(cfg: DetectorConfig, snr: float) -> MetricValue:
    """Integer-u AUC through the confluent-hypergeometric route.

    The detection-side incomplete gamma folds into a regularized upper gamma
    plus a short sum of terminating Kummer polynomials at argument -snr/2
    (all-positive terms after the Kummer transform of the published
    expression), which matches auc_awgn to near machine precision.  The
    published transcription, at +snr/2 with no compensating exponential,
    lives in the errata report (`validate`).
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    if not cfg.is_integer:
        raise ValueError("the hypergeometric AUC form requires integer u")
    u = int(round(cfg.time_bandwidth))
    base = 1.0 - specfun.reg_upper_gamma(float(u), 0.5 * snr)
    total = 0.0
    for l in range(1 - u, u):
        total += (specfun.pochhammer(float(u), l)
                  * specfun.kummer_1f1(float(1 - u), float(1 + l), -0.5 * snr,
                                       regularized=True)
                  / 2.0 ** (u + l))
    value = base + math.exp(-0.5 * snr) * total
    return MetricValue(value, "closed_integer", 2 * u - 1, 1e-14)


def cauc_awgn(cfg: DetectorConfig, snr: float,
              policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Complementary AUC, 1 - AUC, at a fixed instantaneous SNR, summed to
    an error relative to it.

    Integer u: the paper's e^(-x) sum_{l<u} 2^-(l+u) L_l^(u-1)(-x), x =
    snr/2, with L_l^(u-1)(-x) = sum_j C(l+u-1, l-j) x^j/j! expanded and the
    two sums swapped, is

        sum_{j<u} T_j e^(-x) x^j / j!,  T_j = P(Bin(2u-1, 1/2) >= u+j),

    the inner sum over l being the binomial tail that the finite average
    sums too (`_binomial_tails`, kept on cfg).  Any other u takes the
    series sum_k Pois(k; snr) I_{1/2}(u+k, u) (`_cauc_series`), or 0 where
    the Chernoff bound, then its est_error, is below the normal range.
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    if not cfg.is_integer:
        bound = _cauc_chernoff(cfg.time_bandwidth, snr)
        if bound < sys.float_info.min:
            return MetricValue(0.0, "closed_series", 0, max(bound, 5e-324))
        value, err, terms = _cauc_series(cfg._table(specfun._BetaTable), snr)
        return MetricValue(value, "closed_series", terms, err)
    tails = cfg._table(_binomial_tails)
    value, err = _cauc_poisson(tails, snr)
    return MetricValue(value, "closed_integer", len(tails), err)


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


def _cauc_poisson(tails: List[float], snr: float) -> Tuple[float, float]:
    # cauc_awgn at integer u = len(tails) past its argument check: (CAUC,
    # error bound).  The Poisson factors e^(-x) x^j/j! build up from
    # e^(-x), each times x/j, and the products add up from j = 0
    u = len(tails)
    x = 0.5 * snr
    t = math.exp(-x)
    acc = 0.0
    if t >= sys.float_info.min:
        acc = tails[0] * t
        for j in range(1, u):
            t *= x / j
            acc += tails[j] * t
    if acc < sys.float_info.min:  # e^(-x) or the sum left the normal range
        return 0.0, _cauc_chernoff(u, snr)
    # relative roundings: exp's ulp (two) and two a step, 2u in all, in the
    # Poisson factors; one in each product and u - 1 in the sum; in the
    # tails 2(u-1) in the pmf, counted twice as numerator and total share
    # it, u - 1 in each of the two sums and one in the quotient: 9u - 5.
    # Past u ~ 515 the far tails go subnormal, hundreds of binades below
    # the sum
    return acc, 9.0 * u * _ULP * acc


def _ln_threshold_density(u: float, lam: float, ln_norm: float) -> float:
    if lam <= 0.0:
        return -math.inf
    return (u - 1.0) * math.log(lam) - 0.5 * lam - ln_norm


def auc_quadrature(cfg: DetectorConfig, snr: float,
                   policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """Reference AUC: integrate P_d against the noise-only threshold density.

    This route shares no series or identity with the closed forms (detection
    probability evaluated pointwise, density in log form, adaptive panels),
    so agreement with auc_awgn is a meaningful check rather than an algebraic
    tautology.

    At non-integer u the threshold density behaves like lam**(u-1) at the
    origin, which Gauss-Legendre panels resolve only algebraically; the
    integral is therefore taken in lam = v**p with p chosen so the
    transformed integrand has several continuous derivatives at v = 0.
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    u = cfg.time_bandwidth
    ln_norm = u * _LN2 + specfun.ln_gamma(u)
    a = math.sqrt(2.0 * snr)

    def density_weighted_prob(lam: float) -> float:
        ln_pdf = _ln_threshold_density(u, lam, ln_norm)
        if ln_pdf < -740.0:
            return 0.0
        return specfun.marcum_q(u, a, math.sqrt(lam)) * math.exp(ln_pdf)

    scale = 2.0 * u + snr + 1.0
    if cfg.is_integer:
        power = 1.0  # polynomial prefactor, already smooth at lam = 0
        integrand = density_weighted_prob
    else:
        # transformed integrand ~ v**(p*u - 1) at the origin
        power = max(2.0, math.ceil(5.0 / u))

        def integrand(v: float) -> float:
            try:
                lam = v ** power
            except OverflowError:
                return 0.0  # lam past double range: exp(-lam/2) is 0
            base = density_weighted_prob(lam)
            if base == 0.0:
                return 0.0
            return base * power * v ** (power - 1.0)

        scale = scale ** (1.0 / power)
    value, err, evals = integrate_half_line(integrand, policy, scale=scale)
    return MetricValue(value, "quadrature", evals, err)


def roc_points_awgn(cfg: DetectorConfig, snr: float,
                    n_points: int) -> List[Tuple[float, float]]:
    """(pf, pd) pairs on an even false-alarm grid, endpoints clipped to (0,1).

    pd is computed at the threshold that realizes each pf, so the pairs lie
    exactly on the detector's ROC; a trapezoid sum over them approaches the
    closed-form AUC as the grid refines.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    out = []
    for k in range(n_points):
        target = k / (n_points - 1.0)
        target = min(max(target, 1e-9), 1.0 - 1e-9)
        lam, realized = _threshold_and_pf(cfg, target)
        out.append((realized, pd(cfg, snr, lam)))
    return out
