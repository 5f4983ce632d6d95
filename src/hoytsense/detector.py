"""Energy-detector metrics on the unfaded channel.

The decision statistic has 2u degrees of freedom with u the observation
time-bandwidth product: central chi-square under noise only, noncentral with
noncentrality 2*snr when a signal is present.  From those two distributions
follow the false-alarm and detection probabilities, and the area under the
ROC curve at a fixed SNR, which is what everything else in the package
averages over fading.

Three independent AUC routes are kept side by side on purpose: a finite
Laguerre-recurrence form for integer u, an infinite series valid for any
real u > 0, and direct quadrature of P_d against the noise-only threshold
density.  They must agree; the validation suite holds them to that.

The Laguerre form sums the complementary AUC (CAUC), returned by
`cauc_awgn` to full relative precision; the real-u series is the AUC's
Poisson mixture of half-domain incomplete betas (`specfun._mixture`, as
Marcum Q is of incomplete gammas).  One derived CAUC bound, `_cauc_chernoff`,
ends the series with AUC 1 and covers the Laguerre form where e^(-snr/2)
underflows.
"""

from __future__ import annotations

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

    Safeguarded Newton in t = ln(threshold), where -d pf/dt is the noise-only
    threshold density times the threshold; the log coordinate also reaches
    the tiny roots near pf = 1 at u < 1 (~1e-180 at u = 0.05, pf = 1 - 1e-9).
    It starts at the lower bound on the root from P(u, x) <= x^u / Gamma(u+1)
    and stops at |pf - target| <= 1e-13 * target, or once the bracket on t is
    an ulp wide, where the rounding of pf itself sets the limit.
    """
    if not (0.0 < pf_target < 1.0):
        raise ValueError(f"pf_target must lie in (0, 1), got {pf_target}")
    u = cfg.time_bandwidth
    t = lo = _LN2 + (math.log1p(-pf_target) + math.lgamma(u + 1.0)) / u
    hi = math.log(2.0 * u + 4.0)
    while (err := pf(cfg, math.exp(hi)) - pf_target) > 0.0:
        hi += _LN2
        if hi > 700.0:  # lam ~ 1e304
            raise ConvergenceError(f"threshold bracket ran away at u={u}, "
                                   f"target {pf_target}, pf error {err:.3e}")
    ln_norm = u * _LN2 + specfun.ln_gamma(u)
    for _ in range(200):
        lam = math.exp(t)
        err = pf(cfg, lam) - pf_target
        if err > 0.0:
            lo = t  # pf too high -> threshold too low
        else:
            hi = t
        if abs(err) <= 1e-13 * pf_target or hi - lo <= _EPS * max(1.0, abs(t)):
            return lam
        # ln(-d pf/dt); bisect where the Newton step leaves the bracket
        ln_slope = _ln_threshold_density(u, lam, ln_norm) + t
        nxt = t + err / math.exp(ln_slope) if ln_slope > -700.0 else lo
        t = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise ConvergenceError(f"threshold inversion stalled at u={u}, "
                           f"target {pf_target}, pf error {err:.3e}")


def _cauc_chernoff(u: float, snr: float) -> float:
    # the CAUC is P(X < Y), X ~ Gamma(u + Poisson(snr)), Y ~ Gamma(u), so
    # for 0 < s < 1 it is below E e^(s(Y-X)) = (1-s^2)^-u e^(-snr s/(1+s));
    # s is its minimiser, the root of 2u s^2 + (2u+snr) s - snr, but any s
    # in (0, 1) gives a valid bound, so rounding in s cannot break it: past
    # b^2's range b is scaled out of the root, and where s rounds to 1 it
    # takes the largest double below 1
    b = 2.0 * u + snr
    root = math.sqrt(b * b + 8.0 * u * snr)
    if root < math.inf:
        s = 2.0 * snr / (b + root)
    else:
        x = snr / b
        s = 2.0 * x / (1.0 + math.sqrt(1.0 + 8.0 * u * x / b))
    s = min(s, _BELOW_ONE)
    return math.exp(-u * math.log1p(-s * s) - snr * s / (1.0 + s))


def auc_awgn_series(cfg: DetectorConfig, snr: float,
                    policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """AUC at fixed SNR by the real-u series (works for integer u too).

    sum_k Pois(k; snr) c_k, c_k = I_{1/2}(u, u+k) = 1/2 + inc_0 + ... +
    inc_(k-1) with positive increments (`specfun.beta_increments`): the
    Poisson(snr) weights dotted with that column in `specfun._mixture`,
    whose bound is est_error.  It reaches snr ~1e6, where the weights stop
    closing (ConvergenceError).  rel_tol only sets the exit: where the
    Chernoff CAUC bound is below rel_tol/2, AUC 1 with that bound.
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    value, err, terms = _auc_series(cfg.time_bandwidth, snr, policy.rel_tol,
                                    cfg._table(specfun._BetaTable).column)
    return MetricValue(value, "closed_series", terms, err)


def _auc_series(u: float, snr: float, rel_tol: float,
                col: specfun._Column) -> Tuple[float, float, int]:
    # auc_awgn_series past its argument check, on u's column of betas:
    # (AUC, error bound, terms)
    bound = _cauc_chernoff(u, snr)
    if bound <= 0.5 * rel_tol:
        return 1.0, bound, 0
    return specfun._mixture(specfun._Poisson(0.0, snr), col)


def auc_awgn(cfg: DetectorConfig, snr: float,
             policy: EvalPolicy = _DEFAULT_POLICY) -> MetricValue:
    """AUC at a fixed SNR: the series for real u, else 1 - cauc_awgn."""
    if not cfg.is_integer:
        return auc_awgn_series(cfg, snr, policy)
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    u = int(round(cfg.time_bandwidth))
    value, err = _auc_laguerre(u, snr)
    return MetricValue(value, "closed_integer", u, err)


def _auc_laguerre(u: int, snr: float) -> Tuple[float, float]:
    # 1 - the Laguerre CAUC, whose forming rounds by at most min(c, 2^-53)
    c, err = _cauc_laguerre(u, snr)
    return 1.0 - c, err + min(c, 0.5 * _EPS)


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
    """Complementary AUC, 1 - AUC, at a fixed instantaneous SNR.

    Integer u sums e^(-snr/2) sum_{l<u} 2^-(l+u) L_l^(u-1)(-snr/2), all
    terms positive, to an error relative to the CAUC; any other u takes the
    complement of the series AUC.
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    if not cfg.is_integer:
        value, err, terms = _auc_series(cfg.time_bandwidth, snr,
                                        policy.rel_tol,
                                        cfg._table(specfun._BetaTable).column)
        return MetricValue(1.0 - value, "closed_series", terms, err)
    u = int(round(cfg.time_bandwidth))
    value, err = _cauc_laguerre(u, snr)
    return MetricValue(value, "closed_integer", u, err)


def _cauc_laguerre(u: int, snr: float) -> Tuple[float, float]:
    # cauc_awgn at integer u past its argument check: (CAUC, error bound).
    # e^(-snr/2) rides in the start, which keeps e^(-snr/2) L_l below
    # C(l+u-1, l): finite for u <= 500
    x = -0.5 * snr
    start = math.exp(x)
    p, p_prev, acc, weight = start, 0.0, 0.0, 0.5 ** u
    for l in range(u):
        acc += p * weight
        weight *= 0.5
        p_prev, p = p, ((2.0 * l + u - x) * p - (l + u - 1.0) * p_prev) / (l + 1.0)
    if not math.isfinite(acc):
        raise OverflowError(
            f"Laguerre CAUC sum left double range at u={u}, snr={snr}")
    if min(start, acc) < sys.float_info.min:  # left the normal range
        return 0.0, _cauc_chernoff(u, snr)
    # L_l >= L_(l-1) (l+u-1)/l at negative argument, so each step
    # subtracts under half its first product and passes on under half of a
    # step's change in relative error: below ~12 l roundings in p_l, l more
    # in the positive sum
    return acc, 8.0 * u * _EPS * acc


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
        lam = threshold_for_pf(cfg, target)
        out.append((pf(cfg, lam), pd(cfg, snr, lam)))
    return out
