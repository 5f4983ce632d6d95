"""Reference values for checking hoytsense rows, computed with scipy.

The routes here share no code and no formula with hoytsense.  They rest on
the Poisson-mixture form of the energy detector: under H1 the statistic is
2*Gamma(u + K) with K ~ Poisson(snr), and under H0 it is 2*Gamma(u).  The
Hoyt SNR is a sum of two independent Gamma(1/2) variables with scales
theta1 = 2m/(1+q^2) and theta2 = 2m q^2/(1+q^2) (m the mean SNR), and a
Poisson variable whose mean is Gamma(1/2, theta) is negative binomial.  So
the fading-averaged K is the convolution of two negative binomial laws, pi,
and every fading average is a sum over k of pi_k times a fixed-SNR term:

    CAUC = sum_k pi_k * I_{1/2}(u + k, u)        P(Gamma(u+k) < Gamma(u))
    miss = sum_k pi_k * P(u + k, lam/2)          regularized lower gamma

Both terms fall off geometrically in k once k passes u (CAUC) or lam/2
(miss), so the sums are truncated where the dropped tail is below 1e-18
of the first term, and all terms are positive: no cancellation anywhere,
which keeps tiny CAUC and miss probabilities accurate to relative 1e-13.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

# tail cut: stop once the fixed-SNR factor drops below this
_CUT = 1e-18


def _nbinom_log_pmf(k: np.ndarray, theta: float) -> np.ndarray:
    # Poisson mixed over Gamma(1/2, theta): NB(r=1/2, p=theta/(1+theta))
    r = 0.5
    return (special.gammaln(k + r) - special.gammaln(r) - special.gammaln(k + 1.0)
            + k * (math.log(theta) - math.log1p(theta)) - r * math.log1p(theta))


def _mixture_pmf(q: float, mean_snr: float, count: int) -> np.ndarray:
    """pi_0 .. pi_{count-1} of the Poisson count averaged over Hoyt fading."""
    q2 = q * q
    k = np.arange(count, dtype=float)
    a = np.exp(_nbinom_log_pmf(k, 2.0 * mean_snr / (1.0 + q2)))
    b = np.exp(_nbinom_log_pmf(k, 2.0 * mean_snr * q2 / (1.0 + q2)))
    return np.convolve(a, b)[:count]


@lru_cache(maxsize=None)
def _cauc_weights(u: float) -> np.ndarray:
    """I_{1/2}(u + k, u) for k = 0 .. K, K where the weight drops below _CUT."""
    count = int(4 * u) + 256
    while True:
        w = special.betainc(u + np.arange(count, dtype=float), u, 0.5)
        if w[-1] < _CUT * w[0]:
            cut = int(np.argmax(w < _CUT * w[0])) + 1
            return w[:cut]
        count *= 2


def avg_cauc(u: float, q: float, mean_snr: float) -> float:
    """Fading-averaged complementary AUC."""
    w = _cauc_weights(u)
    return math.fsum(_mixture_pmf(q, mean_snr, len(w)) * w)


def avg_miss(u: float, q: float, mean_snr: float, threshold: float) -> float:
    """Fading-averaged miss probability 1 - Pd at the energy threshold."""
    x = 0.5 * threshold
    count = int(x + 20.0 * math.sqrt(x) + 4 * u) + 256
    while True:
        w = special.gammainc(u + np.arange(count, dtype=float), x)
        if w[0] == 0.0 or w[-1] < _CUT * w[0]:
            break
        count *= 2
    return math.fsum(_mixture_pmf(q, mean_snr, count) * w)


def pf(u: float, threshold: float) -> float:
    """False-alarm probability Q(u, lam/2)."""
    return float(special.gammaincc(u, 0.5 * threshold))


def threshold_for_pf(u: float, pf_value: float) -> float:
    """Energy threshold whose false-alarm probability is pf_value."""
    if pf_value > 0.5:
        return 2.0 * float(special.gammaincinv(u, 1.0 - pf_value))
    return 2.0 * float(special.gammainccinv(u, pf_value))


def fixed_miss(u: float, snr: float, threshold: float) -> float:
    """Miss probability 1 - Pd at a fixed SNR: the Poisson mixture itself."""
    x = 0.5 * threshold
    count = int(x + 20.0 * math.sqrt(x) + snr + 20.0 * math.sqrt(snr) + 4 * u) + 256
    k = np.arange(count, dtype=float)
    if snr > 0.0:
        pois = np.exp(k * math.log(snr) - snr - special.gammaln(k + 1.0))
    else:
        pois = (k == 0.0).astype(float)
    return math.fsum(pois * special.gammainc(u + k, x))
