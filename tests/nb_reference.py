"""Independent reference for the fading-averaged CAUC, computed with scipy.

Shares no code and no formula with hoytsense.  Under H1 the energy statistic
is 2*Gamma(u + K) with K ~ Poisson(snr), under H0 it is 2*Gamma(u), so the
fixed-SNR CAUC given K = k is P(Gamma(u + k) < Gamma(u)) = I_{1/2}(u + k, u).
The Hoyt SNR is the sum of two independent Gamma(1/2) variables with scales
2m/(1+q^2) and 2m q^2/(1+q^2) (m the mean SNR), and a Poisson count whose
mean is Gamma(1/2, theta) is negative binomial, so the averaged K follows
the convolution pi of two negative binomial laws and

    CAUC = sum_k pi_k * I_{1/2}(u + k, u).

Every term is positive and the beta weights fall off like 2^-k, so the sum
is cut where the weight drops below 1e-18 of the first one.  At a fixed SNR
K is Poisson(snr) itself, which `cauc` sums the same way.

The averaged detection probability at threshold lam is P(Gamma(u + K) >
lam/2), so its miss probability is sum_k pi_k * P(u + k, lam/2) with P the
regularized lower incomplete gamma; P(u + k, lam/2) falls with k, so that
sum is cut where it drops below 1e-18, whatever the SNR (`avg_pd`).
"""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy import special

_CUT = 1e-18


def _nbinom_pmf(k, theta):
    # Poisson mixed over Gamma(1/2, theta): NB(r=1/2, p=theta/(1+theta))
    log_pmf = (special.gammaln(k + 0.5) - special.gammaln(0.5)
               - special.gammaln(k + 1.0)
               + k * (math.log(theta) - math.log1p(theta))
               - 0.5 * math.log1p(theta))
    return np.exp(log_pmf)


def avg_cauc(u, q, mean_snr):
    """Fading-averaged complementary AUC at time-bandwidth u."""
    count = int(4 * u) + 256
    while True:
        w = special.betainc(u + np.arange(count, dtype=float), u, 0.5)
        if w[-1] < _CUT * w[0]:
            w = w[:int(np.argmax(w < _CUT * w[0])) + 1]
            break
        count *= 2
    return math.fsum(_pi(len(w), q, mean_snr) * w)


def _pi(count, q, mean_snr):
    # the law of the averaged K: NB(1/2) * NB(1/2), first `count` terms
    k = np.arange(count, dtype=float)
    q2 = q * q
    return np.convolve(_nbinom_pmf(k, 2.0 * mean_snr / (1.0 + q2)),
                       _nbinom_pmf(k, 2.0 * mean_snr * q2 / (1.0 + q2)))[:count]


def avg_pd(u, q, mean_snr, lam):
    """Fading-averaged detection probability at threshold lam > 0.

    Above 1/2 it is 1 - the miss sum.  Below, the detection sum
    sum_k pi_k * Q(u + k, lam/2) is taken itself, so a tiny value keeps its
    relative accuracy; it is cut where the mass of pi past the last term is
    below 1e-18 of it.  That mass is at most P(X >= K/2) + P(Y >= K/2) for
    the two NB(1/2) laws, and each NB(1/2) pmf ratio (j + 1/2) p / (j + 1)
    stays below p = theta/(1+theta), so each tail is at most its pmf at K/2
    over 1 - p.
    """
    x = 0.5 * lam
    count = int(x + 40.0 * math.sqrt(x)) + 64
    while special.gammainc(u + count, x) >= _CUT:
        count *= 2
    k = np.arange(count, dtype=float)
    miss = math.fsum(_pi(count, q, mean_snr) * special.gammainc(u + k, x))
    if miss <= 0.5:
        return 1.0 - miss
    q2 = q * q
    thetas = (2.0 * mean_snr / (1.0 + q2), 2.0 * mean_snr * q2 / (1.0 + q2))
    while True:
        k = np.arange(count, dtype=float)
        hit = math.fsum(_pi(count, q, mean_snr) * special.gammaincc(u + k, x))
        tail = sum(_nbinom_pmf(float(count // 2), t) * (1.0 + t)
                   for t in thetas)
        if tail < _CUT * hit:
            return hit
        count *= 2


def avg_auc(u, q, mean_snr):
    """Fading-averaged AUC, 1 - avg_cauc."""
    return 1.0 - avg_cauc(u, q, mean_snr)


def cauc(u, snr):
    """Fixed-SNR complementary AUC, sum_k Pois(k; snr) * I_{1/2}(u + k, u).

    Cut where the Poisson tail or the beta weights (below 1e-300 past
    k = 4000 + 8u) end; snr > 0.
    """
    count = int(min(snr + 40.0 * math.sqrt(snr) + 50.0, 4000.0 + 8.0 * u))
    k = np.arange(count, dtype=float)
    log_pois = k * math.log(snr) - snr - special.gammaln(k + 1.0)
    return math.fsum(np.exp(log_pois) * special.betainc(u + k, u, 0.5))
