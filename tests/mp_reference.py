"""A 30-digit Marcum Q and a 40-digit fixed-SNR CAUC for the tests, summed
with mpmath.

Q_m(a, b) = sum_k Pois(k; h) Q(m+k, x), h = a^2/2, x = b^2/2, from k = h -
15 sqrt(h) - 30, below which the weights add to under 1e-40, up to where
the terms fall below 1e-40 of the sum (Q rises with k, so the terms of a
tiny Q peak far above h).  One regularized gamma at the low end starts the
column Q(m+k, x), the rest follow by Q(s+1, x) = Q(s, x) + x^s e^(-x) /
Gamma(s+1).

The CAUC is sum_k Pois(k; snr) d_k with d_k = I_{1/2}(u+k, u): d_K from
mpmath's incomplete beta past the Poisson bulk, then d_k = d_(k+1) + inc_k
downwards by the increment recurrence.

The beta tail I_{1/2}(u+l, u) is mpmath's regularized incomplete beta.

The scaled Bessel function is mpmath's besseli times e^(-x), at 40 digits.

It shares no code with hoytsense; importing it skips a test when mpmath is
missing.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")


def marcum_q(m: float, a: float, b: float) -> "mp.mpf":
    """Q_m(a, b) at 30 digits, for the doubles m, a, b as given."""
    with mp.workdps(30):
        h, x = mp.mpf(a) ** 2 / 2, mp.mpf(b) ** 2 / 2
        spread = 15.0 * math.sqrt(float(h)) + 30.0
        lo, hi = max(0, int(h - spread)), int(h + spread)
        q = mp.gammainc(m + lo, x, mp.inf, regularized=True)
        e = mp.exp((m + lo) * mp.log(x) - x - mp.loggamma(m + lo + 1))
        w = mp.exp(lo * mp.log(h) - h - mp.loggamma(lo + 1)) if h else mp.mpf(1)
        total, k = mp.mpf(0), lo
        # Q rises with k: past hi, go on while a term still counts
        while k <= hi or w * q > 1e-40 * total:
            total += w * q
            q += e
            e *= x / (m + k + 1)
            w *= h / (k + 1)
            k += 1
        return +total


def cauc(u: float, snr: float) -> "mp.mpf":
    """1 - AUC at a fixed SNR, at 40 digits, for the doubles u, snr > 0."""
    with mp.workdps(40):
        u, snr = mp.mpf(u), mp.mpf(snr)
        count = int(snr + 40 * mp.sqrt(snr) + 200)
        inc = mp.gamma(u + 0.5) / (2 * mp.sqrt(mp.pi) * mp.gamma(u + 1))
        incs = []
        for l in range(count):
            incs.append(inc)
            inc *= (2 * u + l) / (2 * (u + l + 1))
        d = mp.betainc(u + count, u, 0, 0.5, regularized=True)
        total = mp.mpf(0)
        for k in range(count - 1, -1, -1):
            d += incs[k]
            total += mp.exp(k * mp.log(snr) - snr - mp.loggamma(k + 1)) * d
        return +total


def beta_tail(u: float, l: int) -> "mp.mpf":
    """d_l = I_{1/2}(u+l, u) at 40 digits, for the double u > 0."""
    with mp.workdps(40):
        return +mp.betainc(mp.mpf(u) + l, u, 0, 0.5, regularized=True)


def bessel_i(nu: float, x: float) -> "mp.mpf":
    """e^(-x) I_nu(x) at 40 digits, for the doubles nu, x."""
    with mp.workdps(40):
        x = mp.mpf(x)
        return +(mp.besseli(nu, x) * mp.exp(-x))
