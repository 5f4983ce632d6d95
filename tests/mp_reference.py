"""A 30-digit Marcum Q for the tests, summed with mpmath.

Q_m(a, b) = sum_k Pois(k; h) Q(m+k, x), h = a^2/2, x = b^2/2, from k = h -
15 sqrt(h) - 30, below which the weights add to under 1e-40, up to where
the terms fall below 1e-40 of the sum (Q rises with k, so the terms of a
tiny Q peak far above h).  One regularized gamma at the low end starts the
column Q(m+k, x), the rest follow by Q(s+1, x) = Q(s, x) + x^s e^(-x) /
Gamma(s+1).  It shares no code with hoytsense; importing it skips a test
when mpmath is missing.
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
