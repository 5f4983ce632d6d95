"""Nakagami-q (Hoyt) fading: SNR distribution, transform, and sampling.

The model is the power envelope of two independent zero-mean Gaussians whose
standard deviations have ratio q in (0, 1]; q=1 collapses to Rayleigh fading
(exponential SNR).  Everything is parameterized by q and the mean linear SNR.

The distribution function is evaluated as a difference of two first-order
Marcum Q calls.  Several argument conventions for that difference circulate
in the literature and they do not agree; the pair used here was selected by
integrating the density numerically and keeping the only candidate that
matches (the validation suite re-runs that comparison).  As q approaches 1
the arguments part, a -> 2r and b -> 0, and F -> 1 - e^(-snr/mean_snr); the
difference keeps only absolute precision, which is no relative precision
where F is small, so near-Rayleigh inputs dispatch to the exponential form.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import specfun
from .record import Record, _set

if TYPE_CHECKING:
    import numpy as np

__all__ = ["HoytFading", "db_to_linear", "snr_pdf", "snr_cdf", "snr_mgf",
           "sample_snr"]

# below this distance from q=1 the exponential limit is already exact to
# ~1e-13, where the Marcum difference keeps only absolute precision
_RAYLEIGH_EPS = 1e-6

# the smallest q: q^2 = 1e-300 is still a normal double, and the density's
# Bessel argument, (1 - q^4) snr/(4 q^2 mean_snr) with snr/mean_snr below
# ~1490 where the density is nonzero, stays finite.  From q ~ 1.5e-154 q^2
# is subnormal and loses bits, then underflows to 0: the density reads 0,
# the closed forms drift and the quadrature divides by zero
_Q_MIN = 1e-150


class HoytFading(Record):
    """Channel description: q in [1e-150, 1] (`_Q_MIN`), mean_snr > 0
    (linear power ratio)."""

    __slots__ = _fields = ("q", "mean_snr")
    q: float
    mean_snr: float

    def __init__(self, q: float, mean_snr: float) -> None:
        if not (_Q_MIN <= q <= 1.0):
            raise ValueError(
                f"q must lie in (0, 1] and be at least {_Q_MIN:g}, got {q!r}")
        if not (math.isfinite(mean_snr) and mean_snr > 0.0):
            raise ValueError(f"mean_snr must be positive and finite, got {mean_snr!r}")
        _set(self, "q", q)
        _set(self, "mean_snr", mean_snr)


def db_to_linear(db: float) -> float:
    """A mean SNR in dB as the linear power ratio HoytFading takes."""
    return 10.0 ** (db / 10.0)


def snr_pdf(f: HoytFading, snr: float) -> float:
    """Density of the instantaneous SNR.

    Written as prefactor * exp(-(B-C)g) * [exp(-Cg) I0(Cg)] with the scaled
    Bessel factor in brackets, so neither piece overflows even when C*g is
    enormous; B - C simplifies to (1+q^2)/(2*mean_snr) exactly.  The
    bracket is `specfun.bessel_i` at order 0, which takes its fixed
    polynomials and no series: ~0.5 us for any C*g on a 2-vCPU Xeon,
    within 3e-16 relative.  C*g stays finite, as q >= 1e-150 keeps q^2
    normal.
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    q2 = f.q * f.q
    pref = (1.0 + q2) / (2.0 * f.q * f.mean_snr)
    decay = math.exp(-(1.0 + q2) * snr / (2.0 * f.mean_snr))
    if decay == 0.0:
        return 0.0
    bessel_arg = (1.0 - q2 * q2) * snr / (4.0 * q2 * f.mean_snr)
    return pref * decay * specfun.bessel_i(0.0, bessel_arg)


def snr_cdf(f: HoytFading, snr: float) -> float:
    """Distribution function of the instantaneous SNR."""
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    if snr == 0.0:
        return 0.0
    if 1.0 - f.q < _RAYLEIGH_EPS:
        return -math.expm1(-snr / f.mean_snr)
    q2 = f.q * f.q
    r = math.sqrt((1.0 + q2) * snr / (4.0 * q2 * f.mean_snr))
    a = (1.0 + f.q) * r
    b = (1.0 - f.q) * r
    val = specfun.marcum_q(1.0, a, b) - specfun.marcum_q(1.0, b, a)
    # each Q may pass [0, 1] by its bound; near F = 0 the difference cancels
    return min(1.0, max(0.0, val))


def snr_mgf(f: HoytFading, s: float) -> float:
    """Moment generating function E[exp(s*snr)].

    Defined while 1 - 2 s m + (2 s m q/(1+q^2))^2 stays positive (m the mean
    SNR); outside that the integral diverges and a ValueError is raised.
    """
    m = f.mean_snr
    ratio = 2.0 * s * m * f.q / (1.0 + f.q * f.q)
    radicand = 1.0 - 2.0 * s * m + ratio * ratio
    if radicand <= 0.0:
        raise ValueError(
            f"mgf undefined at s={s}: radicand {radicand:.3e} is not positive")
    return 1.0 / math.sqrt(radicand)


def sample_snr(f: HoytFading, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n SNR values: scaled sum of squares of two unequal Gaussians.

    gamma = mean_snr/(1+q^2) * (Z1^2 + q^2 Z2^2) with Z1, Z2 standard normal,
    which realizes the q-ratio construction exactly (no inversion of the
    distribution function — deliberately independent of snr_cdf).  The two
    standard_normal calls happen in a fixed order; reproducibility of every
    Monte-Carlo result depends on that order staying put.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q2 = f.q * f.q
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return f.mean_snr / (1.0 + q2) * (z1 * z1 + q2 * (z2 * z2))
