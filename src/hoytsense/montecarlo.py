"""Monte-Carlo ground truth for the analytic chain.

Simulates the detector decision statistic directly — central chi-square under
noise, noncentral chi-square via its Poisson mixture under signal — and
estimates the AUC as the pairwise rank statistic over equal-sized batches.
Nothing here touches the closed forms, the series, or the quadrature, so
agreement is evidence rather than tautology.

Reproducibility contract: the trials run in batches of the fixed
_BATCH_SIZE, every batch derives its generator from (master_seed, batch
index) through SeedSequence spawn keys, and batch results are combined in
index order with exact summation.  (trials, master_seed) alone therefore
decide every estimate bit for bit, however the batches would be scheduled,
which the acceptance suite checks by re-running sweeps.

numpy is imported by the first draw, not with the package: the closed and
quadrature routes run on the standard library alone.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .detector import DetectorConfig
from .hoyt import HoytFading, sample_snr
from .record import Record, _set

__all__ = [
    "McConfig",
    "McEstimate",
    "batch_rng",
    "sample_statistic",
    "estimate_auc",
    "estimate_pd",
]


_BATCH_SIZE = 65_536  # the unit of seeding and of the pairwise rank count

# the numpy module, bound once by batch_rng, which every batch calls before
# it sorts or ranks; the sorts and ranks read this global, so a stand-in
# assigned here (a tracing proxy) is used by all of them
np = None


class McConfig(Record):
    """Simulation budget and seeding; (trials, master_seed) decide every byte.

    trials below ~10_000 give standard errors too wide to validate anything;
    the constructor allows them (handy for smoke tests) but acceptance-grade
    runs should stay at the default million.
    """

    __slots__ = _fields = ("trials", "master_seed")
    trials: int
    master_seed: int

    def __init__(self, trials: int = 1_000_000, master_seed: int = 0) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if not (0 <= master_seed < 2 ** 64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        _set(self, "trials", trials)
        _set(self, "master_seed", master_seed)


class McEstimate(Record):
    """A Monte Carlo estimate, its standard error and the trials behind it."""

    __slots__ = _fields = ("value", "std_error", "trials")
    value: float
    std_error: float
    trials: int

    def __init__(self, value: float, std_error: float, trials: int) -> None:
        _set(self, "value", value)
        _set(self, "std_error", std_error)
        _set(self, "trials", trials)


def batch_rng(mc: McConfig, index: int) -> np.random.Generator:
    """Deterministic per-batch generator: (master_seed, batch index) -> PCG64."""
    global np
    if np is None:
        import numpy
        np = numpy
    seq = np.random.SeedSequence(entropy=mc.master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _draw_h1(u: float, channel: Union[HoytFading, float],
             rng: np.random.Generator, n: int) -> np.ndarray:
    # n H1 statistics, drawn in contract order: the SNR (HoytFading) or a
    # fixed SNR, then K ~ Poisson(snr), then 2 Gamma(u + K).  At snr = 0 every
    # K is 0 and Poisson(0) draws no bits, so the generator is left as it
    # would be: the scalar-shape gamma gives the same draws, bit for bit
    if isinstance(channel, HoytFading):
        snr = sample_snr(channel, rng, n)
    else:
        snr = float(channel)
        if not 0.0 <= snr < math.inf:
            raise ValueError(f"snr must be finite and >= 0, got {channel}")
        if snr == 0.0:
            return 2.0 * rng.standard_gamma(u, n)
    extra = rng.poisson(snr, n)
    return 2.0 * rng.standard_gamma(u + extra)


def sample_statistic(cfg: DetectorConfig, snr: float, hypothesis: str,
                     rng: np.random.Generator,
                     size: Optional[int] = None):
    """Draw the decision statistic under H0 or H1 at a fixed SNR.

    H0: central chi-square with 2u degrees of freedom (2 * Gamma(u)).
    H1: noncentral chi-square, noncentrality 2*snr, drawn exactly through
    the Poisson mixture — K ~ Poisson(snr) extra unit-shape gamma terms —
    which is what makes fractional u work without accept/reject loops.

    Returns a scalar when size is None, else an ndarray of that length.
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    u = cfg.time_bandwidth
    if hypothesis == "H0":
        y = 2.0 * rng.standard_gamma(u, n)
    else:
        y = _draw_h1(u, snr, rng, n)
    return float(y[0]) if size is None else y


def _batch_sizes(mc: McConfig):
    remaining = mc.trials
    while remaining > 0:
        n = min(_BATCH_SIZE, remaining)
        remaining -= n
        yield n


def _wins(y0_sorted: np.ndarray, y1_sorted: np.ndarray) -> float:
    # pairs whose H1 draw ranks above the H0 draw, ties counting half.  One
    # search counts the H0 draws at or below each H1 draw; a second, run only
    # on the H1 draws that tie (the last H0 draw at or below them equals
    # them; index -1, where there is none, wraps round and is masked off),
    # counts those strictly below
    below_or_tied = np.searchsorted(y0_sorted, y1_sorted, side="right")
    tied = (y0_sorted[below_or_tied - 1] == y1_sorted) & (below_or_tied > 0)
    ties = (below_or_tied[tied]
            - np.searchsorted(y0_sorted, y1_sorted[tied], side="left"))
    # integer sums, halved once: the count is exact
    return 0.5 * (2 * below_or_tied.sum() - ties.sum())


def estimate_auc(cfg: DetectorConfig, channel: Union[HoytFading, float],
                 mc: McConfig) -> McEstimate:
    """Rank-statistic AUC estimate.

    channel: a HoytFading instance (a fresh SNR is drawn for every H1 trial,
    so the estimate targets the fading-averaged AUC) or a plain float (both
    statistics at that fixed SNR, targeting the instantaneous AUC).

    Each batch draws n H0 and n H1 statistics and counts how many of the
    n^2 cross pairs rank the H1 draw higher (ties count half): one binary
    search of the sorted H1 sample against the sorted H0 sample, and a
    second only for the H1 draws that tie with an H0 draw.  Batch values
    are pooled with n^2 weights — the pair counts — in fixed batch order.
    The standard error is the Hanley-McNeil estimate at the total trial
    count; batching leaves the leading variance term intact because the
    per-draw projections pool across batches even though cross-batch pairs
    are never compared.
    At an estimate of exactly 0 or 1, where that formula gives 0, it is the
    one-sided 95% bound 3/trials (rule of three).

    Draw order inside a batch is part of the reproducibility contract:
    H0 gammas, then the SNR normals (Hoyt only), then the Poisson counts,
    then the H1 gammas.  Do not reorder.
    """
    u = cfg.time_bandwidth
    weighted = []
    weights = []
    for index, n in enumerate(_batch_sizes(mc)):
        rng = batch_rng(mc, index)
        y0 = 2.0 * rng.standard_gamma(u, n)
        y1 = _draw_h1(u, channel, rng, n)
        y0_sorted = np.sort(y0)
        # sorted queries walk y0_sorted in order (cache friendly); the
        # counts are integer sums over a permutation, so the value is unchanged
        wins = _wins(y0_sorted, np.sort(y1))
        pairs = float(n) * float(n)
        weighted.append(wins)          # = pairs * batch AUC
        weights.append(pairs)
    value = math.fsum(weighted) / math.fsum(weights)
    n_tot = float(mc.trials)
    pxxy = value / (2.0 - value)
    pxyy = 2.0 * value * value / (1.0 + value)
    var = (value * (1.0 - value)
           + (n_tot - 1.0) * (pxxy - value * value)
           + (n_tot - 1.0) * (pxyy - value * value)) / (n_tot * n_tot)
    # at 0 or 1 var is 0: the one-sided 95% bound (rule of three) instead
    se = math.sqrt(max(var, 0.0)) if 0.0 < value < 1.0 else 3.0 / mc.trials
    return McEstimate(value, se, mc.trials)


def estimate_pd(cfg: DetectorConfig, channel: Union[HoytFading, float],
                threshold: float, mc: McConfig) -> McEstimate:
    """Empirical detection probability: fraction of H1 statistics above threshold.

    Same channel convention and per-batch seeding as estimate_auc.  The
    standard error is the plain binomial one, or the rule-of-three bound
    3/trials when no statistic, or every one, passes the threshold.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    hits = 0
    for index, n in enumerate(_batch_sizes(mc)):
        y1 = _draw_h1(cfg.time_bandwidth, channel, batch_rng(mc, index), n)
        hits += int((y1 > threshold).sum())
    p = hits / mc.trials
    se = (math.sqrt(p * (1.0 - p) / mc.trials) if 0 < hits < mc.trials
          else 3.0 / mc.trials)
    return McEstimate(p, se, mc.trials)
