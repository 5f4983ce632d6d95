"""Adaptive composite Gauss-Legendre quadrature.

Integration here serves one purpose: producing reference values that the
closed-form expressions must reproduce.  The scheme is deliberately plain —
fixed 32-point panels, panel count doubled until two successive composite
estimates agree to the requested relative tolerance.  All integrands in this
package are smooth densities (times bounded detection probabilities), so the
doubling typically settles within a handful of levels; the cap `_MAX_LEVELS`
exists to turn a pathological integrand into a loud error instead of a
silent stall.

One loop, `_integrate`, does all the integration: `integrate_unit_interval`
calls it on (0, 1) and `integrate_half_line` on the mapped half line.  An
exception an integrand raises ends the integral and leaves unchanged.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from .record import Record, _set

__all__ = [
    "EvalPolicy",
    "QuadratureError",
    "integrate_unit_interval",
    "integrate_half_line",
]


class QuadratureError(ArithmeticError):
    """Successive refinements failed to settle within _MAX_LEVELS doublings."""


class EvalPolicy(Record):
    """The relative tolerance that series tails and refinement deltas meet.

    Series stop at the package term cap (`specfun._MAX_TERMS`) and the
    quadrature at `_MAX_LEVELS` panel doublings, whatever the tolerance.
    """

    __slots__ = _fields = ("rel_tol",)
    rel_tol: float

    def __init__(self, rel_tol: float = 1e-10) -> None:
        if not 0.0 < rel_tol < math.inf:
            raise ValueError(
                f"rel_tol must be positive and finite, got {rel_tol}")
        _set(self, "rel_tol", rel_tol)


# panel doublings before QuadratureError; the slowest reference integral in
# use (u=5, q=1e-4, 10 dB) settles at level 19
_MAX_LEVELS = 20


# 32-point Gauss-Legendre rule: degree-63 exactness per panel, plenty for
# smooth kernels.  The nodes and weights of numpy's leggauss(32), shifted
# from [-1, 1] to [0, 1] (t = (x + 1)/2, w/2) and written out as the repr of
# each double, so the closed and quadrature routes run without importing
# numpy; tests/test_quadrature.py checks them against leggauss bit for bit.
# Python floats also keep every integrand off numpy's slower scalar path.
_T01 = (
    0.001368069075259215, 0.007194244227365809,
    0.017618872206246805, 0.03254696203113017,
    0.051839422116973954, 0.07531619313371501,
    0.10275810201602881, 0.13390894062985514,
    0.16847786653489238, 0.20614212137961885,
    0.24655004553388532, 0.28932436193468236,
    0.33406569885893617, 0.38035631887393145,
    0.42776401920860174, 0.4758461671561308,
    0.5241538328438692, 0.5722359807913983,
    0.6196436811260685, 0.6659343011410639,
    0.7106756380653176, 0.7534499544661146,
    0.7938578786203812, 0.8315221334651076,
    0.8660910593701449, 0.8972418979839711,
    0.924683806866285, 0.948160577883026,
    0.9674530379688698, 0.9823811277937532,
    0.9928057557726342, 0.9986319309247408,
)
_W01 = (
    0.003509305004735253, 0.008137197365452872,
    0.012696032654631012, 0.017136931456510882,
    0.021417949011113418, 0.025499029631188046,
    0.029342046739267783, 0.03291111138818084,
    0.03617289705442417, 0.039096947893535114,
    0.041655962113473353, 0.04382604650220189,
    0.04558693934788189, 0.046922199540402255,
    0.047819360039637354, 0.04827004425736383,
    0.04827004425736383, 0.047819360039637354,
    0.046922199540402255, 0.04558693934788189,
    0.04382604650220189, 0.041655962113473353,
    0.039096947893535114, 0.03617289705442417,
    0.03291111138818084, 0.029342046739267783,
    0.025499029631188046, 0.021417949011113418,
    0.017136931456510882, 0.012696032654631012,
    0.008137197365452872, 0.003509305004735253,
)


def _integrate(f: Callable[[float], float], policy: EvalPolicy,
               scale: Optional[float],
               base: float = 0.0) -> Tuple[float, float, int]:
    # The level-doubling loop (see the module docstring).  scale=None
    # integrates over (0, 1), a scale over (0, inf) via x = scale * t/(1-t).
    # Returns base + the integral, summed with the panels in one fsum, and
    # stops where two levels agree within rel_tol of that sum
    prev: Optional[float] = None
    delta = math.inf
    evals = 0
    for level in range(_MAX_LEVELS + 1):
        panels = 1 << level
        h = 1.0 / panels
        pieces = [base]
        for j in range(panels):
            left = j * h
            acc = 0.0
            if scale is None:
                for t, w in zip(_T01, _W01):
                    acc += w * f(left + t * h)
            else:
                for t, w in zip(_T01, _W01):
                    x = left + t * h
                    onemt = 1.0 - x
                    val = f(scale * x / onemt)
                    # skip the jacobian, which may overflow near t=1
                    if val != 0.0:
                        acc += w * (val * scale / (onemt * onemt))
            if not math.isfinite(acc):
                # no finer level can settle a NaN or inf: stop at once
                raise QuadratureError(
                    f"non-finite panel sum {acc!r} at level {level} "
                    f"(panel {j} of {panels})")
            pieces.append(acc * h)
        evals += 32 * panels
        total = math.fsum(pieces)
        if prev is not None:
            delta = abs(total - prev)
            if delta <= policy.rel_tol * (abs(total) + 1e-300):
                return total, delta, evals
        prev = total
    raise QuadratureError(
        f"no convergence after {_MAX_LEVELS} doublings "
        f"(last delta {delta:.3e})")


def integrate_unit_interval(f: Callable[[float], float],
                            policy: EvalPolicy) -> Tuple[float, float, int]:
    """Integrate f over (0, 1); returns (value, est_error, evaluations).

    The estimate error is the difference between the last two composite
    levels, which for Gauss panels on smooth integrands is a generous bound
    on the true error of the finer level.  Raises QuadratureError as soon
    as a panel sums to NaN or inf, or when the levels run out.
    """
    return _integrate(f, policy, None)


def integrate_half_line(f: Callable[[float], float], policy: EvalPolicy,
                        scale: float = 1.0,
                        base: float = 0.0) -> Tuple[float, float, int]:
    """Integrate f over (0, inf) via the substitution x = scale * t/(1-t).

    `scale` should sit near the bulk of the integrand's mass; the map then
    spends half the unit interval below that point and half above, which
    keeps panel counts low for densities with exponential tails.  The value
    returned is base + the integral, and the levels stop where they agree
    within rel_tol of it: a small correction to a known constant (base 1,
    f the negated correction) stops at the tolerance of the whole.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return _integrate(f, policy, scale, base)

