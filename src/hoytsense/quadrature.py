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
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "EvalPolicy",
    "QuadratureError",
    "integrate_unit_interval",
    "integrate_half_line",
]


class QuadratureError(ArithmeticError):
    """Successive refinements failed to settle within _MAX_LEVELS doublings."""


@dataclass(frozen=True)
class EvalPolicy:
    """The relative tolerance that series tails and refinement deltas meet.

    Series stop at the package term cap (`specfun._MAX_TERMS`) and the
    quadrature at `_MAX_LEVELS` panel doublings, whatever the tolerance.
    """

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(
                f"rel_tol must be positive and finite, got {self.rel_tol}")


# panel doublings before QuadratureError; the slowest reference integral in
# use (u=5, q=1e-4, 10 dB) settles at level 19
_MAX_LEVELS = 20


# 32-point rule: degree-63 exactness per panel, plenty for smooth kernels.
# Pre-shifted from [-1, 1] to [0, 1] and held as Python floats: numpy
# scalars would carry every integrand's arithmetic through numpy's slower
# scalar path and leak np.float64 into the results.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_T01 = tuple(float(t) for t in 0.5 * (_NODES + 1.0))
_W01 = tuple(float(w) for w in 0.5 * _WEIGHTS)


def _integrate(f: Callable[[float], float], policy: EvalPolicy,
               scale: Optional[float]) -> Tuple[float, float, int]:
    # The level-doubling loop (see the module docstring).  scale=None
    # integrates over (0, 1), a scale over (0, inf) via x = scale * t/(1-t).
    prev: Optional[float] = None
    delta = math.inf
    evals = 0
    for level in range(_MAX_LEVELS + 1):
        panels = 1 << level
        h = 1.0 / panels
        pieces = []
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
                        scale: float = 1.0) -> Tuple[float, float, int]:
    """Integrate f over (0, inf) via the substitution x = scale * t/(1-t).

    `scale` should sit near the bulk of the integrand's mass; the map then
    spends half the unit interval below that point and half above, which
    keeps panel counts low for densities with exponential tails.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return _integrate(f, policy, scale)

