"""Adaptive composite Gauss-Legendre quadrature.

Integration here serves one purpose: producing reference values that the
closed-form expressions must reproduce.  The scheme is deliberately plain —
fixed 32-point panels, panel count doubled until two successive composite
estimates agree to the requested relative tolerance.  All integrands in this
package are smooth densities (times bounded detection probabilities), so the
doubling typically settles within a handful of levels; the cap `_MAX_LEVELS`
exists to turn a pathological integrand into a loud error instead of a
silent stall.

One loop does all the integration.  It takes n integrands over one node
set, and `integrate_half_line_many` hands it a shared per-node step (the
fading-averaged ROC evaluates the SNR density there once for all its
thresholds).  Each integrand keeps its own panel sums, `math.fsum` of
them, stopping level, last delta and evaluation count, and retires as soon
as it converges, hits a non-finite panel or raises an ArithmeticError, so
its outcome is bit for bit the one it would get alone.
`integrate_unit_interval` and `integrate_half_line` are the n = 1 calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "EvalPolicy",
    "QuadratureError",
    "integrate_unit_interval",
    "integrate_half_line",
    "integrate_half_line_many",
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


# what _integrate returns per integrand: (value, est_error, evaluations),
# or the ArithmeticError that retired it
Outcome = Union[Tuple[float, float, int], ArithmeticError]


def _integrate(integrands: Sequence[Callable[[Any], float]],
               policy: EvalPolicy, scale: Optional[float],
               node: Optional[Callable[[float], Any]]) -> List[Outcome]:
    # The level-doubling loop (see the module docstring).  node(x), when
    # given, runs once per node and each integrand sees its result, else x
    # itself.  scale=None integrates over (0, 1), a scale over (0, inf) via
    # x = scale * t/(1-t).
    n = len(integrands)
    out: List[Optional[Outcome]] = [None] * n
    active = list(range(n))
    prev: List[Optional[float]] = [None] * n
    delta = [math.inf] * n
    evals = 0
    for level in range(_MAX_LEVELS + 1):
        panels = 1 << level
        h = 1.0 / panels
        pieces: List[List[float]] = [[] for _ in range(n)]
        for j in range(panels):
            left = j * h
            xs = [left + t * h for t in _T01]
            if scale is not None:
                onemts = [1.0 - t for t in xs]
                xs = [scale * t / onemt for t, onemt in zip(xs, onemts)]
                squares = [onemt * onemt for onemt in onemts]
            node_error = None
            if node is not None:
                # on an error, the integrands still see the nodes before it
                states = []
                try:
                    for x in xs:
                        states.append(node(x))
                except ArithmeticError as exc:
                    node_error = exc
                xs = states
            for i in active:
                f = integrands[i]
                acc = 0.0
                try:
                    if scale is None:
                        for x, w in zip(xs, _W01):
                            acc += w * f(x)
                    else:
                        for x, w, square in zip(xs, _W01, squares):
                            val = f(x)
                            # skip the jacobian, which may overflow near t=1
                            if val != 0.0:
                                acc += w * (val * scale / square)
                except ArithmeticError as exc:
                    out[i] = exc
                    continue
                if node_error is not None:
                    out[i] = node_error
                elif not math.isfinite(acc):
                    # no finer level can settle a NaN or inf: stop at once
                    out[i] = QuadratureError(
                        f"non-finite panel sum {acc!r} at level {level} "
                        f"(panel {j} of {panels})")
                else:
                    pieces[i].append(acc * h)
            active = [i for i in active if out[i] is None]
            if not active:
                return out
        evals += 32 * panels
        for i in active:
            total = math.fsum(pieces[i])
            if prev[i] is not None:
                delta[i] = abs(total - prev[i])
                if delta[i] <= policy.rel_tol * (abs(total) + 1e-300):
                    out[i] = (total, delta[i], evals)
            prev[i] = total
        active = [i for i in active if out[i] is None]
        if not active:
            return out
    for i in active:
        out[i] = QuadratureError(
            f"no convergence after {_MAX_LEVELS} doublings "
            f"(last delta {delta[i]:.3e})")
    return out


def _check_scale(scale: float) -> None:
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")


def _single(outcomes: List[Outcome]) -> Tuple[float, float, int]:
    (outcome,) = outcomes
    if isinstance(outcome, ArithmeticError):
        raise outcome
    return outcome


def integrate_unit_interval(f: Callable[[float], float],
                            policy: EvalPolicy) -> Tuple[float, float, int]:
    """Integrate f over (0, 1); returns (value, est_error, evaluations).

    The estimate error is the difference between the last two composite
    levels, which for Gauss panels on smooth integrands is a generous bound
    on the true error of the finer level.  Raises QuadratureError as soon
    as a panel sums to NaN or inf, or when the levels run out.
    """
    return _single(_integrate((f,), policy, None, None))


def integrate_half_line(f: Callable[[float], float], policy: EvalPolicy,
                        scale: float = 1.0) -> Tuple[float, float, int]:
    """Integrate f over (0, inf) via the substitution x = scale * t/(1-t).

    `scale` should sit near the bulk of the integrand's mass; the map then
    spends half the unit interval below that point and half above, which
    keeps panel counts low for densities with exponential tails.
    """
    _check_scale(scale)
    return _single(_integrate((f,), policy, scale, None))


def integrate_half_line_many(node: Callable[[float], Any],
                             integrands: Sequence[Callable[[Any], float]],
                             policy: EvalPolicy,
                             scale: float = 1.0) -> List[Outcome]:
    """Integrate n integrands over (0, inf) on one shared node set.

    node(x) runs once per node x, and each integrand is called with its
    result, so work common to all of them is done once.  Returns one
    outcome per integrand: its (value, est_error, evaluations), exactly as
    integrate_half_line(lambda x: integrand(node(x)), policy, scale) would
    return it, or the ArithmeticError that call would raise.
    """
    _check_scale(scale)
    return _integrate(integrands, policy, scale, node)
