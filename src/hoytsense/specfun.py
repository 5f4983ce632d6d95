"""Special-function kernel: regularized incomplete gamma, modified Bessel I,
Marcum Q, the confluent hypergeometric function, half-domain incomplete-beta
increments, Laguerre polynomials.

Everything here is scalar, pure Python double precision. The implementations
follow the usual series/continued-fraction splits (Numerical Recipes style for
the incomplete gamma) and are tuned for the argument ranges the detector
formulas actually hit. Extended precision lives only in the test oracles,
never here; the order-0 Bessel function, which the Hoyt density calls at
every quadrature node, is fixed polynomials fitted with it offline.  Every
series stops at one fixed relative tolerance and raises
ConvergenceError at one fixed term cap (`_REL_TOL`, `_MAX_TERMS`).  Every
positive sum is one `_mixture` call: weights (`_Poisson`, `_BetaTable`, the
averaged law in `average`) dotted with an increasing column <= 1 of
incomplete gammas (`_q_column`), half-domain betas or the law's CDF.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from operator import add, mul, neg, truediv
from typing import Iterator, List, Tuple

MINLOG = -745.13321910194  # below this exp() underflows to 0
_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)
_EPS = 2.0 ** -52

# ln of the largest double, past which e^x overflows (see bessel_i)
_LN_MAX = math.log(sys.float_info.max)
_LN2 = math.log(2.0)


class ConvergenceError(ArithmeticError):
    """A series or refinement loop hit its term cap before reaching tolerance."""


# truncation of every kernel series: stop once a term falls below _REL_TOL of
# the sum, raise ConvergenceError after _MAX_TERMS terms.  The average AUC
# series stops at the same cap, at its own EvalPolicy.rel_tol
_REL_TOL = 1e-13
_MAX_TERMS = 10_000


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function, x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# regularized incomplete gamma
# ---------------------------------------------------------------------------

def _lower_gamma_series(a, x):
    # P(a,x) by ascending series; good for x < a + 1
    lp = a * math.log(x) - x - math.lgamma(a + 1.0)
    if lp < MINLOG:
        return 0.0
    term = 1.0
    total = 1.0
    ap = a
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if term < _REL_TOL * total:
            return math.exp(lp) * total
    raise ConvergenceError(f"lower-gamma series stalled at a={a}, x={x}")


def _upper_gamma_cf(a, x):
    # Q(a,x) by Lentz continued fraction; good for x >= a + 1
    lp = a * math.log(x) - x - math.lgamma(a)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return 0.0 if lp < MINLOG else math.exp(lp) * h
    raise ConvergenceError(f"upper-gamma continued fraction stalled at a={a}, x={x}")


def reg_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x)/Gamma(a), the regularized upper incomplete gamma."""
    if not a > 0.0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        # P is at most ~0.7 here, so 1 - P costs no precision
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind
# ---------------------------------------------------------------------------

# e^-x I0(x) from fixed polynomials, evaluated by Horner (Moshier's Cephes
# i0e takes Chebyshev series the same way).  Fitted once with mpmath at 50
# digits, each coefficient rounded to a double, highest degree first:
# - [0, 16] in the 16 pieces between _I0E_EDGES: on [a, b] the degree-11
#   polynomial through e^-x I0(x) at the 12 Chebyshev points of [a, b], in
#   t = x - (a+b)/2.  The first, [0, 0.25], is 1 + x q(x), q the degree-10
#   polynomial through (e^-x I0(x) - 1)/x, in x itself, so 0 gives 1;
# - [16, 64]: sqrt(x) e^-x I0(x) as the degree-11 polynomial in t = 1/x -
#   5/128 through the 12 Chebyshev points of 1/x over [1/64, 1/16];
# - past 64: the asymptotic series sqrt(x) e^-x I0(x) ~ sum_k c_k x^-k,
#   c_k = ((2k-1)!!)^2 / (k! 8^k sqrt(2 pi)) (Abramowitz & Stegun 9.7.1),
#   to k = 11; the next term is 6e-19 of the sum at x = 64.
# All pieces share one degree, so one unrolled Horner serves every x; the
# edges lie on quarters, so int(4x) finds the piece.  Degree 10 would need
# 25 pieces on [0, 16], and degree 12 costs two more float operations in
# every call.  Against mpmath at 40 digits the evaluated pieces err by at
# most 3.0e-16 relative at 20,000 random points from 0 to 1e300.
_I0E_EDGES = (0.0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25, 4.0, 4.75,
              5.75, 6.75, 8.0, 9.5, 11.25, 13.5, 16.0)
_I0E_LOW = (
    # [0.0, 0.25]
    (-6.936478876477725e-06, 4.8753641756614985e-05, -0.0002613686391673011,
     0.001246795487996637, -0.005319931765588967, 0.020052082588399224,
     -0.06562499996022635, 0.18229166666542657, -0.4166666666666468,
     0.7499999999999999, -1.0, 1.0),
    # [0.25, 0.75]
    (-3.329504211795837e-06, 1.9277253678633254e-05, -0.00010143427871683315,
     0.000486237954866188, -0.0020905309737639156, 0.007958067498395503,
     -0.02639433415246566, 0.07471766838624992, -0.17577286089453759,
     0.3321936640794244, -0.4886144672642784, 0.6450352704491501),
    # [0.75, 1.25]
    (-1.2834893522621133e-06, 7.466399098611821e-06, -3.95169856689275e-05,
     0.00019080153837464187, -0.0008279390866295914, 0.003190394352725937,
     -0.010760498514265795, 0.031211735557617044, -0.07626738330347202,
     0.15389398456908457, -0.257849192243932, 0.46575960759364043),
    # [1.25, 1.75]
    (-4.967753783175456e-07, 2.9059107809353884e-06, -1.5486564175407293e-05,
     7.542531596424918e-05, -0.000330996898254507, 0.001294920746996776,
     -0.004461174022579032, 0.013352836532535526, -0.03429202889217184,
     0.07538109249292674, -0.14839422163323265, 0.36743360905415834),
    # [1.75, 2.25]
    (-1.931779782753648e-07, 1.1373967916286683e-06, -6.111724746687385e-06,
     3.0080110537572656e-05, -0.00013384214871124233, 0.0005336021823064847,
     -0.0018884899843715668, 0.005885102126065885, -0.01611195266631577,
     0.039421710992499984, -0.09323903330473338, 0.30850832255367105),
    # [2.25, 2.75]
    (-7.552936775934095e-08, 4.4815669175722e-07, -2.4320882073070813e-06,
     1.2123775604508021e-05, -5.487392555665096e-05, 0.00022400457264691985,
     -0.0008202308505206862, 0.002690133328292583, -0.007976179613516836,
     0.02214486217468327, -0.06346179208093619, 0.27004644161220276),
    # [2.75, 3.25]
    (-2.9719004014183753e-08, 1.7797454437506888e-07, -9.774554729119496e-07,
     4.9491796098828345e-06, -2.2878842616877663e-05, 9.619248632436206e-05,
     -0.0003675567945275921, 0.0012842555674013971, -0.0041881164321861414,
     0.01336918864830789, -0.046173640864524544, 0.2430003541618254),
    # [3.25, 4.0]
    (-9.40880423840057e-09, 5.7194783406833714e-08, -3.1811223696659524e-07,
     1.6507039289576103e-06, -7.891115200407523e-06, 3.4771258773020146e-05,
     -0.00014208112532035008, 0.0005467883661566735, -0.0020435135570463247,
     0.0078105495882644016, -0.03334958250569701, 0.2185075711571036),
    # [4.0, 4.75]
    (-2.39746065672926e-09, 1.4897146326277384e-08, -8.532744805567782e-08,
     4.6030275177115593e-07, -2.3203053278317334e-06, 1.1002584392705548e-05,
     -4.976113680754409e-05, 0.0002196654649038774, -0.0009784056059534607,
     0.004591272139874194, -0.02434306795033481, 0.19717128129187128),
    # [4.75, 5.75]
    (-5.066472069916672e-10, 3.2621960323073207e-09, -1.943089393745547e-08,
     1.1146932692747972e-07, -6.102721542262491e-07, 3.2293664109623013e-06,
     -1.6831102327813698e-05, 8.842061552517553e-05, -0.00048016142302985333,
     0.0027752077694287083, -0.018085036470074922, 0.17883823782688688),
    # [5.75, 6.75]
    (-9.032818668569961e-11, 6.146894260613623e-10, -3.944097085532758e-09,
     2.486821694972899e-08, -1.5358811537703917e-07, 9.430744068072689e-07,
     -5.851304777483734e-06, 3.7240309073130285e-05, -0.00024663532894885615,
     0.0017351039228231256, -0.013689729642092701, 0.16312255113296784),
    # [6.75, 8.0]
    (-1.4496033143130924e-11, 1.075907219068809e-10, -7.655934923717299e-10,
     5.512222819702828e-09, -3.9787114343607744e-08, 2.9081820345989627e-07,
     -2.1711627969254697e-06, 1.6673204718432115e-05, -0.0001328919774796019,
     0.0011201838363207868, -0.010548562837752348, 0.14961715310887683),
    # [8.0, 9.5]
    (-1.8756190686410796e-12, 1.5957453877998617e-11, -1.3275305597785316e-10,
     1.1403585874478694e-09, -9.935298837315006e-09, 8.807795866101069e-08,
     -7.970693741524761e-07, 7.394428705285371e-06, -7.091910411000713e-05,
     0.0007170219775532538, -0.008080201386262413, 0.13693584103868028),
    # [9.5, 11.25]
    (-2.288958402965905e-13, 2.3263617801736783e-12, -2.3369406013055074e-11,
     2.4315321812605774e-10, -2.565018894556602e-09, 2.745821593104819e-08,
     -2.9903041688043577e-07, 3.3282002238143585e-06, -3.8206144415075886e-05,
     0.0004615653722621857, -0.006207630649360908, 0.12543848514916375),
    # [11.25, 13.5]
    (-2.6595435667236738e-14, 3.293828860937506e-13, -4.016799555076339e-12,
     5.073066831615774e-11, -6.476451904882547e-10, 8.367282100800537e-09,
     -1.0974080635571016e-07, 1.4686215912653543e-06, -2.024723337690527e-05,
     0.00029349837439711655, -0.004732935317332931, 0.11460899965500047),
    # [13.5, 16.0]
    (-3.231627251141694e-15, 4.8421489582029484e-14, -7.154148819598183e-13,
     1.088018701824591e-11, -1.669795767299642e-10, 2.5903668588068243e-09,
     -4.075491319780552e-08, 6.537762036910905e-07, -1.0797615994540295e-05,
     0.00018740983426407236, -0.00361707684770523, 0.10479225374422148),
)

# [16, 64] and past 64, in 1/x: (centre, c0, ..., c11)
_I0E_MID = (5.0 / 128.0,) + (
    12677.749647228113, 1128.093785653314, 98.9113605977239,
    14.366348463744396, 2.643376548507827, 0.6070061752038997,
    0.1787469477518325, 0.06965777601676744, 0.037937559137317986,
    0.03194800583603424, 0.052204863463113337, 0.40093489756707135)
_I0E_ASYM = (0.0,) + (
    219.9511996660863, 43.89048882225758, 9.726424115735753,
    2.4231921672421253, 0.6892635497933156, 0.22839502241671997,
    0.09060298409919469, 0.04474221436997269, 0.029219405302839306,
    0.028050629090725736, 0.04986778505017909, 0.3989422804014327)

# (centre, c0, ..., c11) for each quarter of [0, 16), indexed by int(4x)
_I0E_AT = tuple(
    (0.5 * (a + b) if a else 0.0,) + c
    for a, b, c in zip(_I0E_EDGES, _I0E_EDGES[1:], _I0E_LOW)
    for _ in range(round(4.0 * (b - a))))


def bessel_i(nu: float, x: float) -> float:
    """The scaled Bessel function e^{-x} I_nu(x) for nu >= 0, x >= 0.

    The scaling keeps the value representable for any x, where I_nu(x)
    itself overflows past x ~ 710.

    Order 0, the Hoyt density's, is one degree-11 polynomial in x or 1/x
    by Horner (`_I0E_LOW`, `_I0E_MID`, `_I0E_ASYM`): ~0.5 us a call for
    any x on a 2-vCPU Xeon, within 3e-16 relative of mpmath.

    Other orders take the ascending series up to x = 25 + nu^2 and the
    asymptotic expansion (Abramowitz & Stegun 9.7.1) past it.  The
    series' terms peak near k = x/2, so its cost grows with x, and its
    e^(-x) scaling rounds by ~x ulps; the expansion's term ratios (4 nu^2
    - (2k-1)^2)/(8xk) start below 1/2 past the crossover and only fall as
    x grows.  So the cost stays flat in x (at nu = 1 the series takes 36
    terms at x = 26, the expansion 12 just past it), and against mpmath
    both hold 5e-14 relative for nu <= 12.  At orders of 20 and above the
    series runs out to x ~ 425-700 and errs by 1.4e-13 to 2.2e-13
    relative (nu = 20 to 35); the package calls orders 1 to 5 only in
    `validate`.  With its first term (x/2)^nu / Gamma(nu+1) taken out,
    the series is at most I_0(x) <= e^x, so it stops short of _LN_MAX,
    where that sum could overflow; only orders past 26 reach that cap.
    """
    if nu == 0.0 and x >= 0.0:
        if x < 16.0:
            piece = _I0E_AT[int(4.0 * x)]
            t = x
        else:
            piece = _I0E_MID if x < 64.0 else _I0E_ASYM
            t = 1.0 / x
        m, c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = piece
        t -= m
        p = (((c0 * t + c1) * t + c2) * t + c3) * t + c4
        p = (((p * t + c5) * t + c6) * t + c7) * t + c8
        p = ((p * t + c9) * t + c10) * t + c11
        return p if x < 16.0 else p / math.sqrt(x)
    if nu < 0.0:
        raise ValueError(f"bessel_i requires nu >= 0, got {nu}")
    if x < 0.0:
        raise ValueError(f"bessel_i requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x <= 25.0 + nu * nu and x < _LN_MAX:
        return _bessel_series(nu, x)
    return _bessel_asymptotic(nu, x)


def _bessel_series(nu: float, x: float) -> float:
    # ascending series around the first term (x/2)^nu / Gamma(nu+1);
    # x/2 underflows to 0 at the smallest subnormal x
    half = 0.5 * x
    ln_half = math.log(half) if half > 0.0 else math.log(x) - _LN2
    lt = nu * ln_half - math.lgamma(nu + 1.0)
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(_MAX_TERMS):
        term *= q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if term < _REL_TOL * total:
            break
    else:
        raise ConvergenceError(f"bessel_i series stalled at nu={nu}, x={x}")
    return math.exp(lt + math.log(total) - x)


def _bessel_asymptotic(nu: float, x: float, tol: float = _REL_TOL) -> float:
    # large argument: asymptotic expansion of e^{-x} I_nu(x), to a term
    # below tol of the sum
    mu = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = math.inf
    for k in range(1, 40):
        term *= -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * x * k)
        if abs(term) >= prev:
            # asymptotic tail started growing before reaching tolerance
            raise ConvergenceError(f"bessel_i asymptotic diverges at nu={nu}, x={x}")
        total += term
        prev = abs(term)
        if abs(term) < tol * abs(total):
            break
    else:
        raise ConvergenceError(f"bessel_i asymptotic stalled at nu={nu}, x={x}")
    return total / math.sqrt(2.0 * math.pi * x)


# ---------------------------------------------------------------------------
# Marcum Q and the mixture sum: positive weights dotted with a column <= 1
# ---------------------------------------------------------------------------

# a window leaves out at most _WINDOW_MASS of Poisson mass on each side, and
# a mixture stops once its upper tail is below _SUM_TOL of the running total,
# or below _TAIL_FLOOR, deep in the subnormal range, where a weight times a
# ratio above 1/2 rounds back to the smallest subnormal and stops falling
_SURE = 12.0  # a > b + 12: the miss probability is below exp(-72), Q = 1
_WINDOW_MASS = 1e-20
_LN_MASS = -math.log(_WINDOW_MASS)
_SUM_TOL = 1e-16
_TAIL_FLOOR = 1e-320


def marcum_q(m: float, a: float, b: float) -> float:
    """Generalized Marcum Q_m(a, b) for real order m > 0.

    The Poisson mixture sum_k Pois(k; a^2/2) Q(m+k, b^2/2) summed from the
    mode (Shnidman 1989) by `_mixture`, which also bounds the error; the
    value may pass [0, 1] by up to that bound.  The column of incomplete
    gammas (`_q_column`) is anchored once by the a = 0 case, at the
    Chernoff point below which the Poisson weights, or the gammas, hold
    less than _WINDOW_MASS.  It is 1 past a > b + _SURE, and raises
    ConvergenceError where a^2/2 is too large (~1e6) for the weights to
    close within _MAX_TERMS terms of their mode, or where the sum passes
    that cap, unless a Chernoff bound puts Q below 2^-1075: then it is 0.
    """
    if a == 0.0 and m > 0.0 and b >= 0.0:
        # a column's anchor Q(m, b^2/2), which needs no bound here
        return reg_upper_gamma(m, 0.5 * b * b)
    return _marcum_q(m, a, b)[0]


def _marcum_q(m: float, a: float, b: float) -> Tuple[float, float]:
    # marcum_q and a bound on its absolute error
    if not m > 0.0:
        raise ValueError(f"marcum_q requires m > 0, got {m}")
    if a < 0.0 or b < 0.0:
        raise ValueError("marcum_q requires a >= 0 and b >= 0")
    x = 0.5 * b * b
    if x == 0.0:
        # b = 0, or b^2/2 below the subnormal range: the zero threshold
        return 1.0, 0.0
    if a == 0.0:
        q = reg_upper_gamma(m, x)
        return q, _upper_gamma_error(m, x, q)
    if a > b + _SURE:
        return 1.0, math.exp(-0.5 * _SURE * _SURE)
    h = 0.5 * a * a
    weights = _Poisson(0.0, h)
    # the anchor's error, ~(m+k) ln x ulps relative, reaches every entry:
    # start where the Poisson(h) mass below k, or Q(m+k, x), is under
    # _WINDOW_MASS (Chernoff), whichever is lower: at or below the core
    start = int(max(0.0, min(h - math.sqrt(2.0 * h * _LN_MASS),
                             x - m - math.sqrt(2.0 * x * _LN_MASS))))
    col = _q_column(m, b, start, int(h) + _MAX_TERMS + 1)
    try:
        value, err, _ = _mixture(weights, col)
    except ConvergenceError:
        # where Q lies far below the subnormal range, the weights' tail
        # may pass the cap before it is under _TAIL_FLOOR (a^2/2 = 1.15e5,
        # b^2/2 = 1.5e5).  Q <= (1-2t)^-m exp(a^2 t/(1-2t) - t b^2) for
        # 0 < t < 1/2 (Chernoff), least at 1 - 2t = v, b^2 v^2 - 2m v - a^2
        # = 0: below 2^-1075 it makes 0 Q's rounding, with error 2^-1074
        bb = b * b
        v = (m + math.sqrt(m * m + a * a * bb)) / bb
        if v < 1.0 and (-m * math.log(v) + 0.5 * (1.0 - v) * (a * a / v - bb)
                        < -1075.0 * _LN2):
            return 0.0, 5e-324
        raise
    return value, err


def _upper_gamma_error(s: float, x: float, q: float) -> float:
    # the error of q = reg_upper_gamma(s, x): its tolerance and the rounding
    # of its prefactor, which its 1 - P branch at most triples
    return 3.0 * q * (_REL_TOL + 2.0 * _EPS * (
        s * abs(math.log(x)) + x + abs(math.lgamma(s))))


class _Column:
    """An increasing column c[k - start], k = start, start+1, ...: the
    anchor c[0] plus positive increments drawn on demand from `more`, at
    argument `x`.  An entry is off by at most `abs0` (the anchor's error),
    `err` relative in the increments it adds, and `ulps` eps a step.
    """

    __slots__ = ("c", "start", "x", "err", "abs0", "ulps", "more")

    def __init__(self, c: List[float], start: int, x: float, err: float,
                 abs0: float, ulps: float, more: Iterator[float]) -> None:
        self.c, self.start, self.x, self.more = c, start, x, more
        self.err, self.abs0, self.ulps = err, abs0, ulps

    def extend(self, n: int) -> None:
        # the first n entries; c's last comes back as accumulate's start
        c = self.c
        if n > len(c):
            more = itertools.islice(self.more, n - len(c))
            c.extend(itertools.accumulate(more, initial=c.pop()))

    def error(self, total: float, rounding: float, n: int) -> float:
        # of a sum over n entries: the increments are at most total - c[0]
        return total * rounding + abs(total - self.c[0]) * self.err + self.abs0


def _q_column(u: float, b: float, start: int, limit: int) -> _Column:
    """Q(u+k, x), x = b^2/2, for k = start, start+1, ..., within its bound
    up to k = limit: the anchor Q_(u+start)(0, b) from `marcum_q`, then
    Q(s+1, x) = Q(s, x) + e_k, e_k = x^s e^(-x) / Gamma(s+1), s = u + k.

    The increments fall away from their peak at s ~ x (sought up to
    `limit`): by s/x below it, by x/(s+1) above it at 2 ulps a step, so one
    that underflows loses only what is below the normal range.
    """
    s = u + start
    # by the global name, so that wrappers of specfun.marcum_q see it
    c0 = marcum_q(s, 0.0, b)
    x = 0.5 * b * b
    if x == 0.0:  # the zero threshold: every entry is 1
        return _Column([c0], start, x, 0.0, 0.0, 2.0, itertools.repeat(0.0))
    down, err = poisson_increments(s, x, limit - start)
    peak = len(down) - 1
    # past the peak e_j = e_(j-1) x/(s+j), with s + j formed afresh
    up = itertools.accumulate(
        map(truediv, itertools.repeat(x),
            map(add, itertools.repeat(s), itertools.count(peak + 2))),
        mul, initial=down[-1] * (x / (s + peak + 1.0)))
    return _Column(list(itertools.accumulate(down, initial=c0)), start, x,
                   err, _upper_gamma_error(s, x, c0), 2.0, up)


class _Weights:
    """What `_mixture` reads of its weights: the core [lo, hi), built at once
    into the list `w`, the mass `below` it and a bound from hi up (`above`),
    the sum's divisor `mass`, the relative error `rel(hi)` and `step_ulps`
    eps a step, and how far to grow next (`reach`, built by `extend`)."""

    __slots__ = ()
    lo, hi, below, mass = 0, 1, 0.0, 1.0
    step_ulps = 4.0  # an ulp a step, with the product and the sum
    params: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)}" for name in self.params) + ")"

    def rel(self, hi: int) -> float:
        return self.err


class _Poisson(_Weights):
    """`_mixture` weights w_k = h^(s+k) e^(-h) / Gamma(s+k+1), k >= 0:
    Poisson(h) at s = 0; at s > 0 the increments Q(s+k+1, h) - Q(s+k, h)
    of a threshold's incomplete gammas, which add up to P(s, h).

    The core [lo, hi) is built outward from the mode k0 = int(h - s), down
    by the ratios (s+k)/h and up by h/(s+k+1), each to the first k where
    the mass beyond, at most w_k rho/(1 - rho) as the ratios rho fall, is
    below _WINDOW_MASS (`below`, `above`).  Poisson weights are divided by
    the core's sum `mass`: every weight shares the rounding of the mode's
    exponent k0 ln h - h - lnGamma(k0+1) (~1e-12 relative at h = 1000) and
    the true mass is 1, so that error drops out and the missing mass is
    theirs (`err`).  At s > 0 `poisson_increments` seeds the mode, with its
    error.
    """

    __slots__ = ("h", "s", "w", "lo", "hi", "below", "mass", "err")
    params = ("s", "h")

    def __init__(self, s: float, h: float) -> None:
        # the mass past h + T is at most exp(-T^2 / (2 (h + T))) (Chernoff):
        # fail at once if that passes _WINDOW_MASS at T = _MAX_TERMS
        if _MAX_TERMS * _MAX_TERMS < 2.0 * (h + _MAX_TERMS) * _LN_MASS:
            raise ConvergenceError(f"Poisson window of h={h} cannot close "
                                   f"within {_MAX_TERMS} terms past its mode")
        k0 = max(0, int(h - s))
        if s:
            (w_mode,), err = poisson_increments(s + k0, h, 0)
        else:
            w_mode = (math.exp(k0 * math.log(h) - h - math.lgamma(k0 + 1.0))
                      if k0 else math.exp(-h))
        # sk = s + k, a float counter (exact at s = 0)
        w, last, sk, floor, below = [w_mode], w_mode, s + k0, s + 0.5, 0.0
        append, mass_cut = w.append, _WINDOW_MASS
        while sk > floor:
            rho = sk / h
            if last * rho <= mass_cut * (1.0 - rho):
                below = last * rho / (1.0 - rho)
                break
            last *= rho
            sk -= 1.0
            append(last)
        w.reverse()
        self.lo = lo = k0 + 1 - len(w)
        last, sk = w_mode, s + k0 + 1.0
        while True:  # closes near T = _MAX_TERMS at worst (Chernoff)
            r = h / sk
            if last * r <= mass_cut * (1.0 - r):
                break
            last *= r
            sk += 1.0
            append(last)
        self.h, self.s, self.w, self.hi, self.below = h, s, w, lo + len(w), below
        self.mass, self.err = ((1.0, err) if s else
                               (sum(w), below + last * r / (1.0 - r)))

    def extend(self, n: int) -> None:
        # weights up to k = n - 1, by w_k = w_(k-1) h/(s+k)
        w, h, s = self.w, self.h, self.s
        have = self.lo + len(w)
        if n > have:
            w.extend(itertools.islice(itertools.accumulate(
                [h / (s + j) for j in range(have, n)], mul, initial=w[-1]),
                1, None))

    def above(self, hi: int, col: _Column) -> float:
        # the mass from hi > h - s up is at most w_(hi-1) r/(1 - r)
        r = self.h / (self.s + hi)
        return self.w[hi - 1 - self.lo] * r / (1.0 - r)

    def reach(self, lo: int, hi: int, target: float, limit: int,
              col: _Column) -> int:
        # doubling; stopping first at _MAX_TERMS past the mode keeps the
        # chunks, and so the bits, of every sum that ends there or before
        mark = max(0, int(self.h - self.s)) + _MAX_TERMS + 1
        return min(2 * hi - lo, mark if hi < mark else limit)


def _mixture(weights, col: _Column, tol: float = _SUM_TOL,
             hi: int = 0) -> Tuple[float, float, int]:
    """sum_k w_k c_k for positive weights and an increasing column c <= 1,
    a bound on its error, and the number of terms summed (Shnidman 1989).

    The sum is one dot product over the weights' core (`_Weights`), or from
    the column's start where that is higher (the column's band), to at
    least `hi`, where a caller knows the band to reach further.  While the
    mass above it, times what c can still reach (<= 1), exceeds `tol` of
    the total, it grows by chunks the weights choose; only those count
    against _MAX_TERMS.  It is divided by the weights' `mass`.

    The bound adds that upper tail, the mass below the start times the
    smallest c it holds (c rises with k), the weights' error (`rel`, and
    `step_ulps` eps a step), the column's (`error`, and `ulps` eps a step
    from its start), and 2^-1074 a term for subnormal products and sums.
    """
    start, w, base, c = col.start, weights.w, weights.lo, col.c
    lo = start if start > base else base
    hi = max(hi, weights.hi)  # > lo: a column past the core brings its hi
    limit = hi + _MAX_TERMS
    if hi > weights.hi:
        weights.extend(hi)
    col.extend(hi - start)
    below = weights.below
    if lo > base:  # the weights skipped below the sum's start
        below += sum(w[:lo - base])
    # (map stops at the column's slice: w needs no copy from its start)
    total = sum(map(mul, w[lo - base:] if lo > base else w,
                    c[lo - start:hi - start]))
    above = weights.above(hi, col)
    while above > tol * total and above > _TAIL_FLOOR:
        grown = weights.reach(lo, hi, tol * total, limit, col)
        if grown <= hi:
            raise ConvergenceError(f"mixture of {weights!r} at x={col.x} "
                                   f"passed {_MAX_TERMS} terms past its core")
        weights.extend(grown)
        col.extend(grown - start)
        total += sum(map(mul, w[hi - base:grown - base],
                         c[hi - start:grown - start]))
        hi = grown
        above = weights.above(hi, col)
    total /= weights.mass
    rounding = weights.rel(hi) + (
        weights.step_ulps * (hi - lo) + col.ulps * (hi - start) + 1.0) * _EPS
    return total, (col.error(total, rounding, hi - start)
                   + (above + c[lo - start] * below) / weights.mass
                   + (hi - lo) * 5e-324), hi - lo


# ---------------------------------------------------------------------------
# confluent hypergeometric 1F1
# ---------------------------------------------------------------------------

def _is_nonpos_int(v):
    return v <= 0.0 and v == math.floor(v)


def kummer_1f1(a: float, b: float, x: float,
               regularized: bool = False) -> float:
    """Kummer's 1F1(a; b; x).

    regularized=True returns 1F1(a;b;x)/Gamma(b), term-by-term as
    sum_k (a)_k x^k / (Gamma(b+k) k!), which stays finite for b a nonpositive
    integer (the leading poles drop out). Negative x with non-terminating a
    goes through the Kummer transform 1F1(a;b;x) = e^x 1F1(b-a;b;-x) to avoid
    alternating-series cancellation.  Raises OverflowError where the sum
    leaves double range.
    """
    if _is_nonpos_int(b) and not regularized:
        raise ValueError(f"kummer_1f1 pole: b={b} is a nonpositive integer")

    terminating = _is_nonpos_int(a)
    if x < 0.0 and not terminating:
        # e^x 1F1(b-a; b; -x); the same identity holds for the regularized form
        return math.exp(x) * kummer_1f1(b - a, b, -x, regularized)

    # first nonzero index: k0 = 1-b when b is a nonpositive integer (regularized)
    k0 = 0
    if regularized and _is_nonpos_int(b):
        k0 = int(1.0 - b)
    if terminating and k0 > -int(a):
        return 0.0  # every term carries either a pole-killed 1/Gamma or (a)_k = 0

    # term at k0
    if k0 == 0:
        term = 1.0 / math.gamma(b) if regularized else 1.0
    else:
        # (a)_{k0} x^{k0} / (Gamma(b+k0) k0!) with b+k0 = 1
        poch = 1.0
        for j in range(k0):
            poch *= a + j
        term = poch * x ** k0 / math.factorial(k0)
    total = term
    small = 0
    k = k0
    while k - k0 < _MAX_TERMS:
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        k += 1
        if terminating and a + k == 0.0:
            # polynomial ended before anything else mattered... also covers a=0
            term = 0.0
        if term == 0.0:
            return total
        small = small + 1 if abs(term) <= _REL_TOL * (abs(total) + 1e-300) else 0
        if small >= 2:
            if math.isinf(total):  # inf <= rel_tol * inf passes the test above
                raise OverflowError(
                    f"kummer_1f1({a}, {b}, {x}) exceeds double range")
            return total
    raise ConvergenceError(f"kummer_1f1 stalled at a={a}, b={b}, x={x}")


# ---------------------------------------------------------------------------
# half-domain incomplete beta
# ---------------------------------------------------------------------------

def _ln_gamma_ratio(u: float) -> Tuple[float, float]:
    # ln(Gamma(u+1/2) / Gamma(u+1)) and a bound on its absolute error.  Past
    # u = 30 the two lnGamma agree but for rounding of ~u ln u (1e-13 at
    # u = 150), so Stirling's series for both is combined: the large parts
    # give u log1p(-1/(2u+2)) - ln(u+1)/2 + 1/2; the asymptotic sums, odd in
    # x (hence taken at u+1/2 and -(u+1)), are cut after x^-7, below 1e-17.
    # Below, lgamma also rounds absolutely: up to 7.3 eps more (u = 1.98)
    if u < 30.0:
        a, b = ln_gamma(u + 0.5), ln_gamma(u + 1.0)
        return a - b, 4e-16 * (abs(a) + abs(b)) + 10.0 * _EPS
    ln_x = math.log(u + 1.0)
    value = u * math.log1p(-0.5 / (u + 1.0)) - 0.5 * ln_x + 0.5
    for x in (u + 0.5, -1.0 - u):
        value += _stirling_tail(x)
    return value, 4e-16 * (2.0 + ln_x)


def _stirling_tail(x: float) -> float:
    # lnGamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 by Stirling's series, cut
    # after x^-7 (below 1e-17 for |x| >= 30)
    y = 1.0 / (x * x)
    return (1.0 / 12.0 - y * (1.0 / 360.0 - y * (1.0 / 1260.0 - y / 1680.0))) / x


def ln_poisson_term(s: float, x: float) -> Tuple[float, float]:
    """ln(x^s e^(-x) / Gamma(s+1)) for s > 0, x > 0, and a bound on its
    absolute error.

    Written as s (ln(x/s) - t) - ln(2 pi s)/2 - stirlerr(s), t = (x - s)/s,
    with stirlerr(s) = lnGamma(s+1) - (s + 1/2) ln s + s - ln(2 pi)/2 from
    Stirling's series past s = 30, so no terms of size s ln x cancel: at
    s = 150, x = 200 the error is ~1e-14 where s ln x - x - lnGamma(s+1)
    carries ~1e-13.  This is the log of the Poisson(x) pmf at s, largest
    near s = x, where it is most accurate.
    """
    t = (x - s) / s
    # near s = x, log1p(t) keeps the digits that ln(x/s) rounds away
    ln_ratio = math.log1p(t) if abs(t) < 0.5 else math.log(x / s)
    value = s * (ln_ratio - t)
    if s >= 30.0:
        value -= 0.5 * math.log(2.0 * math.pi * s) + _stirling_tail(s)
        rest = 0.5 * abs(math.log(2.0 * math.pi * s))
    else:
        ln_s, ln_gamma = s * math.log(s), math.lgamma(s + 1.0)
        value += ln_s - s - ln_gamma
        rest = abs(ln_s) + s + abs(ln_gamma)
    err = 2.0 * _EPS * (s * abs(ln_ratio) + 2.0 * abs(x - s) + rest
                        + abs(value))
    return value, err


def poisson_increments(s: float, x: float,
                       limit: int) -> Tuple[List[float], float]:
    """e_k = x^(s+k) e^(-x) / Gamma(s+k+1), k = 0 .. p, up to their peak
    p = int(x - s) (at most `limit`, at least 0), and a bound on the
    relative error of every e_k.

    The peak is seeded from `ln_poisson_term`, most accurate there, and the
    rest follow by e_(k-1) = e_k (s+k)/x, two roundings a step.  Below the
    peak the increments only fall, so one that underflows loses only what
    lies below the normal range; past it e_(k+1) = e_k x/(s+k+1) falls too.
    """
    peak = min(max(0, int(x - s)), limit)
    ln_e, err = ln_poisson_term(s + peak, x)
    e = math.exp(ln_e) if ln_e > MINLOG else 0.0
    if not peak:
        return [e], err + _EPS
    down = list(itertools.accumulate(
        ((s + k) / x for k in range(peak, 0, -1)), mul, initial=e))
    down.reverse()
    return down, err + (2.0 * peak + 1.0) * _EPS


def beta_increments(u: float) -> Tuple[Iterator[float], float]:
    """inc_l = I_{1/2}(u, u+l+1) - I_{1/2}(u, u+l) > 0, l = 0, 1, ..., and
    the relative error that every inc_l shares (the start's).

    The start Gamma(u+1/2) / (2 sqrt(pi) Gamma(u+1)) (Legendre duplication)
    avoids lnGamma(2u) - lnGamma(u) - lnGamma(u+1), which cancels at large u.
    """
    ln_start, err = _ln_gamma_ratio(u)
    return _increments(math.exp(ln_start) / _TWO_SQRT_PI, u), err


class _BetaTable(_Weights):
    """u's half-domain beta increments, drawn once from `beta_increments`
    and grown on demand; a `DetectorConfig` keeps one for all its
    evaluations.

    `inc[l]` = inc_l, each off by the start's relative `err`.  The ratios
    inc_(l+1)/inc_l = (2u+l)/(2(u+l+1)) tend to 1/2 monotonically, so
    `ratio[l]` = max(1/2, inc_(l+2)/inc_(l+1)) bounds every ratio past l+1
    and `tail[l]` = inc_(l+1)/(1 - ratio[l]) bounds I_{1/2}(u+l+1, u) =
    inc_(l+1) + inc_(l+2) + ... (`extend`).  `column` is I_{1/2}(u, u+k) =
    1/2 + inc_0 + ... + inc_(k-1): past `err`, entry k is off by at most
    (3k - 1) eps (5 roundings a step in the increments, 3 in the start, 1
    a step in the sum).  As `_mixture` weights (the average CAUC series)
    the increments run from their mode 0, `hi` at a time, then as far as
    `tail` falls below the target.
    """

    __slots__ = ("u", "err", "inc", "w", "ratio", "tail", "column", "_more")
    hi = 32
    params = ("u",)

    def __init__(self, u: float) -> None:
        self._more, self.err = beta_increments(u)
        self.u, self.inc, self.ratio, self.tail = u, [], [], []
        self.w = self.inc
        self.column = _Column([0.5], 0, 0.5, self.err, 0.0, 3.0,
                              _drawn(self.inc, self._more))
        self.extend(self.hi)

    def extend(self, n: int) -> None:
        # ratio and tail up to l = n - 1, and inc with them
        inc, ratio, tail, u = self.inc, self.ratio, self.tail, self.u
        if n > len(inc):
            inc.extend(itertools.islice(self._more, n - len(inc)))
        for j in range(len(tail), n):
            r = max(0.5, (2.0 * u + j + 1.0) / (2.0 * (u + j + 2.0)))
            ratio.append(r)
            tail.append(inc[j] * (2.0 * u + j) / (2.0 * (u + j + 1.0))
                        / (1.0 - r))

    def above(self, hi: int, col) -> float:
        # the column is the law's CDF (`average._Law`), capped past hi
        return self.tail[hi - 1] * col.cap(hi - col.start, self.ratio[hi - 1])

    def reach(self, lo: int, hi: int, target: float, limit: int,
              col: _Column) -> int:
        # one past the first l >= hi whose tail, times the column's cap at
        # hi (which only grows), is below target: at most doubling
        grown = min(2 * hi - lo, limit)
        self.extend(grown)
        return min(grown, 1 + bisect.bisect_left(
            self.tail, -target / col.cap(hi - col.start, self.ratio[hi - 1]),
            hi, grown, key=neg))


def _drawn(inc: List[float], more: Iterator[float]) -> Iterator[float]:
    # inc[0], inc[1], ..., drawing from `more` into inc past its end
    for k in itertools.count():
        if k == len(inc):
            inc.append(next(more))
        yield inc[k]


def _increments(inc: float, u: float) -> Iterator[float]:
    two_u = 2.0 * u
    l = 0.0  # a float counter: mixed int/float arithmetic is slower
    while True:
        yield inc
        inc *= (two_u + l) / (2.0 * (u + l + 1.0))
        l += 1.0


# ---------------------------------------------------------------------------
# Laguerre, Pochhammer, binomial
# ---------------------------------------------------------------------------

def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^alpha(x) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise ValueError(f"laguerre requires integer n >= 0, got {n}")
    n = int(n)
    if n == 0:
        return 1.0
    p0 = 1.0
    p1 = 1.0 + alpha - x
    for k in range(1, n):
        p0, p1 = p1, ((2.0 * k + 1.0 + alpha - x) * p1 - (k + alpha) * p0) / (k + 1.0)
    return p1


def pochhammer(a: float, n: int) -> float:
    """(a)_n = Gamma(a+n)/Gamma(a) for integer n (negative n allowed)."""
    if n != int(n):
        raise ValueError(f"pochhammer requires integer n, got {n}")
    n = int(n)
    out = 1.0
    if n >= 0:
        for j in range(n):
            out *= a + j
        return out
    for j in range(1, -n + 1):
        d = a - j
        if d == 0.0:
            raise ValueError(f"pochhammer({a}, {n}) hits a gamma pole")
        out /= d
    return out


def binomial(top: float, k: int) -> float:
    """binom(top, k) = top (top-1) ... (top-k+1) / k! for real top, integer k >= 0."""
    if k < 0 or k != int(k):
        raise ValueError(f"binomial requires integer k >= 0, got {k}")
    out = 1.0
    for j in range(int(k)):
        out *= (top - j) / (j + 1.0)
    return out
