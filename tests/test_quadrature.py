"""Adaptive panel quadrature: exact integrals, policies, failure modes."""

import math
import re

import numpy as np
import pytest

from hoytsense import quadrature
from hoytsense.quadrature import (EvalPolicy, QuadratureError,
                                  integrate_half_line,
                                  integrate_unit_interval)

TIGHT = EvalPolicy(rel_tol=1e-13)


def test_policy_defaults_and_validation():
    assert EvalPolicy().rel_tol == 1e-10
    for bad in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError):
            EvalPolicy(rel_tol=bad)


def test_integrands_see_and_results_are_python_floats():
    # nodes and sums stay Python floats: numpy scalars would run every
    # integrand through numpy's scalar arithmetic and leak into results
    seen = set()

    def decay(x):
        seen.add(type(x))
        return math.exp(-x)

    for integrate in (integrate_unit_interval, integrate_half_line):
        value, err, _ = integrate(decay, TIGHT)
        assert type(value) is float and type(err) is float
    assert seen == {float}


def test_unit_interval_polynomial_is_exact():
    # a 32-point Gauss rule integrates degree-63 polynomials exactly
    value, err, evals = integrate_unit_interval(lambda x: x ** 3, TIGHT)
    assert value == pytest.approx(0.25, rel=1e-15)
    assert evals <= 96
    assert err <= 1e-13


def test_unit_interval_transcendental():
    value, _, _ = integrate_unit_interval(lambda x: math.sin(10.0 * x), TIGHT)
    assert value == pytest.approx((1.0 - math.cos(10.0)) / 10.0, rel=1e-12)
    value, _, _ = integrate_unit_interval(lambda x: math.exp(-x * x), TIGHT)
    assert value == pytest.approx(0.74682413281242702540, rel=1e-13)


def test_half_line_exponential_moments():
    # int_0^inf e^(-x) dx = 1, int_0^inf x e^(-x) dx = 1
    value, _, _ = integrate_half_line(lambda x: math.exp(-x), TIGHT)
    assert value == pytest.approx(1.0, rel=1e-12)
    value, _, _ = integrate_half_line(lambda x: x * math.exp(-x), TIGHT)
    assert value == pytest.approx(1.0, rel=1e-12)
    # gaussian with a far-from-unit scale parameter
    value, _, _ = integrate_half_line(
        lambda x: x * math.exp(-x * x / 200.0), TIGHT, scale=10.0)
    assert value == pytest.approx(100.0, rel=1e-12)


def test_half_line_skips_jacobian_when_integrand_dies():
    # the mapped endpoint t -> 1 sends x -> huge; a density-style integrand
    # that returns exactly 0 out there must not overflow the jacobian weight
    def f(x):
        if x > 700.0:
            return 0.0
        return math.exp(-x)

    value, _, _ = integrate_half_line(f, TIGHT, scale=1.0)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_half_line_scale_validation():
    with pytest.raises(ValueError):
        integrate_half_line(math.exp, TIGHT, scale=0.0)
    with pytest.raises(ValueError):
        integrate_half_line(math.exp, TIGHT, scale=math.inf)


def test_literal_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t01 = tuple(float(t) for t in 0.5 * (nodes + 1.0))
    w01 = tuple(float(w) for w in 0.5 * weights)
    assert all(type(x) is float for x in quadrature._T01 + quadrature._W01)
    assert [x.hex() for x in quadrature._T01] == [x.hex() for x in t01]
    assert [x.hex() for x in quadrature._W01] == [x.hex() for x in w01]


def test_non_convergence_raises(monkeypatch):
    # five doublings on a violently oscillatory integrand
    monkeypatch.setattr(quadrature, "_MAX_LEVELS", 5)
    with pytest.raises(QuadratureError) as info:
        integrate_unit_interval(lambda x: math.sin(1e6 * x), TIGHT)
    # the message reports the gap between the last two composite levels,
    # 16 and 32 panels, recomputed here
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def composite(panels):
        h = 1.0 / panels
        x = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) * h
        return float((0.5 * weights * np.sin(1e6 * x)).sum() * h)

    want = abs(composite(32) - composite(16))
    reported = float(re.search(r"last delta (\S+)\)", str(info.value))[1])
    assert want > 0.0
    assert reported == pytest.approx(want, rel=1e-3)


def test_non_finite_level_raises_at_once():
    # a NaN or inf total never meets the tolerance, so refining it would
    # only run the levels out: the first level's 32 nodes are the last
    for bad in (math.nan, math.inf):
        calls = []

        def f(x):
            calls.append(x)
            return bad if len(calls) == 7 else x

        with pytest.raises(QuadratureError, match="level 0"):
            integrate_unit_interval(f, TIGHT)
        assert len(calls) == 32
    # an integrand's own ArithmeticError leaves as it was raised, type and
    # message unchanged, and ends the integral there
    for integrate, past in ((integrate_half_line, 50.0),
                            (integrate_unit_interval, 0.5)):
        raised = []

        def g(x):
            try:
                return 1.0 / (0.0 if x > past else 1.0)
            except ZeroDivisionError as exc:
                raised.append(exc)
                raise

        with pytest.raises(ZeroDivisionError) as info:
            integrate(g, TIGHT)
        assert type(info.value) is ZeroDivisionError
        assert str(info.value) == "float division by zero"
        assert raised == [info.value]


def test_reported_error_is_honest():
    # est_error should bound the true error on a smooth integrand
    value, err, _ = integrate_unit_interval(
        lambda x: 1.0 / (1.0 + 25.0 * x * x), TIGHT)
    true = math.atan(5.0) / 5.0
    assert abs(value - true) <= max(err, 1e-14) * 10.0
    assert value == pytest.approx(true, rel=1e-12)

