"""Adaptive panel integration against scipy.integrate.quad oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ringpair import NoConvergence, NonPhysical
from ringpair.quadrature import integrate_adaptive


def test_gaussian_matches_scipy():
    f = lambda x: np.exp(-(x**2))
    value, err = integrate_adaptive(f, -6.0, 6.0, abs_tol=1e-13)
    reference, _ = quad(lambda x: math.exp(-(x**2)), -6.0, 6.0, epsabs=1e-14)
    assert value.imag == 0.0
    assert value.real == pytest.approx(reference, abs=1e-12)
    assert err >= 0.0


def test_oscillatory_matches_closed_form():
    f = lambda x: np.sin(40.0 * x)
    value, _ = integrate_adaptive(f, 0.0, 1.0, abs_tol=1e-13)
    assert value.real == pytest.approx((1.0 - math.cos(40.0)) / 40.0, abs=1e-12)


def test_narrow_lorentzian():
    hw = 1e-4
    f = lambda x: hw**2 / (x**2 + hw**2)
    value, _ = integrate_adaptive(f, -1.0, 1.0, abs_tol=1e-12)
    exact = 2.0 * hw * math.atan(1.0 / hw)
    assert value.real == pytest.approx(exact, rel=1e-10)


def test_complex_integrand():
    k = 10.0
    f = lambda x: np.exp(1j * k * x)
    value, _ = integrate_adaptive(f, 0.0, 2.0, abs_tol=1e-13)
    exact = (np.exp(1j * k * 2.0) - 1.0) / (1j * k)
    assert value.real == pytest.approx(exact.real, abs=1e-12)
    assert value.imag == pytest.approx(exact.imag, abs=1e-12)


def test_polynomial_is_exact_on_one_panel():
    # 7-point Gauss-Legendre integrates degree 13 exactly.
    f = lambda x: x**13
    value, err = integrate_adaptive(f, 0.0, 1.0, abs_tol=1e-9)
    assert value.real == pytest.approx(1.0 / 14.0, rel=1e-14)
    assert err < 1e-14


def test_tolerance_is_respected():
    f = lambda x: np.cos(7.0 * x) * np.exp(0.3 * x)
    reference, _ = quad(lambda x: math.cos(7.0 * x) * math.exp(0.3 * x), 0.0, 5.0,
                        epsabs=1e-14, limit=200)
    for tol in (1e-6, 1e-9, 1e-12):
        value, _ = integrate_adaptive(f, 0.0, 5.0, abs_tol=tol)
        assert abs(value.real - reference) <= tol


def test_deterministic_repeat():
    f = lambda x: np.exp(-(x**2)) * np.cos(13.0 * x)
    a = integrate_adaptive(f, -4.0, 4.0, abs_tol=1e-12)
    b = integrate_adaptive(f, -4.0, 4.0, abs_tol=1e-12)
    assert a == b


def test_panel_budget_failure():
    # A square-root kink keeps every refinement level busy, so a tiny
    # panel budget must run out instead of silently returning.
    f = lambda x: np.sqrt(np.abs(x - 1.0 / 3.0))
    with pytest.raises(NoConvergence):
        integrate_adaptive(f, 0.0, 1.0, abs_tol=1e-13, max_panels=8)


def test_limit_validation():
    f = lambda x: x
    with pytest.raises(ValueError):
        integrate_adaptive(f, 1.0, 1.0, abs_tol=1e-9)
    with pytest.raises(ValueError):
        integrate_adaptive(f, 2.0, 1.0, abs_tol=1e-9)
    with pytest.raises(ValueError):
        integrate_adaptive(f, 0.0, 1.0, abs_tol=0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(f, 0.0, 1.0, abs_tol=math.nan)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            integrate_adaptive(f, lo, hi, abs_tol=1e-9)


def test_non_finite_integrand_fails_on_first_round():
    # Bisection cannot cure a NaN: the first round (7 + 15 nodes of one
    # panel) must already raise instead of running down the budget.
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full(x.shape, np.nan)

    with pytest.raises(NonPhysical):
        integrate_adaptive(f, 0.0, 1.0, abs_tol=1e-9)
    assert sum(calls) <= 22

    with pytest.raises(NonPhysical):
        integrate_adaptive(lambda x: np.where(x == x[3], np.inf, x), 0.0, 1.0, abs_tol=1e-9)


def test_additivity_over_subintervals():
    f = lambda x: np.sin(x) ** 2 / (1.0 + x**2)
    whole, _ = integrate_adaptive(f, -3.0, 5.0, abs_tol=1e-12)
    left, _ = integrate_adaptive(f, -3.0, 1.0, abs_tol=1e-12)
    right, _ = integrate_adaptive(f, 1.0, 5.0, abs_tol=1e-12)
    assert whole.real == pytest.approx(left.real + right.real, abs=5e-12)
