"""Pair rates, side-band suppression, and the hardware calibration."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.constants import epsilon_0, hbar

from ringpair import (
    EmptyBand,
    MissingResonance,
    NonPhysical,
    ProcessConfig,
    PumpDrive,
    Resonance,
    calibrate_kcal,
    finesse,
    fsr,
    noise_budget,
    pair_rate_closed_form,
    pair_rate_integral,
    resolve_drive,
    resonance_comb,
    resonant_config,
    sideband_pair,
    sigma_from_finesse,
    suppression_factor,
)
from ringpair import kernels
from ringpair.errors import common_scale
from ringpair.quadrature import integrate_adaptive
from ringpair.record import replace
from ringpair.sfwm import per_second

from conftest import make_device, process_band

OMEGA_S = 1.2e15
FWHM = OMEGA_S / 5e4


def signal_line(omega0=OMEGA_S, q=5e4):
    return Resonance(owner=2, order=500, omega0=omega0, q_loaded=q, q_coupling=2.0 * q)


def drive(pn=1.0, t=1e-9, sigma=0.97):
    return PumpDrive(photon_number=pn, pulse_duration=t, self_coupling=sigma)


class TestSuppressionFactor:
    def test_anchor_points(self):
        assert suppression_factor(0.0, FWHM) == 1.0
        assert suppression_factor(FWHM, FWHM) == pytest.approx(0.5, rel=1e-15)
        assert suppression_factor(2.0 * FWHM, FWHM) == pytest.approx(0.2, rel=1e-15)

    def test_one_spectral_range_at_high_finesse(self):
        # Finesse 150: a full spectral range of detuning buys 1/(1+150^2).
        delta = 150.0 * FWHM
        got = suppression_factor(delta, FWHM)
        assert got == pytest.approx(1.0 / (1.0 + 150.0**2), rel=1e-12)
        assert got < 1e-4

    def test_even_and_monotone(self):
        xs = np.linspace(0.0, 20.0, 41)
        vals = [suppression_factor(x * FWHM, FWHM) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert suppression_factor(-3.0 * FWHM, FWHM) == suppression_factor(
            3.0 * FWHM, FWHM
        )

    @given(
        lw=st.floats(1e-3, 1e15),
        d1=st.floats(-1e150, 1e150),
        d2=st.floats(-1e150, 1e150),
    )
    def test_even_and_non_increasing_property(self, lw, d1, d2):
        assert suppression_factor(-d1, lw) == suppression_factor(d1, lw)
        near, far = sorted((d1, d2), key=abs)
        assert suppression_factor(near, lw) >= suppression_factor(far, lw)

    @pytest.mark.parametrize(
        "delta, lw, expected",
        [
            (1e200, FWHM, 0.0),  # (FWHM/1e200)^2 is below the smallest double
            (-1e200, FWHM, 0.0),
            (1e160, 1e150, 1e-20),
            (1e200, 1e200, 0.5),
            (-1.7e308, 1.7e308, 0.5),
            (1.3e154, 1.3e154, 0.5),  # the squares are finite, their sum is not
            (0.0, 1e300, 1.0),
            (0.0, 1e-200, 1.0),  # both squares underflow to 0
            (1e-200, 1e-200, 0.5),
            (5e-324, 5e-324, 0.5),
            (2e200, 1e200, 0.2),  # rescaled, with delta and linewidth apart
        ],
        ids=["huge-delta", "huge-negative-delta", "ratio-1e10", "equal-1e200", "equal-max",
             "sum-overflows", "huge-linewidth", "tiny-linewidth", "equal-1e-200",
             "equal-subnormal", "double-1e200"],
    )
    def test_limits_past_the_float_range(self, delta, lw, expected):
        # Each used to raise OverflowError or ZeroDivisionError, or (sum-
        # overflows) return 0.0 for a suppression of one half.
        assert suppression_factor(delta, lw) == pytest.approx(expected, rel=1e-15)

    @given(
        delta=st.floats(1e-320, 1e308),
        lw=st.floats(1e-320, 1e308),
        negative=st.booleans(),
    )
    def test_within_three_ulp_of_the_exact_quotient(self, delta, lw, negative):
        # The exact fwhm^2 / (delta^2 + fwhm^2) of the two doubles, as a
        # Fraction; the ulp is the subnormal spacing where it underflows.
        delta = -delta if negative else delta
        exact = Fraction(lw) ** 2 / (Fraction(delta) ** 2 + Fraction(lw) ** 2)
        got = suppression_factor(delta, lw)
        assert abs(Fraction(got) - exact) <= 3 * Fraction(math.ulp(float(exact)))

    def test_validation(self):
        with pytest.raises(ValueError):
            suppression_factor(1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                suppression_factor(1.0, bad)
            with pytest.raises(ValueError):
                suppression_factor(bad, FWHM)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, allow_infinity=False))
def test_common_scale_is_one_power_of_two(x, y):
    # suppression_factor, both rate routes and the coupler's cross power
    # form their squares from this pair.
    a, b, e = common_scale(x, y)
    if x == y == 0.0:
        assert (a, b, e) == (0.0, 0.0, 0)
        return
    assert 0.5 <= max(abs(a), b) < 1.0 and 0.25 <= a**2 + b**2 <= 2.0
    for scaled, value in ((a, x), (b, y)):
        if abs(scaled) >= sys.float_info.min:  # a normal double keeps every bit
            assert math.ldexp(scaled, e) == value


class TestSigma:
    def test_high_finesse_estimate(self):
        assert sigma_from_finesse(100.0) == pytest.approx(1.0 - math.pi / 100.0, rel=1e-15)

    def test_low_finesse_rejected(self):
        for bad in (3.0, math.nan, math.inf):
            with pytest.raises(NonPhysical):
                sigma_from_finesse(bad)

    def test_finesse_of_exactly_pi_rejected(self):
        # "At most pi": pi itself is outside the estimate's domain.
        with pytest.raises(NonPhysical, match="too low"):
            sigma_from_finesse(math.pi)
        assert sigma_from_finesse(math.nextafter(math.pi, 4.0)) > 0.0

    def test_saturated_finesse_rejected(self):
        # Past about 3e16, 1 - pi/finesse rounds to exactly 1.0, which
        # PumpDrive rejects as bad input; it is a model-domain failure.
        assert sigma_from_finesse(1e16) < 1.0
        for big in (1e17, 1e100, 1.7e308):
            with pytest.raises(NonPhysical, match="rounds to 1"):
                sigma_from_finesse(big)


class TestPumpDrive:
    def test_validation(self):
        with pytest.raises(ValueError):
            PumpDrive(photon_number=-1.0, pulse_duration=1e-9)
        with pytest.raises(ValueError):
            PumpDrive(photon_number=1.0, pulse_duration=0.0)
        for sigma in (0.0, 1.0):  # strictly between 0 and 1
            with pytest.raises(ValueError):
                PumpDrive(photon_number=1.0, pulse_duration=1e-9, self_coupling=sigma)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PumpDrive(photon_number=bad, pulse_duration=1e-9)
            with pytest.raises(ValueError):
                PumpDrive(photon_number=1.0, pulse_duration=bad)


def rate_prefactor(dr, omega_s, kcal, v_g):
    return (
        dr.photon_number**2
        * (hbar * omega_s) ** 2
        / dr.pulse_duration
        * 9.0
        * math.pi**3
        / (2.0 * epsilon_0**2)
        * kcal
        / v_g**4
        * (2.0 / (1.0 - dr.self_coupling)) ** 4
    )


def manual_rate(dr, res, delta, kcal, v_g, omega_s2=None, n=1_000_001):
    """Trapezoid reimplementation of the spectral-integral rate."""
    omega_s = res.omega0
    fwhm = res.linewidth
    if omega_s2 is None:
        omega_s2 = omega_s
    omega_p = 2.0 * omega_s - omega_s2 - delta
    lo = min(0.0, -delta) - 50.0 * fwhm
    hi = max(0.0, -delta) + 50.0 * fwhm
    u = np.linspace(lo, hi, n)
    spectral = np.trapezoid(
        kernels.pair_kernel(u, delta, fwhm, omega_s, omega_s2), u
    ) * omega_s2 * omega_p
    return rate_prefactor(dr, omega_s, kcal, v_g) * spectral


def quadrature_rate(dr, res, delta, kcal, v_g, omega_s2, tol):
    """The rate with the kernel integrated adaptively to ``tol * fwhm``.

    At tol = 1e-13 this is the reference for the exact integral; at
    tol = 1e-10 it is the route the rates used to take.
    """
    omega_s, fwhm = res.omega0, res.linewidth
    omega_p = 2.0 * omega_s - omega_s2 - delta
    lo = min(0.0, -delta) - 50.0 * fwhm
    hi = max(0.0, -delta) + 50.0 * fwhm
    value, _err = integrate_adaptive(
        lambda u: kernels.pair_kernel(u, delta, fwhm, omega_s, omega_s2), lo, hi,
        abs_tol=tol * fwhm,
    )
    return rate_prefactor(dr, omega_s, kcal, v_g) * value.real * omega_s2 * omega_p


class TestPairRateIntegral:
    @pytest.mark.parametrize("delta_scale", [0.0, 0.5, 1.0, 5.0])
    def test_matches_trapezoid_oracle(self, delta_scale):
        res = signal_line()
        dr = drive(pn=3.0)
        v_g = 7.1e7
        delta = delta_scale * FWHM
        got = pair_rate_integral(dr, res, delta, 2.5, v_g)
        assert got == pytest.approx(manual_rate(dr, res, delta, 2.5, v_g), rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        omega_s=st.floats(1.1e15, 1.3e15),
        q=st.floats(1e3, 1e6),
        delta_lw=st.one_of(st.just(0.0), st.floats(1e-12, 1e2), st.floats(-1e2, -1e-12)),
        offset=st.floats(-1e12, 1e12),
    )
    def test_exact_integral_matches_the_quadrature_oracle(self, omega_s, q, delta_lw, offset):
        res = signal_line(omega_s, q)
        fwhm = res.linewidth
        delta, omega_s2 = delta_lw * fwhm, omega_s + offset
        args = (drive(), res, delta, 1.0, 7.1e7, omega_s2)
        got = pair_rate_integral(*args)
        assert got == pytest.approx(quadrature_rate(*args, tol=1e-13), rel=1e-12)
        # The route the rates used to take asked for an absolute error of
        # 1e-10 * fwhm on the kernel integral; the exact value is inside
        # it. (That route is up to 1.6e-11 relative off near 80 linewidths,
        # so a relative bound of 1e-12 against it would not hold.)
        omega_p = 2.0 * omega_s - omega_s2 - delta
        scale = rate_prefactor(drive(), omega_s, 1.0, 7.1e7) * omega_s2 * omega_p
        assert abs(got - quadrature_rate(*args, tol=1e-10)) <= 1e-10 * fwhm * scale

    def test_exact_at_zero_mismatch(self):
        # At delta = 0 both lines coincide; the log1p(x)/x factor is 1.
        res = signal_line()
        got = pair_rate_integral(drive(), res, 0.0, 1.0, 7.1e7)
        near = pair_rate_integral(drive(), res, 1e-300, 1.0, 7.1e7)
        assert math.isfinite(got) and got == near
        ref = quadrature_rate(drive(), res, 0.0, 1.0, 7.1e7, OMEGA_S, tol=1e-13)
        assert got == pytest.approx(ref, rel=1e-14)

    def test_window_holds_at_every_accepted_q(self):
        # At delta = 1e10 rad/s the window edge d + 50 fwhm rounded to d
        # once 50 linewidths fell below an ulp of d: from a loaded Q of
        # about 1e24 the rate was half the closed form, and past 1e160 nan.
        # Far from the line, r = delta / fwhm >> 100, the window clips the
        # outer tails only: S / pi = 1/2 + atan(100) / pi, times the ratio
        # of the slow factors at the two lines, u = 0 and u = -delta,
        # (w_s^2 - delta^2/2) / (w_s (w_s - delta)).
        delta = 1e10
        limit = ((0.5 + math.atan(100.0) / math.pi)
                 * (OMEGA_S**2 - delta**2 / 2.0) / (OMEGA_S * (OMEGA_S - delta)))
        checked = 0
        for k in range(6, 301):
            q = 10.0**k
            res = signal_line(q=q)
            if 0.25 * (OMEGA_S / q) ** 2 == 0.0:
                for rate in (pair_rate_integral, pair_rate_closed_form):
                    with pytest.raises(NonPhysical, match="underflows when squared"):
                        rate(drive(), res, delta, 1.0, 7.1e7)
                continue
            # The rate goes as fwhm^3 * pn^2 * kcal here; pn and kcal grow
            # with Q so that it stays in the float range.
            scale = q / 1e6
            args = (drive(pn=scale**0.75), res, delta, scale**1.5, 7.1e7)
            ratio = pair_rate_integral(*args) / pair_rate_closed_form(*args)
            if delta / res.linewidth > 1e15:
                assert ratio == pytest.approx(limit, rel=1e-13), k
                checked += 1
            else:
                assert 0.99 < ratio < 1.0, k
        assert checked > 150

    def test_zero_mismatch_rate_goes_as_the_linewidth_at_any_q(self):
        # At delta = 0 the rate is (h/2)[ab (G + S) - h^2 (S - G)], and from
        # Q = 1e8 on the h^2 term is below 1e-16 of the first, so the rate
        # goes as fwhm down to the narrowest line whose h^2 is nonzero.
        ref = pair_rate_integral(drive(), signal_line(q=1e8), 0.0, 1.0, 7.1e7)
        for k in range(8, 177):
            q = 10.0**k
            got = pair_rate_integral(drive(), signal_line(q=q), 0.0, 1.0, 7.1e7)
            assert got == pytest.approx(ref * 1e8 / q, rel=1e-14, abs=0.0), k
        with pytest.raises(NonPhysical, match="underflows when squared"):
            pair_rate_integral(drive(), signal_line(q=1e177), 0.0, 1.0, 7.1e7)

    # The call of the report that found them; the partner's frequency
    # w_s2 + delta is negative at each, and the slow factor with it.
    @pytest.mark.parametrize("delta", [-1.69e15, -1.70e15, -1e16, -1e150])
    def test_partner_below_zero_frequency_is_refused(self, delta):
        # The route gave +1.007, -0.411, -116.4 and -119.9 pairs here.
        res = Resonance(owner=2, order=5, omega0=1.2e15, q_loaded=5e4, q_coupling=1e5)
        pulse = PumpDrive(1.0, 1e-9, 0.97)
        with pytest.raises(NonPhysical, match="process frequencies are not positive"):
            pair_rate_integral(pulse, res, delta, 1.0, 7.1e7)
        assert pair_rate_closed_form(pulse, res, delta, 1.0, 7.1e7) > 0.0

    @pytest.mark.parametrize(
        "delta, omega_s2",
        [(-1.2e15, None), (-2e14, 2.4e15), (-2e14, 2.5e15)],
        ids=["partner-at-zero", "second-at-twice-the-signal", "second-past-it"],
    )
    def test_a_line_where_the_slow_factor_is_not_positive_is_refused(self, delta, omega_s2):
        # w (2 w_s - w) is 0 at one line in the first two cases and < 0 in
        # the third, where the route gave -59.9 pairs; the pump
        # 2 w_s - w_s2 - delta is positive in all three.
        with pytest.raises(NonPhysical, match="process frequencies are not positive"):
            pair_rate_integral(drive(), signal_line(), delta, 1.0, 7.1e7, omega_s2)

    @settings(max_examples=400, deadline=None)
    @given(
        omega_s=st.floats(1e12, 1e17),
        q=st.floats(200.0, 1e9),
        s2=st.floats(1e-3, 2.5),
        near=st.sampled_from(["none", "partner", "second", "pump"]),
        x=st.floats(-3.0, 3.0),
    )
    def test_every_returned_rate_is_non_negative(self, omega_s, q, s2, near, x):
        # x is the detuning in signal frequencies, or its distance in
        # linewidths from the edge where the named frequency reaches 0.
        res = signal_line(omega_s, q)
        omega_s2, fwhm = s2 * omega_s, res.linewidth
        if near == "second":
            omega_s2 = 2.0 * omega_s - x * fwhm
        delta = {"none": x * omega_s, "partner": x * fwhm - omega_s2,
                 "second": x * omega_s, "pump": 2.0 * omega_s - omega_s2 - x * fwhm}[near]
        assume(omega_s2 > 0.0)
        args = (drive(), res, delta, 1.0, 7.1e7, omega_s2)
        if not min(omega_s2 + delta, 2.0 * omega_s - omega_s2,
                   2.0 * omega_s - omega_s2 - delta) > 0.0:
            with pytest.raises(NonPhysical, match="process frequencies are not positive"):
                pair_rate_integral(*args)
            return
        assert pair_rate_integral(*args) >= 0.0

    def test_zero_mismatch_matches_closed_form(self):
        res = signal_line()
        dr = drive()
        got = pair_rate_integral(dr, res, 0.0, 1.0, 7.1e7)
        ref = pair_rate_closed_form(dr, res, 0.0, 1.0, 7.1e7)
        assert got == pytest.approx(ref, rel=5e-3)

    def test_kernel_integral_is_quarter_pi_linewidth(self):
        # At zero mismatch the joint-line-shape integral is pi*fwhm/4.
        u = np.linspace(-50.0 * FWHM, 50.0 * FWHM, 2_000_001)
        got = np.trapezoid(kernels.pair_kernel(u, 0.0, FWHM, OMEGA_S, OMEGA_S), u)
        assert got == pytest.approx(math.pi * FWHM / 4.0, rel=5e-3)

    def test_detuning_dependence_is_lorentzian(self):
        res = signal_line()
        dr = drive()
        v_g = 7.1e7
        base = pair_rate_integral(dr, res, 0.0, 1.0, v_g)
        for scale in (0.0, 0.5, 1.0, 5.0, 50.0):
            delta = scale * FWHM
            ratio = pair_rate_integral(dr, res, delta, 1.0, v_g) / base
            expected = FWHM**2 / (delta**2 + FWHM**2)
            assert ratio == pytest.approx(expected, rel=0.01)

    def test_closed_form_formula(self):
        res = signal_line()
        dr = drive(pn=2.0, t=2e-9, sigma=0.96)
        delta = 1.7 * FWHM
        v_g = 7.1e7
        got = pair_rate_closed_form(dr, res, delta, 3.0, v_g)
        spectral = (
            (math.pi / 4.0) * FWHM**3 / (delta**2 + FWHM**2) * OMEGA_S * (OMEGA_S - delta)
        )
        pref = (
            4.0
            * (hbar * OMEGA_S) ** 2
            / 2e-9
            * 9.0
            * math.pi**3
            / (2.0 * epsilon_0**2)
            * 3.0
            / v_g**4
            * (2.0 / 0.04) ** 4
        )
        assert got == pytest.approx(pref * spectral, rel=1e-12)

    def test_quadratic_in_photon_number(self):
        res = signal_line()
        v_g = 7.1e7
        r1 = pair_rate_integral(drive(pn=1.5), res, 0.0, 1.0, v_g)
        r2 = pair_rate_integral(drive(pn=3.0), res, 0.0, 1.0, v_g)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-12)
        assert pair_rate_integral(drive(pn=0.0), res, 0.0, 1.0, v_g) == 0.0

    def test_sigma_can_come_from_finesse(self, sample_device):
        # Only resolve_drive derives sigma; both routes reject a drive without one.
        cfg = resonant_config(sample_device, process_band(sample_device))
        dr = PumpDrive(photon_number=1.0, pulse_duration=1e-9)
        fin = finesse(sample_device.ring1, sample_device.waveguide, cfg.res_p1.omega0)
        resolved = resolve_drive(sample_device, dr, cfg)
        pinned = drive(sigma=sigma_from_finesse(fin))
        res = signal_line()
        for rate in (pair_rate_integral, pair_rate_closed_form):
            assert rate(resolved, res, 0.0, 1.0, 7.1e7) == rate(pinned, res, 0.0, 1.0, 7.1e7)
            with pytest.raises(ValueError, match="self_coupling"):
                rate(dr, res, 0.0, 1.0, 7.1e7)

    def test_validation(self):
        res = signal_line()
        with pytest.raises(NonPhysical):
            pair_rate_integral(drive(), res, 0.0, 0.0, 7.1e7)
        with pytest.raises(ValueError):
            pair_rate_integral(drive(), res, 0.0, 1.0, -1.0)
        broad = Resonance(owner=2, order=5, omega0=1e12, q_loaded=50.0, q_coupling=100.0)
        with pytest.raises(NonPhysical):
            pair_rate_integral(drive(), broad, 0.0, 1.0, 7.1e7)

    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_both_routes_reject_the_same_inputs(self, rate, monkeypatch):
        # Validation must run before any quadrature.
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrated before validating")

        monkeypatch.setattr("ringpair.quadrature.integrate_adaptive", no_quadrature)
        res = signal_line()
        unpinned = PumpDrive(photon_number=1.0, pulse_duration=1e-9)
        with pytest.raises(NonPhysical):
            rate(drive(), res, 0.0, 0.0, 7.1e7)
        for v_g in (0.0, -7e7, math.nan):
            with pytest.raises(ValueError):
                rate(drive(), res, 0.0, 1.0, v_g)
        with pytest.raises(ValueError):
            rate(unpinned, res, 0.0, 1.0, 7.1e7)


def synth_comb(spacing, n=3, center=OMEGA_S, shift=0.0):
    return [
        Resonance(
            owner=2,
            order=500 + i,
            omega0=center + i * spacing + shift,
            q_loaded=5e4,
            q_coupling=1e5,
        )
        for i in range(-n, n + 1)
    ]


def synth_cfg(pump_spacing, center=OMEGA_S):
    res_s = signal_line(center)
    p1 = Resonance(
        owner=1, order=301, omega0=center + pump_spacing, q_loaded=5e4, q_coupling=1e5
    )
    p2 = Resonance(
        owner=1, order=299, omega0=center - pump_spacing, q_loaded=5e4, q_coupling=1e5
    )
    return ProcessConfig(res_p1=p1, res_p2=p2, res_s=res_s)


def comb_span(comb):
    """The band from the lowest to the highest line of ``comb``."""
    freqs = [r.omega0 for r in comb]
    return (min(freqs), max(freqs))


def detunings(comb, cfg):
    """The (pump-1, pump-2) side-band detunings of ``sideband_pair`` over the comb's span."""
    return sideband_pair(comb, cfg, comb_span(comb))[0]


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=("nan", "+inf", "-inf"))
def test_per_second_rejects_non_finite_beta_sq(bad):
    with pytest.raises(ValueError, match="must be finite"):
        per_second(bad, 1e-9)


def test_per_second_refuses_only_a_rate_that_underflows_to_zero():
    with pytest.raises(NonPhysical, match="underflows to 0"):
        per_second(2.4770337491973606e-290, 1e300)
    assert per_second(0.0, 1e300) == 0.0
    # A subnormal quotient keeps the digits it has, as finite_product does.
    assert per_second(1e-300, 1e10) == 1e-300 / 1e10 > 0.0


class TestSidebandDetuning:
    def test_aligned_combs_conserve_energy(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        comb = synth_comb(spacing)
        d1, d2 = detunings(comb, cfg)
        assert d1 == pytest.approx(0.0, abs=1.0)
        assert d2 == pytest.approx(0.0, abs=1.0)

    def test_partner_displacement_moves_delta_one_to_one(self):
        # A rigid shift of the comb moves both partners, and so both
        # detunings, by the shift.
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        base = detunings(synth_comb(spacing), cfg)
        for eps in (1e9, -3e9, 2.4e10):
            shifted = detunings(synth_comb(spacing, shift=eps), cfg)
            for got, ref in zip(shifted, base):
                assert got == pytest.approx(ref - eps, abs=1.0)

    def test_partners_straddle_the_signal(self):
        # Pump 1 sits above the signal, so its partner is the line
        # above; pump 2 mirrors below.
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=1.3 * spacing)
        comb = synth_comb(spacing)
        d1 = 2.0 * cfg.res_p1.omega0 - cfg.res_s.omega0
        d2 = 2.0 * cfg.res_p2.omega0 - cfg.res_s.omega0
        got1, got2 = detunings(comb, cfg)
        assert got1 == pytest.approx(d1 - comb[3 + 3].omega0, abs=1.0)
        assert got2 == pytest.approx(d2 - comb[3 - 3].omega0, abs=1.0)

    def test_missing_partner(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=5.0 * spacing)  # target beyond the comb
        with pytest.raises(MissingResonance):
            detunings(synth_comb(spacing), cfg)

    def test_partner_one_spacing_past_the_comb_edge(self):
        # Pump 1's side-band point lies one spacing above the top line,
        # outside the band, where an unsolved line could sit on it.
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        with pytest.raises(MissingResonance, match="side-band point"):
            detunings(synth_comb(spacing)[:5], cfg)
        assert detunings(synth_comb(spacing)[:6], cfg) == pytest.approx((0.0, 0.0), abs=1.0)

    def test_lone_signal_line(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        with pytest.raises(MissingResonance):
            detunings([cfg.res_s], cfg)

    def test_a_line_within_1e_9_of_the_signal_is_the_signal(self):
        # At omega_s = 2**20 / 1e-9 the tolerance 1e-9 * omega_s is exactly
        # 2**20 rad/s, and so is the offset of a line 2**20 above the signal.
        # That line is excluded with the signal; one a float step further
        # out is the partner.
        omega_s = 1.048576e15
        assert 1e-9 * omega_s == 2.0**20
        cfg = synth_cfg(pump_spacing=2.4e12, center=omega_s)
        band = (0.5 * omega_s, 2.0 * omega_s)
        at_tol = replace(cfg.res_s, order=501, omega0=omega_s + 2.0**20)
        assert at_tol.omega0 - omega_s == 2.0**20
        with pytest.raises(MissingResonance, match="no line besides the signal"):
            sideband_pair([cfg.res_s, at_tol], cfg, band)
        past = replace(at_tol, omega0=math.nextafter(at_tol.omega0, math.inf))
        assert sideband_pair([cfg.res_s, past], cfg, band)[2] == (past, past)

    def test_side_band_point_nearest_the_signal_takes_the_line_beyond(self):
        # Pumps 0.1 spacing off the signal put each side-band point 0.2
        # spacing from it: the nearest line is the excluded signal, and
        # the partner is the next line out, 0.8 spacing away. The band
        # reaches 2.8 spacings past the point, so no unsolved line is
        # nearer.
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=0.1 * spacing)
        comb = synth_comb(spacing)
        deltas, _sups, partners = sideband_pair(comb, cfg, comb_span(comb))
        assert partners == (comb[4], comb[2])
        assert deltas[0] == pytest.approx(-0.8 * spacing, rel=1e-12)
        assert deltas[1] == pytest.approx(0.8 * spacing, rel=1e-12)

    def test_refused_exactly_when_the_band_edge_is_nearer_than_the_partner(self):
        # Pump 1's side-band point sits 0.4 spacing below the top line.
        # A band whose top edge lies at or past that line keeps it; one
        # that ends nearer the point than the line could hide a nearer
        # line past its edge.
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=1.3 * spacing)
        comb = synth_comb(spacing)
        target = 2.0 * cfg.res_p1.omega0 - cfg.res_s.omega0
        lo, top = comb_span(comb)
        for hi in (top, top + spacing):
            assert sideband_pair(comb, cfg, (lo, hi))[2][0] is comb[6]
        # A top edge just under that line leaves it out of the comb, and
        # the next line down is 0.6 spacing off.
        with pytest.raises(MissingResonance, match=re.escape(f"{target:.6e}")):
            sideband_pair(comb[:6], cfg, (lo, math.nextafter(top, 0.0)))
        # The lower edge counts too: here it is 0.39 spacing under the point.
        with pytest.raises(MissingResonance, match=re.escape(f"{target:.6e}")):
            sideband_pair(comb[6:], cfg, (target - 0.39 * spacing, top))

    @settings(max_examples=150, deadline=None)
    @given(
        l2_scale=st.floats(1.02, 1.5),
        heater2=st.floats(0.0, 1e12),
        below=st.floats(1.0, 8.0),
        above=st.floats(1.0, 8.0),
        separation=st.integers(1, 3),
    )
    def test_partner_is_the_nearest_line_of_a_wider_comb(
        self, l2_scale, heater2, below, above, separation
    ):
        # Whenever the band's comb gives a partner, a comb two spacings
        # wider than both side-band points has no nearer line.
        dev = make_device(l2_scale=l2_scale, heater2=heater2)
        wg = dev.waveguide
        f1 = fsr(dev.ring1, wg, wg.omega_ref)
        band = (wg.omega_ref - below * f1, wg.omega_ref + above * f1)
        try:  # too few lines for the pump pair, or no partner over the band
            cfg = resonant_config(dev, band, pump_separation=separation)
            comb2 = resonance_comb(dev.ring2, wg, band, owner=2)
            _deltas, _sups, partners = sideband_pair(comb2, cfg, band)
        except (ValueError, EmptyBand, MissingResonance):
            return
        omega_s = cfg.res_s.omega0
        targets = [2.0 * p.omega0 - omega_s for p in (cfg.res_p1, cfg.res_p2)]
        f2 = fsr(dev.ring2, wg, omega_s)
        wide = resonance_comb(
            dev.ring2, wg, (min(targets) - 2.0 * f2, max(targets) + 2.0 * f2), owner=2
        )
        lines = [r for r in wide if r.order != cfg.res_s.order]
        for target, partner in zip(targets, partners):
            assert partner == min(lines, key=lambda r: abs(r.omega0 - target))

    @pytest.mark.parametrize("band", [(-1.0, 1.3e15), (1.1e15, 0.0)])
    def test_band_edges_must_be_positive(self, band):
        # Non-finite edges are covered by test_validation's argument table.
        spacing = 2.4e12
        with pytest.raises(ValueError, match="band edge must be finite and positive"):
            sideband_pair(synth_comb(spacing), synth_cfg(spacing), band)


class TestNoiseBudget:
    def test_report_structure(self, sample_device):
        band = process_band(sample_device)
        cfg = resonant_config(sample_device, band)
        dr = PumpDrive(photon_number=5e4, pulse_duration=1e-9)
        rep = noise_budget(sample_device, dr, cfg, band=band)
        assert rep.beta_sq_signal > 0.0
        assert all(b > 0.0 for b in rep.beta_sq_parasitic)
        assert all(0.0 < s <= 1.0 for s in rep.suppression)
        for s, g in zip(rep.suppression, rep.snr_improvement):
            assert g == pytest.approx(1.0 / s, rel=1e-12)
        assert 0.0 < rep.sigma < 1.0
        assert per_second(rep.beta_sq_signal, rep.pulse_duration) == pytest.approx(
            rep.beta_sq_signal / 1e-9, rel=1e-15
        )
        assert any("kcal = 1" in n for n in rep.notes)
        assert any("finesse" in n for n in rep.notes)

    def test_suppression_past_the_float_range_is_non_physical(self, sample_device):
        # Ring-2 Q of 1e170 puts the partners about 1e164 linewidths off:
        # the rates are finite, but a suppression rounds to 0 and its SNR
        # improvement is infinite.
        ring2 = replace(sample_device.ring2, q_intrinsic=2e170, q_coupling=2e170)
        dev = replace(sample_device, ring2=ring2)
        band = process_band(dev)
        cfg = resonant_config(dev, band)
        dr = PumpDrive(photon_number=1e100, pulse_duration=1e-9)
        deltas, sups, _ = sideband_pair(resonance_comb(ring2, dev.waveguide, band, owner=2),
                                        cfg, band)
        assert 0.0 in sups
        assert pair_rate_integral(resolve_drive(dev, dr, cfg), cfg.res_s, deltas[0], 1e100,
                                  dev.waveguide.v_g) > 0.0
        with pytest.raises(NonPhysical, match="SNR improvement"):
            noise_budget(dev, dr, cfg, band=band, kcal=1e100)

    def test_suppression_consistent_with_detunings(self, sample_device):
        band = process_band(sample_device)
        cfg = resonant_config(sample_device, band)
        dr = PumpDrive(photon_number=5e4, pulse_duration=1e-9)
        rep = noise_budget(sample_device, dr, cfg, band=band)
        lw = cfg.res_s.linewidth
        for delta, sup in zip(rep.detuning_delta, rep.suppression):
            assert sup == pytest.approx(suppression_factor(delta, lw), rel=1e-12)

    def test_explicit_sigma_skips_the_finesse_note(self, sample_device):
        band = process_band(sample_device)
        cfg = resonant_config(sample_device, band)
        dr = PumpDrive(photon_number=5e4, pulse_duration=1e-9, self_coupling=0.95)
        rep = noise_budget(sample_device, dr, cfg, band=band)
        assert rep.sigma == 0.95
        assert not any("finesse" in n for n in rep.notes)

    def test_zero_drive_zero_rates(self, sample_device):
        band = process_band(sample_device)
        cfg = resonant_config(sample_device, band)
        dr = PumpDrive(photon_number=0.0, pulse_duration=1e-9)
        rep = noise_budget(sample_device, dr, cfg, band=band)
        assert rep.beta_sq_signal == 0.0
        assert rep.beta_sq_parasitic == (0.0, 0.0)


class TestCalibration:
    def test_round_trip(self, sample_device):
        cfg = resonant_config(sample_device, process_band(sample_device))
        wg = sample_device.waveguide
        target, power = 1e6, 5e-4
        kcal = calibrate_kcal(sample_device, target, power, cfg)
        assert kcal > 0.0
        t = 1e-9
        omega_p = 0.5 * (cfg.res_p1.omega0 + cfg.res_p2.omega0)
        dr = PumpDrive(
            photon_number=power * t / (hbar * omega_p),
            pulse_duration=t,
            self_coupling=sigma_from_finesse(
                finesse(sample_device.ring1, wg, cfg.res_p1.omega0)
            ),
        )
        delta = cfg.res_p1.omega0 + cfg.res_p2.omega0 - 2.0 * cfg.res_s.omega0
        rate = pair_rate_integral(dr, cfg.res_s, delta, kcal, wg.v_g) / t
        assert rate == pytest.approx(target, rel=1e-9)

    def test_quartic_power_law(self, sample_device):
        # The rate scales as the fourth power of the pump amplitude, so
        # the calibration constant falls as power squared.
        cfg = resonant_config(sample_device, process_band(sample_device))
        k1 = calibrate_kcal(sample_device, 1e6, 5e-4, cfg)
        k2 = calibrate_kcal(sample_device, 1e6, 1e-3, cfg)
        assert k2 == pytest.approx(k1 / 4.0, rel=1e-9)
        exponent = math.log(k1 / k2) / math.log(2.0)
        assert exponent == pytest.approx(2.0, abs=1e-9)

    def test_validation(self, sample_device):
        cfg = resonant_config(sample_device, process_band(sample_device))
        with pytest.raises(NonPhysical):
            calibrate_kcal(sample_device, 0.0, 5e-4, cfg)
        with pytest.raises(NonPhysical):
            calibrate_kcal(sample_device, 1e6, -1.0, cfg)
        for bad in (math.nan, math.inf):
            with pytest.raises(NonPhysical):
                calibrate_kcal(sample_device, bad, 5e-4, cfg)
            with pytest.raises(NonPhysical):
                calibrate_kcal(sample_device, 1e6, bad, cfg)

    def test_a_constant_past_the_float_range_is_non_physical(self, sample_device):
        # 1e308 pairs per second at 1e-20 W needs K near 1.7e309: it came
        # back as inf, which noise_budget refused one call later.
        cfg = resonant_config(sample_device, (2.0 * math.pi * 192e12, 2.0 * math.pi * 195e12))
        assert calibrate_kcal(sample_device, 1e308, 1e-18, cfg) == pytest.approx(1.66e305,
                                                                                 rel=1e-3)
        with pytest.raises(NonPhysical, match="kcal must be finite"):
            calibrate_kcal(sample_device, 1e308, 1e-20, cfg)

    def test_a_photon_number_that_rounds_to_zero_gives_no_pairs(self, sample_device):
        # 5e-324 W is positive, but over the 1 ns calibration pulse it holds
        # 0.0 photons, so the rate at unit calibration is exactly 0.
        cfg = resonant_config(sample_device, process_band(sample_device))
        assert 5e-324 * 1e-9 == 0.0
        with pytest.raises(NonPhysical, match="no pairs at unit calibration"):
            calibrate_kcal(sample_device, 1e6, 5e-324, cfg)


class TestSharedHelpers:
    def test_pump_power(self):
        dr = PumpDrive(photon_number=2e4, pulse_duration=1e-9)
        assert dr.power(OMEGA_S) == pytest.approx(2e4 * hbar * OMEGA_S / 1e-9, rel=1e-12)

    def test_resolve_drive(self, sample_device):
        cfg = resonant_config(sample_device, process_band(sample_device))
        pinned = drive(sigma=0.9)
        assert resolve_drive(sample_device, pinned, cfg) is pinned
        unpinned = PumpDrive(photon_number=3.0, pulse_duration=2e-9)
        fin = finesse(sample_device.ring1, sample_device.waveguide, cfg.res_p1.omega0)
        assert resolve_drive(sample_device, unpinned, cfg) == replace(
            unpinned, self_coupling=sigma_from_finesse(fin)
        )

    def test_sideband_pair_matches_single_processes(self, sample_device):
        band = process_band(sample_device)
        cfg = resonant_config(sample_device, band)
        comb2 = resonance_comb(sample_device.ring2, sample_device.waveguide, band, owner=2)
        deltas, sups, partners = sideband_pair(comb2, cfg, band)
        omega_s = cfg.res_s.omega0
        for i, res_p in enumerate((cfg.res_p1, cfg.res_p2)):
            assert sups[i] == suppression_factor(deltas[i], cfg.res_s.linewidth)
            assert partners[i] in comb2
            assert deltas[i] == 2.0 * res_p.omega0 - omega_s - partners[i].omega0
        assert partners[0].omega0 > omega_s > partners[1].omega0

    def test_noise_budget_reports_the_pair(self, sample_device):
        band = process_band(sample_device)
        cfg = resonant_config(sample_device, band)
        comb2 = resonance_comb(sample_device.ring2, sample_device.waveguide, band, owner=2)
        rep = noise_budget(sample_device, drive(), cfg, band=band)
        deltas, sups, _partners = sideband_pair(comb2, cfg, band)
        assert (rep.detuning_delta, rep.suppression) == (deltas, sups)

    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_both_routes_reject_a_zero_squared_linewidth(self, rate):
        # fwhm 2.4e-190 rad/s: h^2 underflows, and d^2 + h^2 would be 0 at delta = 0.
        narrow = signal_line(q=5e204)
        with pytest.raises(NonPhysical, match="underflows"):
            rate(drive(), narrow, 0.0, 1.0, 7.1e7)

    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_both_routes_refuse_a_zero_pump_frequency(self, rate):
        # delta = omega_s puts the pump at 2 omega_s - omega_s - delta = 0 exactly.
        with pytest.raises(NonPhysical, match="not positive"):
            rate(drive(), signal_line(), OMEGA_S, 1.0, 7.1e7)

    @pytest.mark.parametrize("pn, phrase", [(1e150, "pair rate"), (1e200, "prefactor")])
    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_overflowing_rate_is_non_physical(self, rate, pn, phrase):
        # 1e150 photons give an infinite rate; 1e200 overflow pn**2 itself.
        with pytest.raises(NonPhysical, match=phrase):
            rate(drive(pn=pn), signal_line(), 0.0, 1.0, 7.1e7)

    @pytest.mark.parametrize(
        "res, delta", [(signal_line(omega0=1e110), 0.0)], ids=["fwhm-cubed"]
    )
    def test_closed_form_refuses_overflowing_powers(self, res, delta):
        # fwhm**3 used to raise an OverflowError traceback; the rate it
        # gives, about fwhm * omega_s**2, is past the float range.
        with pytest.raises(NonPhysical, match="overflows the float range"):
            pair_rate_closed_form(drive(), res, delta, 1.0, 7.1e7)

    @pytest.mark.parametrize(
        "delta", [-1e200, -1.4e154], ids=["delta-squared", "delta-squared-edge"]
    )
    def test_closed_form_past_the_squarable_range(self, delta):
        # delta**2 overflows, and the closed form refused these finite rates.
        got = pair_rate_closed_form(drive(), signal_line(), delta, 1.0, 7.1e7)
        at_zero = pair_rate_closed_form(drive(), signal_line(), 0.0, 1.0, 7.1e7)
        assert got / at_zero == pytest.approx(FWHM**2 / -delta / OMEGA_S, rel=1e-14)

    @given(
        omega_s=st.floats(1e12, 1e16),
        q=st.floats(1e4, 1e15),
        x=st.floats(-1e300, 1e3),
    )
    def test_closed_form_follows_the_exact_suppression(self, omega_s, q, x):
        # rate(delta) / rate(0) = fwhm^2 / (delta^2 + fwhm^2) * (omega_s - delta) / omega_s
        # exactly, for delta from 1e300 linewidths below the line to 1e3 above.
        res = signal_line(omega0=omega_s, q=q)
        fwhm = res.linewidth
        delta = x * fwhm
        assume(math.isfinite(delta))
        dr = drive(pn=1e100)
        got = Fraction(pair_rate_closed_form(dr, res, delta, 1.0, 7.1e7)) / Fraction(
            pair_rate_closed_form(dr, res, 0.0, 1.0, 7.1e7)
        )
        f, d, w = Fraction(fwhm), Fraction(delta), Fraction(omega_s)
        exact = f**2 / (d**2 + f**2) * (w - d) / w
        assert abs(got / exact - 1) <= 1e-14

    def test_closed_form_below_the_overflow(self):
        delta = -1e150
        got = pair_rate_closed_form(drive(), signal_line(), delta, 1.0, 7.1e7)
        spectral = (math.pi / 4.0) * FWHM**3 / delta**2 * OMEGA_S * (OMEGA_S - delta)
        assert got == pytest.approx(rate_prefactor(drive(), OMEGA_S, 1.0, 7.1e7) * spectral,
                                    rel=1e-12)

    @pytest.mark.parametrize("q", [50.0, 1e-200, 100.0], ids=["q-50", "q-1e-200", "q-100"])
    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_both_routes_reject_broad_lines(self, rate, q):
        # The closed form used to accept them, and its fwhm**3 overflowed.
        # At q = 100 the linewidth is exactly a hundredth of the center.
        broad = Resonance(owner=2, order=5, omega0=1e12, q_loaded=q, q_coupling=2.0 * q)
        with pytest.raises(NonPhysical, match="narrow-resonance"):
            rate(drive(), broad, 0.0, 1.0, 7.1e7)


SMALLEST = Fraction(2) ** -1074
TOP = Fraction(sys.float_info.max)
# Each route rounds about 14 steps of its scaled product, and the
# photon number's square once more; a scaled rate and the unit rate it is
# compared with are each within 16 roundings of 2**-53 of their exact values.
RATE_RTOL = Fraction(4e-15)


class TestScaledRates:
    """Both routes multiply the prefactor and the spectral factor as one
    scaled product, so a rate is exactly quadratic in the photon number
    and linear in kcal however far they are from 1, and fails only when
    the rate itself leaves the float range."""

    @settings(max_examples=300, deadline=None)
    @given(
        rate=st.sampled_from([pair_rate_integral, pair_rate_closed_form]),
        k_pn=st.integers(-170, 250),
        k_kcal=st.integers(-320, 300),
        delta_lw=st.floats(-30.0, 30.0),
    )
    def test_matches_the_scaled_unit_rate(self, rate, k_pn, k_kcal, delta_lw):
        res, delta = signal_line(), delta_lw * FWHM
        pn = float(Fraction(5) * Fraction(10) ** (4 + k_pn))
        kcal = float(Fraction(10) ** k_kcal)
        unit = rate(drive(pn=5e4), res, delta, 1.0, 7.1e7)
        exact = Fraction(unit) * (Fraction(pn) / Fraction(5e4)) ** 2 * Fraction(kcal)
        args = (drive(pn=pn), res, delta, kcal, 7.1e7)
        if exact > TOP * (1 + RATE_RTOL):
            with pytest.raises(NonPhysical, match="overflows the float range"):
                rate(*args)
            return
        assume(exact < TOP * (1 - RATE_RTOL))
        if exact < SMALLEST / 2 * (1 - RATE_RTOL):
            with pytest.raises(NonPhysical, match="underflows to 0"):
                rate(*args)
            return
        assume(exact > SMALLEST / 2 * (1 + RATE_RTOL))
        # A subnormal rate keeps the digits it has: one more rounding, to a
        # multiple of the smallest subnormal.
        assert abs(Fraction(rate(*args)) - exact) <= RATE_RTOL * exact + SMALLEST / 2
