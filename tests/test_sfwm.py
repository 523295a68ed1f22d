"""Pair rates, side-band suppression, and the hardware calibration."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import epsilon_0, hbar

from ringpair import (
    MissingResonance,
    NonPhysical,
    ProcessConfig,
    PumpDrive,
    Resonance,
    calibrate_kcal,
    finesse,
    noise_budget,
    pair_rate_closed_form,
    pair_rate_integral,
    resolve_drive,
    resonance_comb,
    resonant_config,
    sideband_detuning,
    sideband_pair,
    sigma_from_finesse,
    suppression_factor,
)
from ringpair import integrate_adaptive, kernels

from conftest import process_band

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
        ],
        ids=["huge-delta", "huge-negative-delta", "ratio-1e10", "equal-1e200", "equal-max",
             "sum-overflows", "huge-linewidth", "tiny-linewidth", "equal-1e-200",
             "equal-subnormal"],
    )
    def test_limits_past_the_float_range(self, delta, lw, expected):
        # Each used to raise OverflowError or ZeroDivisionError, or (sum-
        # overflows) return 0.0 for a suppression of one half.
        assert suppression_factor(delta, lw) == pytest.approx(expected, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            suppression_factor(1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                suppression_factor(1.0, bad)
            with pytest.raises(ValueError):
                suppression_factor(bad, FWHM)


class TestSigma:
    def test_high_finesse_estimate(self):
        assert sigma_from_finesse(100.0) == pytest.approx(1.0 - math.pi / 100.0, rel=1e-15)

    def test_low_finesse_rejected(self):
        for bad in (3.0, math.nan, math.inf):
            with pytest.raises(NonPhysical):
                sigma_from_finesse(bad)

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
        with pytest.raises(ValueError):
            PumpDrive(photon_number=1.0, pulse_duration=1e-9, self_coupling=1.0)
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
    return ProcessConfig(
        omega1=res_s.omega0,
        omega2=res_s.omega0,
        omega3=p1.omega0,
        omega4=p2.omega0,
        res_p1=p1,
        res_p2=p2,
        res_s=res_s,
    )


class TestSidebandDetuning:
    def test_aligned_combs_conserve_energy(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        comb = synth_comb(spacing)
        assert sideband_detuning(comb, cfg, pump=1) == pytest.approx(0.0, abs=1.0)
        assert sideband_detuning(comb, cfg, pump=2) == pytest.approx(0.0, abs=1.0)

    def test_partner_displacement_moves_delta_one_to_one(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        base = sideband_detuning(synth_comb(spacing), cfg, pump=1)
        for eps in (1e9, -3e9, 2.4e10):
            shifted = sideband_detuning(synth_comb(spacing, shift=eps), cfg, pump=1)
            assert shifted == pytest.approx(base - eps, abs=1.0)

    def test_partners_straddle_the_signal(self):
        # Pump 1 sits above the signal, so its partner is the line
        # above; pump 2 mirrors below.
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=1.3 * spacing)
        comb = synth_comb(spacing)
        d1 = 2.0 * cfg.res_p1.omega0 - cfg.res_s.omega0
        d2 = 2.0 * cfg.res_p2.omega0 - cfg.res_s.omega0
        assert sideband_detuning(comb, cfg, pump=1) == pytest.approx(
            d1 - comb[3 + 3].omega0, abs=1.0
        )
        assert sideband_detuning(comb, cfg, pump=2) == pytest.approx(
            d2 - comb[3 - 3].omega0, abs=1.0
        )

    def test_missing_partner(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=5.0 * spacing)  # target beyond the comb
        with pytest.raises(MissingResonance):
            sideband_detuning(synth_comb(spacing), cfg, pump=1)

    def test_lone_signal_line(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        with pytest.raises(MissingResonance):
            sideband_detuning([cfg.res_s], cfg, pump=1)

    def test_pump_index_validation(self):
        spacing = 2.4e12
        cfg = synth_cfg(pump_spacing=spacing)
        with pytest.raises(ValueError):
            sideband_detuning(synth_comb(spacing), cfg, pump=3)


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
        assert rep.per_second(rep.beta_sq_signal) == pytest.approx(
            rep.beta_sq_signal / 1e-9, rel=1e-15
        )
        assert any("kcal = 1" in n for n in rep.notes)
        assert any("finesse" in n for n in rep.notes)

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
        delta = cfg.omega3 + cfg.omega4 - 2.0 * cfg.res_s.omega0
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
        deltas, sups, partners = sideband_pair(comb2, cfg)
        omega_s = cfg.res_s.omega0
        for i, res_p in enumerate((cfg.res_p1, cfg.res_p2)):
            assert deltas[i] == sideband_detuning(comb2, cfg, pump=i + 1)
            assert sups[i] == suppression_factor(deltas[i], cfg.res_s.linewidth)
            assert partners[i] in comb2
            assert deltas[i] == 2.0 * res_p.omega0 - omega_s - partners[i].omega0
        assert partners[0].omega0 > omega_s > partners[1].omega0

    def test_noise_budget_reports_the_pair(self, sample_device):
        band = process_band(sample_device)
        cfg = resonant_config(sample_device, band)
        comb2 = resonance_comb(sample_device.ring2, sample_device.waveguide, band, owner=2)
        rep = noise_budget(sample_device, drive(), cfg, band=band)
        deltas, sups, _partners = sideband_pair(comb2, cfg)
        assert (rep.detuning_delta, rep.suppression) == (deltas, sups)

    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_both_routes_reject_a_zero_squared_linewidth(self, rate):
        # fwhm 2.4e-190 rad/s: h^2 underflows, and d^2 + h^2 would be 0 at delta = 0.
        narrow = signal_line(q=5e204)
        with pytest.raises(NonPhysical, match="underflows"):
            rate(drive(), narrow, 0.0, 1.0, 7.1e7)

    @pytest.mark.parametrize("pn, phrase", [(1e150, "pair rate"), (1e200, "prefactor")])
    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_overflowing_rate_is_non_physical(self, rate, pn, phrase):
        # 1e150 photons give an infinite rate; 1e200 overflow pn**2 itself.
        with pytest.raises(NonPhysical, match=phrase):
            rate(drive(pn=pn), signal_line(), 0.0, 1.0, 7.1e7)

    @pytest.mark.parametrize(
        "res, delta",
        [(signal_line(), -1e200), (signal_line(), -1.4e154), (signal_line(omega0=1e110), 0.0)],
        ids=["delta-squared", "delta-squared-edge", "fwhm-cubed"],
    )
    def test_closed_form_refuses_overflowing_powers(self, res, delta):
        # delta**2 and fwhm**3 used to raise OverflowError tracebacks.
        with pytest.raises(NonPhysical, match="overflows the float range"):
            pair_rate_closed_form(drive(), res, delta, 1.0, 7.1e7)

    def test_closed_form_below_the_overflow(self):
        delta = -1e150
        got = pair_rate_closed_form(drive(), signal_line(), delta, 1.0, 7.1e7)
        spectral = (math.pi / 4.0) * FWHM**3 / delta**2 * OMEGA_S * (OMEGA_S - delta)
        assert got == pytest.approx(rate_prefactor(drive(), OMEGA_S, 1.0, 7.1e7) * spectral,
                                    rel=1e-12)

    @pytest.mark.parametrize("q", [50.0, 1e-200], ids=["q-50", "q-1e-200"])
    @pytest.mark.parametrize("rate", [pair_rate_integral, pair_rate_closed_form])
    def test_both_routes_reject_broad_lines(self, rate, q):
        # The closed form used to accept them, and its fwhm**3 overflowed.
        broad = Resonance(owner=2, order=5, omega0=1e12, q_loaded=q, q_coupling=2.0 * q)
        with pytest.raises(NonPhysical, match="narrow-resonance"):
            rate(drive(), broad, 0.0, 1.0, 7.1e7)
