"""Acceptance gate: ten end-to-end checks, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each check states its tolerance and its wall-clock budget.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.constants import c as c0, hbar

from ringpair import (
    CmtField,
    DesignGoal,
    Infeasible,
    PumpDrive,
    Resonance,
    WaveguideParams,
    calibrate_kcal,
    finesse,
    fsr,
    intensity_spectrum,
    j_quadrature,
    j_single_ring_ratio,
    kerr_detuned_efficiency,
    kerr_validity_metric,
    pair_rate_integral,
    peak_amplitude,
    resonance_comb,
    resonant_config,
    sideband_pair,
    sigma_from_finesse,
    suppression_factor,
    tune_for_energy_conservation,
    z_overlap_integral,
)
from ringpair import kernels
from ringpair.geometry import resonance_comb as _comb
from ringpair.record import replace

from conftest import make_device, null_overlap_oracle, process_band


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}")
    assert ok, f"{num:02d} {label}: {detail}"


def test_01_coupler_unitarity_and_null():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_unit = 0.0
    worst_cross = 0.0
    for i in range(1000):
        mag = 10.0 ** rng.uniform(2.0, 6.0)
        kappa = mag * np.exp(1j * rng.uniform(-math.pi, math.pi))
        length = 10.0 ** rng.uniform(-5.0, -2.0)
        z = float(rng.uniform(0.0, 1.0)) * length
        for f in (CmtField(port, complex(kappa), length) for port in ("IN", "OUT")):
            p = abs(f.a1(z)) ** 2 + abs(f.a2(z)) ** 2
            worst_unit = max(worst_unit, abs(p - 1.0))
        null_len = (1 + i % 3) * math.pi / mag
        worst_cross = max(worst_cross, kerr_detuned_efficiency(kappa, null_len, 0.0))
    dt = time.perf_counter() - t0
    ok = worst_unit <= 1e-12 and worst_cross < 1e-20 and dt < 1.0
    verdict(
        1,
        "coupler unitarity and null",
        ok,
        f"1000 random couplers: max |power - 1| = {worst_unit:.3g} (tol 1e-12), "
        f"max null cross power = {worst_cross:.3g} (tol 1e-20), {dt:.2f}s (budget 1s)",
    )


def test_02_overlap_null_value_and_trapezoid():
    t0 = time.perf_counter()
    phase = 0.35
    worst_closed = 0.0
    worst_trap = 0.0
    for m in (1, 2, 3):
        for mag in (8e3, 66666.66666666666, 3e5):
            length = m * math.pi / mag
            kappa = mag * np.exp(1j * phase)
            val = z_overlap_integral(kappa, length)
            quarter = length / 4.0
            worst_closed = max(worst_closed, abs(abs(val) - quarter) / quarter)
            z = np.linspace(0.0, length, 1_000_001)
            trap = np.trapezoid(
                kernels.dc_overlap_integrand(z, mag, phase, 0.0), z
            )
            worst_trap = max(worst_trap, abs(val - trap) / quarter)
    dt = time.perf_counter() - t0
    ok = worst_closed <= 1e-9 and worst_trap <= 1e-9 and dt < 5.0
    verdict(
        2,
        "null-length overlap integral",
        ok,
        f"orders 1-3: max rel deviation from L/4 = {worst_closed:.3g} (tol 1e-9), "
        f"max rel gap to 1e6-point trapezoid = {worst_trap:.3g} (tol 1e-9), "
        f"{dt:.2f}s (budget 5s)",
    )


def test_03_quadrature_matches_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        dev = make_device(
            radius=float(rng.uniform(1e-5, 3e-5)),
            l2_scale=float(rng.uniform(1.0, 1.5)),
            q_i=10.0 ** float(rng.uniform(4.7, 5.7)),
            q_c=10.0 ** float(rng.uniform(4.7, 5.7)),
            n_g=float(rng.uniform(3.8, 4.5)),
            n_eff=float(rng.uniform(2.2, 3.0)),
            gamma=float(rng.uniform(50.0, 300.0)),
            chi3=float(rng.uniform(1e-19, 5e-19)),
            kappa_order=int(rng.integers(1, 4)),
        )
        cfg = replace(resonant_config(dev, process_band(dev)), delta_k=0.0)
        jq = j_quadrature(dev, cfg)
        # At a linear null with delta_k = 0, |J| is the four fields times
        # the material factor times L/4, written out in the oracle; the
        # global phase drops out of every rate, so compare |J|.
        oracle = null_overlap_oracle(dev, cfg)
        worst = max(worst, abs(jq.j_abs - oracle) / oracle)
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 30.0
    verdict(
        3,
        "exact overlap vs the null-length value L/4",
        ok,
        f"100 random matched devices: max rel difference = {worst:.3g} "
        f"(tol 1e-6), {dt:.2f}s (budget 30s)",
    )


def test_04_single_ring_ratio():
    dev = make_device(l2_scale=1.0)
    cfg = replace(resonant_config(dev, process_band(dev)), delta_k=0.0)
    ratio_sym = j_single_ring_ratio(dev, cfg)
    err_sym = abs(ratio_sym - 1.0 / 16.0) / (1.0 / 16.0)

    l1 = dev.ring1.round_trip_length
    l2 = dev.ring2.round_trip_length
    expected = dev.dc_length / (4.0 * math.sqrt(l1 * l2))
    err_formula = abs(ratio_sym - expected) / expected

    ok = err_sym <= 1e-12 and err_formula <= 1e-12
    verdict(
        4,
        "two-ring to one-ring overlap ratio",
        ok,
        "equal rings with the bend-limited coupler: spatial-factor ratio off "
        f"optimum 1/16 by {err_sym:.3g} and off dc_length / (4 sqrt(L1 L2)) by "
        f"{err_formula:.3g} (tol 1e-12 each)",
    )


def test_05_pair_rate_spectral_integral():
    t0 = time.perf_counter()
    omega_s = 1.2e15
    res = Resonance(owner=2, order=500, omega0=omega_s, q_loaded=5e4, q_coupling=1e5)
    fwhm = res.linewidth

    u = np.linspace(-50.0 * fwhm, 50.0 * fwhm, 2_000_001)
    raw = np.trapezoid(kernels.pair_kernel(u, 0.0, fwhm, omega_s, omega_s), u)
    err_quarter = abs(raw - math.pi * fwhm / 4.0) / (math.pi * fwhm / 4.0)

    drive = PumpDrive(photon_number=1.0, pulse_duration=1e-9, self_coupling=0.97)
    base = pair_rate_integral(drive, res, 0.0, 1.0, 7.1e7)
    worst_ratio = 0.0
    for scale in (0.0, 0.5, 1.0, 5.0, 50.0):
        delta = scale * fwhm
        got = pair_rate_integral(drive, res, delta, 1.0, 7.1e7) / base
        want = fwhm**2 / (delta**2 + fwhm**2)
        worst_ratio = max(worst_ratio, abs(got - want) / want)
    dt = time.perf_counter() - t0
    ok = err_quarter <= 5e-3 and worst_ratio <= 1e-2 and dt < 10.0
    verdict(
        5,
        "spectral pair-rate integral",
        ok,
        f"zero-mismatch integral off pi*fwhm/4 by {err_quarter:.3g} (tol 5e-3); "
        f"detuning law off by {worst_ratio:.3g} max over 5 detunings (tol 1e-2); "
        f"{dt:.2f}s (budget 10s)",
    )


def test_06_high_finesse_sideband_suppression():
    dev = make_device(q_i=3e5, q_c=3e5)
    wg = dev.waveguide
    omega = wg.omega_ref
    fin2 = finesse(dev.ring2, wg, omega)
    lw = omega / dev.ring2.q_loaded
    sup = suppression_factor(fsr(dev.ring2, wg, omega), lw)
    ok = fin2 >= 100.0 and sup < 1e-4
    verdict(
        6,
        "one-FSR suppression at high finesse",
        ok,
        f"finesse {fin2:.1f} (>= 100): detuning one spectral range gives "
        f"suppression {sup:.3g} (< 1e-4)",
    )


def test_07_kerr_validity_operating_points():
    omega_15 = 2.0 * math.pi * c0 / 1.5e-6
    si = WaveguideParams(n_eff_ref=2.4, n_g=3.0, omega_ref=omega_15, gamma_nl=200.0)
    sin = WaveguideParams(n_eff_ref=1.9, n_g=2.0, omega_ref=omega_15, gamma_nl=1.0)
    m_si = kerr_validity_metric(si, 5e-3, 5e4, 1.5e-6)
    m_sin = kerr_validity_metric(sin, 0.5, 1e6, 1.5e-6)

    err_si = abs(m_si - 6.2e-3) / 6.2e-3
    err_si_exact = abs(m_si - 0.00625) / 0.00625
    err_sin_exact = abs(m_sin - 0.09375) / 0.09375
    # The published one-digit figure 1e-1 sits 6.25 percent from the
    # exact expression value, so the headline comparison is against the
    # exact value plus an order-of-magnitude check.
    om_sin = 10.0 ** round(math.log10(m_sin))

    ok = (
        err_si <= 0.05
        and err_si_exact <= 1e-12
        and err_sin_exact <= 1e-12
        and om_sin == 0.1
    )
    verdict(
        7,
        "Kerr validity operating points",
        ok,
        f"strong-nonlinearity point {m_si:.4g} vs 6.2e-3 ({err_si:.2%}, tol 5%); "
        f"weak-nonlinearity point {m_sin:.5g} = 3/32 exactly "
        f"(order of magnitude {om_sin:g})",
    )


def test_08_spectrum_structure(sample_device):
    goal = DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=5e-3)
    tuned = tune_for_energy_conservation(sample_device, goal, mode="trim").device
    wg = tuned.waveguide
    band = process_band(tuned)
    cfg = resonant_config(tuned, band)
    lw = cfg.res_s.linewidth

    symmetry = abs(cfg.res_p1.omega0 + cfg.res_p2.omega0 - 2.0 * cfg.res_s.omega0) / lw

    comb1 = resonance_comb(tuned.ring1, wg, band, owner=1)
    comb2 = resonance_comb(tuned.ring2, wg, band, owner=2)
    f2 = fsr(tuned.ring2, wg, cfg.res_s.omega0)
    (d1, d2), _sups, _partners = sideband_pair(comb2, cfg, band)
    separation = min(abs(d1), abs(d2)) / f2

    worst_peak = 0.0
    for res in comb1 + comb2:
        ring = tuned.ring(res.owner)
        manual = (
            4.0
            * res.q_loaded
            * wg.v_g
            / (ring.round_trip_length * res.omega0)
            * (res.q_loaded / res.q_coupling)
        )
        peak = peak_amplitude(res, wg, ring) ** 2
        worst_peak = max(worst_peak, abs(peak - manual) / manual)

    spec = intensity_spectrum(tuned, band, 8001)
    sampled_ok = True
    for res, col in ((cfg.res_p1, spec.f1_sq), (cfg.res_p2, spec.f1_sq),
                     (cfg.res_s, spec.f2_sq)):
        idx = int(np.argmin(np.abs(spec.omega - res.omega0)))
        peak = 4.0 * res.q_loaded * wg.v_g / (
            tuned.ring(res.owner).round_trip_length * res.omega0
        ) * (res.q_loaded / res.q_coupling)
        sampled_ok = sampled_ok and col[idx] > 0.9 * peak

    ok = symmetry <= 1e-5 and separation >= 0.1 and worst_peak <= 1e-6 and sampled_ok
    verdict(
        8,
        "tuned-spectrum structure",
        ok,
        f"pump-pair asymmetry {symmetry:.3g} linewidths (tol 1e-5); side-band "
        f"points {separation:.2f} FSR from the nearest line (>= 0.1); peak "
        f"heights off the line formula by {worst_peak:.3g} max (tol 1e-6); "
        f"sampled spectrum peaks on every process line: {sampled_ok}",
    )


def test_09_calibration_round_trip(sample_device):
    cfg = resonant_config(sample_device, process_band(sample_device))
    wg = sample_device.waveguide
    target, power = 1e6, 5e-4
    kcal = calibrate_kcal(sample_device, target, power, cfg)

    t = 1e-9
    omega_p = 0.5 * (cfg.res_p1.omega0 + cfg.res_p2.omega0)
    drive = PumpDrive(
        photon_number=power * t / (hbar * omega_p),
        pulse_duration=t,
        self_coupling=sigma_from_finesse(
            finesse(sample_device.ring1, wg, cfg.res_p1.omega0)
        ),
    )
    delta = cfg.res_p1.omega0 + cfg.res_p2.omega0 - 2.0 * cfg.res_s.omega0
    rate = pair_rate_integral(drive, cfg.res_s, delta, kcal, wg.v_g) / t
    err_round = abs(rate - target) / target

    # Doubling the photon number raises the pump amplitude by sqrt(2);
    # the rate must respond with the fourth power of the amplitude.
    r1 = pair_rate_integral(drive, cfg.res_s, delta, kcal, wg.v_g)
    drive2 = replace(drive, photon_number=2.0 * drive.photon_number)
    r2 = pair_rate_integral(drive2, cfg.res_s, delta, kcal, wg.v_g)
    exponent = math.log(r2 / r1) / math.log(math.sqrt(2.0))
    err_exp = abs(exponent - 4.0)

    ok = err_round <= 1e-9 and err_exp <= 1e-6
    verdict(
        9,
        "rate calibration round trip",
        ok,
        f"calibrated rate off target by {err_round:.3g} (tol 1e-9); pump "
        f"amplitude exponent {exponent:.9f} (4 within 1e-6)",
    )


def test_10_tuning_feasibility_frontier():
    t0 = time.perf_counter()
    omega_s = 2.0 * math.pi * c0 / 1.55e-6
    xs = (0.3, 0.7, 0.95, 1.05, 1.5, 3.0)
    q_loaded_values = (2e4, 3e4, 5e4, 8e4, 1.2e5, 2e5, 3e5, 5e5, 1e6)
    points = 0
    agreements = 0
    for q in q_loaded_values:
        # R2 = R1 builds the longer refit ring, R2 = 0.4 R1 the shorter one,
        # which holds the coupler only while R2 <= R1 (M - 1)/M = R1/2.
        for r2_ratio, sign in ((1.0, 1), (0.4, -1)):
            dev = make_device(q_i=2.0 * q, q_c=2.0 * q)
            dev = replace(dev, ring2=replace(dev.ring2, bend_radius=r2_ratio * 1.5e-5))
            wg = dev.waveguide
            lw = omega_s / q
            # Half the spacing of the ring 2 the refit builds for pumps
            # M = 2 ring-1 orders apart: M F1 / (2M -+ 1).
            frontier = 2.0 * fsr(dev.ring1, wg, omega_s) / (4 + sign)
            for x in xs:
                s = 1.0 / (1.0 + (x * frontier / lw) ** 2)
                goal = DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=s)
                expect_infeasible = x > 1.0
                try:
                    tune_for_energy_conservation(dev, goal, mode="fabrication")
                    got_infeasible = False
                except Infeasible as exc:
                    got_infeasible = True
                    assert "FSR/2" in str(exc)
                points += 1
                agreements += got_infeasible == expect_infeasible
    dt = time.perf_counter() - t0
    ok = agreements == points and points >= 50 and dt < 10.0
    verdict(
        10,
        "tuning feasibility frontier",
        ok,
        f"{agreements}/{points} verdicts match the M*F1/(2M -+ 1) detuning rule of the "
        f"built ring, "
        f"{dt:.2f}s (budget 10s)",
    )
