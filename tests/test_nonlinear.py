"""Overlap figure J: spatial integral, detuning factor, and ratios."""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringpair import (
    NonPhysical,
    OverlapResult,
    ProcessConfig,
    Resonance,
    enhancement_factor,
    integrate_adaptive,
    j_closed_form,
    j_quadrature,
    j_single_ring_baseline,
    j_single_ring_ratio,
    resonant_config,
    solve_dc_fields,
    wavevector,
    z_overlap_integral,
)
from ringpair import kernels
from ringpair.enhancement import ENHANCEMENT_WINDOW_LINEWIDTHS
from ringpair.linear_cmt import phase_unit
from ringpair.nonlinear import (
    PHASE_MISMATCH_LIMIT,
    PUMP_Q_MISMATCH_LIMIT,
    RING_LENGTH_MISMATCH_LIMIT,
)

from conftest import make_device, process_band

RNG = np.random.default_rng(20240818)


def null_config(device, delta_k=0.0):
    """On-resonance dual-pump configuration with a pinned mismatch."""
    cfg = resonant_config(device, process_band(device))
    return replace(cfg, delta_k=delta_k)


class TestZIdentity:
    def test_guide_summed_amplitude_product(self):
        # Summed over both guides, the squared-in times squared-out
        # product collapses to -exp(-2i phase) sin^2(2|k|z) / 2.
        for _ in range(1000):
            mag = 10.0 ** RNG.uniform(2, 6)
            phase = RNG.uniform(-math.pi, math.pi)
            length = 10.0 ** RNG.uniform(-6, -3)
            z = RNG.uniform(0.0, length)
            kappa = mag * cmath.exp(1j * phase)
            f_in, f_out = solve_dc_fields(kappa, length)
            total = (
                f_in.a1(z) ** 2 * f_out.a1(z) ** 2
                + f_in.a2(z) ** 2 * f_out.a2(z) ** 2
            )
            expected = (
                -cmath.exp(-2j * phase) * math.sin(2.0 * mag * z) ** 2 / 2.0
            )
            assert abs(total - expected) <= 1e-12

    def test_kernel_matches_field_product(self):
        mag, phase, length = 7.3e4, -0.8, 6e-5
        kappa = mag * cmath.exp(1j * phase)
        f_in, f_out = solve_dc_fields(kappa, length)
        z = np.linspace(0.0, length, 101)
        direct = [
            f_in.a1(x) ** 2 * f_out.a1(x) ** 2 + f_in.a2(x) ** 2 * f_out.a2(x) ** 2
            for x in z.tolist()
        ]
        np.testing.assert_allclose(
            kernels.dc_overlap_integrand(z, mag, phase, 0.0),
            direct,
            rtol=1e-12,
            atol=1e-15,
        )


@st.composite
def _overlap_inputs(draw):
    """|kappa|, phase, length and delta_k, with delta_k on or near the
    zero and +-4|kappa| resonances of the closed form as well as
    anywhere in between; lengths at nulls and in general position."""
    mag = draw(st.floats(1e3, 1e6))
    phase = draw(st.floats(-math.pi, math.pi))
    beats = draw(st.one_of(st.integers(1, 4).map(float), st.floats(0.05, 4.0)))
    length = beats * math.pi / mag
    centre = draw(st.sampled_from([0.0, 4.0 * mag, -4.0 * mag]))
    offset = draw(
        st.one_of(
            st.just(0.0),
            st.floats(1e-12, 1e-3).map(lambda e: e * 4.0 * mag),
            st.floats(1e-12, 1e-3).map(lambda e: -e * 4.0 * mag),
            st.floats(-20.0, 20.0).map(lambda u: u * math.pi / length),
        )
    )
    return mag, phase, length, centre + offset


def _numpy_z_overlap(kappa, length, delta_k):
    """The coupler overlap as numpy evaluated it before the scalar form."""
    beat = 4.0 * abs(kappa)
    q = np.array([delta_k, delta_k + beat, delta_k - beat])
    e = length * np.exp(0.5j * q * length) * np.sinc(q * length / (2.0 * np.pi))
    unit = np.exp(-2j * np.angle(kappa))
    return complex(-0.25 * unit * (e[0] - 0.5 * (e[1] + e[2])))


_COMPONENT = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


class TestZOverlapMatchesNumpyForm:
    @settings(max_examples=300, deadline=None)
    @given(_overlap_inputs())
    def test_bytes_at_zero_coupling_phase(self, case):
        mag, _, length, delta_k = case
        got = z_overlap_integral(mag + 0j, length, delta_k)
        want = _numpy_z_overlap(mag + 0j, length, delta_k)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @settings(max_examples=500, deadline=None)
    @given(_COMPONENT, _COMPONENT)
    def test_phase_unit_squared_is_exp_of_twice_the_angle(self, re, im):
        # (conj(kappa)/|kappa|)^2 skips the arctan route of
        # exp(-2i*angle(kappa)); the two differ by rounding only.
        kappa = complex(re, im)
        assume(kappa != 0)
        unit = phase_unit(kappa)
        assert abs(unit * unit - np.exp(-2j * np.angle(kappa))) <= 1e-15


class TestZOverlapIntegral:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_null_length_quarter_rule(self, m):
        mag = 66666.0
        length = m * math.pi / mag
        value = z_overlap_integral(mag + 0j, length)
        assert abs(value) == pytest.approx(length / 4.0, rel=1e-9)
        # Real coupling: the integral is exactly -L/4.
        assert value.real == pytest.approx(-length / 4.0, rel=1e-9)
        assert abs(value.imag) < 1e-12 * length

    def test_phase_of_coupling_rotates_result(self):
        mag, phase = 5e4, 0.6
        length = math.pi / mag
        value = z_overlap_integral(mag * cmath.exp(1j * phase), length)
        expected = -cmath.exp(-2j * phase) * length / 4.0
        assert abs(value - expected) < 1e-12 * length

    @pytest.mark.parametrize("delta_k_scale", [0.0, 0.3, 2.7])
    def test_matches_trapezoid_oracle(self, delta_k_scale):
        mag = 66666.0
        length = math.pi / mag
        delta_k = delta_k_scale * math.pi / length
        z = np.linspace(0.0, length, 200001)
        reference = np.trapezoid(
            kernels.dc_overlap_integrand(z, mag, 0.0, delta_k), z
        )
        value = z_overlap_integral(mag + 0j, length, delta_k)
        assert abs(value - reference) <= 1e-8 * length

    def test_length_validation(self):
        with pytest.raises(ValueError):
            z_overlap_integral(1e4 + 0j, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(_overlap_inputs())
    def test_closed_form_matches_quadrature(self, case):
        mag, phase, length, delta_k = case
        value = z_overlap_integral(mag * cmath.exp(1j * phase), length, delta_k)
        reference, _ = integrate_adaptive(
            lambda z: kernels.dc_overlap_integrand(z, mag, phase, delta_k),
            0.0,
            length,
            abs_tol=1e-13 * length,
        )
        assert abs(value - reference) <= 1e-12 * length

    @pytest.mark.parametrize("delta_k", [0.0, 3e4, -2e6])
    def test_zero_coupling_gives_zero(self, delta_k):
        # Without coupling no light reaches the output guide, so every
        # summed amplitude product vanishes.
        assert z_overlap_integral(0j, 5e-5, delta_k) == 0.0


class TestEnhancementFactor:
    def test_on_resonance_is_unity(self):
        cfg = null_config(make_device())
        enh = enhancement_factor(cfg)
        assert enh == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_half_linewidth_pump_detuning(self):
        cfg = null_config(make_device())
        detuned = replace(
            cfg, omega3=cfg.res_p1.omega0 + 0.5 * cfg.res_p1.linewidth
        )
        # The sum omega0 + lw/2 rounds at the double's ulp, which moves
        # the detuning at the 1e-11 level; 1e-9 is tight above that.
        assert abs(enhancement_factor(detuned)) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-9
        )

    def test_magnitude_never_exceeds_unity(self):
        cfg = null_config(make_device())
        for _ in range(100):
            d = RNG.uniform(-5.0, 5.0, size=4)
            trial = replace(
                cfg,
                omega1=cfg.res_s.omega0 + d[0] * cfg.res_s.linewidth,
                omega2=cfg.res_s.omega0 + d[1] * cfg.res_s.linewidth,
                omega3=cfg.res_p1.omega0 + d[2] * cfg.res_p1.linewidth,
                omega4=cfg.res_p2.omega0 + d[3] * cfg.res_p2.linewidth,
            )
            assert abs(enhancement_factor(trial)) <= 1.0 + 1e-15

    def test_signal_line_enters_squared(self):
        # Both generated fields ride the same line, so detuning them
        # together squares one Lorentzian factor.
        cfg = null_config(make_device())
        w = cfg.res_s.omega0 + 1.0 * cfg.res_s.linewidth
        trial = replace(cfg, omega1=w, omega2=w)
        single = 1.0 / (1.0 + 2.0**2)  # |L(w0 + fwhm)|^2 = 1/5
        assert abs(enhancement_factor(trial)) == pytest.approx(single, rel=1e-12)


class TestJRoutes:
    def test_quadrature_equals_closed_form_on_resonance(self):
        dev = make_device()
        cfg = null_config(dev)
        jq = j_quadrature(dev, cfg)
        jc = j_closed_form(dev, cfg)
        assert jq.j_abs == pytest.approx(jc.j_abs, rel=1e-9)
        assert abs(jq.z_factor) == pytest.approx(dev.dc_length / 4.0, rel=1e-9)
        assert jc.z_factor == dev.dc_length / 4.0

    def test_doubling_ring_lengths_quarters_j(self):
        dev = make_device()
        cfg = null_config(dev)
        grow1 = replace(
            dev.ring1, straight_len=dev.ring1.straight_len + 0.5 * dev.ring1.round_trip_length
        )
        grow2 = replace(
            dev.ring2, straight_len=dev.ring2.straight_len + 0.5 * dev.ring2.round_trip_length
        )
        big = replace(dev, ring1=grow1, ring2=grow2)
        assert big.ring1.round_trip_length == pytest.approx(
            2.0 * dev.ring1.round_trip_length, rel=1e-14
        )
        j_small = j_closed_form(dev, cfg).j_abs
        j_big = j_closed_form(big, cfg).j_abs
        assert j_big == pytest.approx(j_small / 4.0, rel=1e-12)

    def test_small_phase_mismatch_is_benign(self):
        dev = make_device()
        cfg = null_config(dev)
        mismatch = replace(cfg, delta_k=(math.pi / 20.0) / dev.dc_length)
        j0 = j_quadrature(dev, cfg).j_abs
        j1 = j_quadrature(dev, mismatch).j_abs
        assert abs(j1 - j0) / j0 < 0.01

    def test_coupling_phase_leaves_magnitude(self):
        cfg = null_config(make_device())
        base = j_quadrature(make_device(), cfg).j_abs
        rotated = j_quadrature(make_device(kappa_phase=1.3), cfg).j_abs
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_quadrature_scales_with_chi3(self):
        cfg = null_config(make_device())
        j1 = j_quadrature(make_device(chi3=2.5e-19), cfg).j_abs
        j2 = j_quadrature(make_device(chi3=5.0e-19), cfg).j_abs
        assert j2 == pytest.approx(2.0 * j1, rel=1e-12)

    def test_chi3_zero_is_rejected(self):
        dev = make_device(chi3=0.0)
        cfg = null_config(make_device())
        with pytest.raises(ValueError):
            j_quadrature(dev, cfg)


class TestSingleRingRatio:
    def test_equal_length_formula(self):
        dev = make_device(l2_scale=1.0)
        cfg = null_config(dev)
        ratio = j_single_ring_ratio(dev, cfg)
        assert ratio == pytest.approx(
            dev.dc_length / (4.0 * dev.ring1.round_trip_length), rel=1e-12
        )

    def test_bend_limited_optimum_is_one_sixteenth(self):
        # Coupler pi*R inside a 4*pi*R round trip.
        dev = make_device(l2_scale=1.0)
        cfg = null_config(dev)
        assert dev.dc_length == pytest.approx(
            dev.ring1.round_trip_length / 4.0, rel=1e-14
        )
        assert j_single_ring_ratio(dev, cfg) == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_ratio_ignores_q_and_material(self):
        cfg = null_config(make_device(l2_scale=1.0))
        base = j_single_ring_ratio(make_device(l2_scale=1.0), cfg)
        assert j_single_ring_ratio(
            make_device(l2_scale=1.0, chi3=9e-19), cfg
        ) == pytest.approx(base, rel=1e-12)
        # Different loaded Q enters through cfg, not the device, so the
        # device-side swap alone must not move the ratio.
        assert j_single_ring_ratio(
            make_device(l2_scale=1.0, q_i=3e5, q_c=2e5), cfg
        ) == pytest.approx(base, rel=1e-12)

    def test_quadrature_route_reproduces_ratio(self):
        dev = make_device(l2_scale=1.0)
        cfg = null_config(dev)
        jq = j_quadrature(dev, cfg).j_abs
        jb = j_single_ring_baseline(dev, cfg).j_abs
        assert jq / jb == pytest.approx(
            dev.dc_length / (4.0 * dev.ring1.round_trip_length), rel=1e-9
        )


@st.composite
def _closed_form_cases(draw):
    """A make_device variant and its on-resonance configuration, with the
    second pump's loaded Q scaled so the pump-Q note can fire."""
    two_pi_ghz = 2.0 * math.pi * 1e9
    dev = make_device(
        l2_scale=draw(st.floats(1.0, 1.4)),
        q_i=draw(st.floats(2e4, 1e6)),
        q_c=draw(st.floats(2e4, 1e6)),
        gvd=draw(st.floats(-1e-23, 1e-23)),
        kappa_phase=draw(st.floats(-math.pi, math.pi)),
        heater1=draw(st.floats(-100.0, 100.0)) * two_pi_ghz,
        heater2=draw(st.floats(-100.0, 100.0)) * two_pi_ghz,
    )
    cfg = resonant_config(dev, process_band(dev, n_spacings=draw(st.floats(4.2, 8.0))))
    p2 = replace(cfg.res_p2, q_loaded=draw(st.floats(0.8, 1.0)) * cfg.res_p2.q_loaded)
    return dev, replace(cfg, res_p2=p2)


def _two_body_closed_forms(device, cfg):
    """Both closed-form routes as two separate bodies computed them: one
    helper for the prefactor and material factor, each route finishing
    the product itself. The reference for the shared body."""

    def parts(log):
        q_rel = abs(cfg.res_p1.q_loaded - cfg.res_p2.q_loaded) / max(
            cfg.res_p1.q_loaded, cfg.res_p2.q_loaded
        )
        if q_rel > PUMP_Q_MISMATCH_LIMIT:
            log.append(f"pump quality factors differ by {q_rel:.1%}; the closed form "
                       "assumes nearly equal pump linewidths")
        wg = device.waveguide
        q_p = math.sqrt(cfg.res_p1.q_loaded * cfg.res_p2.q_loaded)
        q_cp = math.sqrt(cfg.res_p1.q_coupling * cfg.res_p2.q_coupling)
        q_s = cfg.res_s.q_loaded
        l1 = device.ring1.round_trip_length
        l2 = device.ring2.round_trip_length
        omega_p_geo = math.sqrt(cfg.res_p1.omega0 * cfg.res_p2.omega0)
        pref = (16.0 * wg.v_g**2 * q_p * q_s / (l1 * l2 * cfg.res_s.omega0 * omega_p_geo)
                * (q_p * q_s) / (q_cp * cfg.res_s.q_coupling))
        return pref, wg.chi3_bar / (wg.n_bar**4 * wg.area_eff)

    log = []
    mismatch = abs(cfg.delta_k) * device.dc_length
    if mismatch > PHASE_MISMATCH_LIMIT:
        log.append(f"|delta_k| * L = {mismatch:.3g} rad exceeds the small-mismatch "
                   "regime of the closed form")
    pref, material = parts(log)
    z_factor = complex(device.dc_length / 4.0)
    enh = enhancement_factor(cfg)
    closed = OverlapResult(complex(pref * material * z_factor * enh), z_factor, enh,
                           "closed_form", tuple(log))

    log = []
    l1, l2 = device.ring1.round_trip_length, device.ring2.round_trip_length
    if abs(l1 - l2) > RING_LENGTH_MISMATCH_LIMIT * max(l1, l2):
        log.append(f"ring lengths differ by {abs(l1 - l2) / max(l1, l2):.1%}; the "
                   "single-ring comparison assumes nearly equal round trips")
    pref, material = parts(log)
    l_mean = math.sqrt(l1 * l2)
    baseline = OverlapResult(complex(pref * material * l_mean * enh), complex(l_mean), enh,
                             "single_ring_baseline", tuple(log))
    return closed, baseline


class TestClosedFormBody:
    @settings(max_examples=200, deadline=None)
    @given(case=_closed_form_cases())
    def test_routes_match_the_two_body_form(self, case):
        dev, cfg = case
        expected = _two_body_closed_forms(dev, cfg)
        for got, want in zip((j_closed_form(dev, cfg), j_single_ring_baseline(dev, cfg)),
                             expected):
            assert got.j_value == want.j_value
            assert got.z_factor == want.z_factor
            assert got.enhancement_product == want.enhancement_product
            assert got.method == want.method
            assert got.warnings == want.warnings


class TestAssumptionChecks:
    def test_pump_q_mismatch(self):
        dev = make_device()
        cfg = null_config(dev)
        off = Resonance(
            owner=1,
            order=cfg.res_p2.order,
            omega0=cfg.res_p2.omega0,
            q_loaded=0.7 * cfg.res_p2.q_loaded,
            q_coupling=cfg.res_p2.q_coupling,
        )
        bad = replace(cfg, res_p2=off, omega4=off.omega0)
        res = j_closed_form(dev, bad)
        assert any("quality factors" in w for w in res.warnings)

    def test_large_phase_mismatch(self):
        dev = make_device()
        cfg = null_config(dev, delta_k=(math.pi / 5.0) / dev.dc_length)
        res = j_closed_form(dev, cfg)
        assert any("small-mismatch regime" in w for w in res.warnings)

    def test_far_detuned_field(self):
        dev = make_device()
        cfg = null_config(dev)
        far = replace(cfg, omega3=cfg.res_p1.omega0 + 25.0 * cfg.res_p1.linewidth)
        res = j_quadrature(dev, far)
        assert any("linewidths" in w for w in res.warnings)

    def test_unequal_rings_flagged_in_baseline(self):
        dev = make_device(l2_scale=1.12)
        cfg = null_config(dev)
        res = j_single_ring_baseline(dev, cfg)
        assert any("ring lengths differ" in w for w in res.warnings)


@st.composite
def _assumption_inputs(draw):
    """A device and a configuration on either side of each assumption
    limit: field detuning, phase mismatch, pump Q mismatch and ring
    length mismatch."""
    dev = make_device(l2_scale=draw(st.sampled_from([1.0, 1.005, 1.02, 1.12])))
    cfg = null_config(dev, delta_k=draw(st.floats(-0.5, 0.5)) / dev.dc_length)
    p2 = cfg.res_p2
    off = Resonance(
        owner=1,
        order=p2.order,
        omega0=p2.omega0,
        q_loaded=draw(st.floats(0.8, 1.0)) * p2.q_loaded,
        q_coupling=p2.q_coupling,
    )
    detuning = draw(st.floats(-30.0, 30.0))
    cfg = replace(
        cfg,
        res_p2=off,
        omega4=off.omega0,
        omega3=cfg.res_p1.omega0 + detuning * cfg.res_p1.linewidth,
    )
    return dev, cfg


def _crossed_limits(dev, cfg):
    """Each assumption limit of a case, and whether the case crosses it."""
    q1, q2 = cfg.res_p1.q_loaded, cfg.res_p2.q_loaded
    l1, l2 = dev.ring1.round_trip_length, dev.ring2.round_trip_length
    return {
        "detuning": max(cfg.detuning_in_linewidths()) > ENHANCEMENT_WINDOW_LINEWIDTHS,
        "phase": abs(cfg.delta_k) * dev.dc_length > PHASE_MISMATCH_LIMIT,
        "pump_q": abs(q1 - q2) / max(q1, q2) > PUMP_Q_MISMATCH_LIMIT,
        "rings": abs(l1 - l2) > RING_LENGTH_MISMATCH_LIMIT * max(l1, l2),
    }


# A phrase of each limit's note, and the limits each route checks, in
# the order its notes come.
LIMIT_PHRASES = {
    "detuning": "linewidths from its resonance",
    "phase": "small-mismatch regime",
    "pump_q": "pump quality factors differ",
    "rings": "ring lengths differ",
}
ROUTE_LIMITS = {
    j_quadrature: ("detuning",),
    j_closed_form: ("phase", "pump_q"),
    j_single_ring_baseline: ("rings", "pump_q"),
}


class TestAssumptionNotes:
    @pytest.mark.parametrize("route", ROUTE_LIMITS, ids=lambda route: route.__name__)
    @settings(max_examples=60, deadline=None)
    @given(case=_assumption_inputs())
    def test_notes_name_crossed_limits(self, route, case):
        dev, cfg = case
        crossed = _crossed_limits(dev, cfg)
        expected = [LIMIT_PHRASES[limit] for limit in ROUTE_LIMITS[route] if crossed[limit]]
        notes = route(dev, cfg).warnings
        assert len(notes) == len(expected)
        assert all(phrase in note for phrase, note in zip(expected, notes))


class TestResonantConfig:
    def test_structure(self):
        dev = make_device()
        cfg = resonant_config(dev, process_band(dev), pump_separation=2)
        assert cfg.res_p1.owner == 1 and cfg.res_p2.owner == 1
        assert cfg.res_s.owner == 2
        assert cfg.res_p1.order - cfg.res_p2.order == 2
        assert cfg.omega3 == cfg.res_p1.omega0
        assert cfg.omega4 == cfg.res_p2.omega0
        assert cfg.omega1 == cfg.res_s.omega0 == cfg.omega2
        assert cfg.omega4 < cfg.omega1 < cfg.omega3
        assert cfg.detuning_in_linewidths() == (0.0, 0.0, 0.0, 0.0)

    def test_delta_k_from_dispersion(self):
        dev = make_device()
        cfg = resonant_config(dev, process_band(dev))
        wg = dev.waveguide
        expected = (
            wavevector(wg, cfg.omega3)
            + wavevector(wg, cfg.omega4)
            - 2.0 * wavevector(wg, cfg.omega1)
        )
        assert cfg.delta_k == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        dev = make_device()
        with pytest.raises(ValueError):
            resonant_config(dev, process_band(dev), pump_separation=0)
        with pytest.raises(ValueError):
            # Band too narrow for the requested separation.
            resonant_config(dev, process_band(dev, n_spacings=0.9), pump_separation=2)

    def test_process_config_owner_checks(self):
        cfg = null_config(make_device())
        with pytest.raises(ValueError):
            ProcessConfig(
                omega1=cfg.omega1,
                omega2=cfg.omega2,
                omega3=cfg.omega3,
                omega4=cfg.omega4,
                res_p1=cfg.res_s,  # wrong ring
                res_p2=cfg.res_p2,
                res_s=cfg.res_s,
            )
        with pytest.raises(ValueError):
            ProcessConfig(
                omega1=-1.0,
                omega2=cfg.omega2,
                omega3=cfg.omega3,
                omega4=cfg.omega4,
                res_p1=cfg.res_p1,
                res_p2=cfg.res_p2,
                res_s=cfg.res_s,
            )


class TestRangeChecks:
    def test_signal_mismatch(self):
        cfg = null_config(make_device())
        assert cfg.signal_mismatch == cfg.omega3 + cfg.omega4 - 2.0 * cfg.res_s.omega0
        moved = replace(cfg, omega3=cfg.omega3 + 7.0)
        assert moved.signal_mismatch == pytest.approx(cfg.signal_mismatch + 7.0, abs=1.0)

    @pytest.mark.parametrize("n_bar", [3.48e-200, 3.48e200])
    @pytest.mark.parametrize("route", [j_quadrature, j_closed_form])
    def test_material_factor_out_of_range(self, route, n_bar):
        # n_bar^4 used to underflow to 0 (ZeroDivisionError) or overflow
        # (OverflowError).
        dev = make_device(n_bar=n_bar)
        with pytest.raises(NonPhysical, match="n_bar"):
            route(dev, null_config(make_device()))

    def test_closed_form_prefactor_out_of_range(self):
        # sqrt(q_c1 * q_c2) overflows, so the prefactor divides down to 0.
        dev = make_device(l2_scale=1.0, n_eff=4.2)
        dev = replace(dev, ring1=replace(dev.ring1, q_coupling=1e205))
        cfg = null_config(dev)
        for route in (j_closed_form, j_single_ring_baseline):
            with pytest.raises(NonPhysical, match="prefactor"):
                route(dev, cfg)
