"""Overlap figure J: spatial integral, detuning factor, and ratios."""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringpair import (
    CmtField,
    DesignGoal,
    NonPhysical,
    OverlapResult,
    ProcessConfig,
    Resonance,
    device_combs,
    evaluate_design,
    j_quadrature,
    j_single_ring_ratio,
    resonant_config,
    wavevector,
    z_overlap_integral,
)
from ringpair import kernels, lorentzian_response, peak_amplitude
from ringpair.errors import scaled_product
from ringpair.linear_cmt import phase_unit
from ringpair.nonlinear import RING_LENGTH_MISMATCH_LIMIT, pump_pair, single_ring_reference
from ringpair.quadrature import integrate_adaptive
from ringpair.record import replace

from conftest import make_device, null_overlap_oracle, process_band

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
            f_in, f_out = CmtField("IN", kappa, length), CmtField("OUT", kappa, length)
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
        f_in, f_out = CmtField("IN", kappa, length), CmtField("OUT", kappa, length)
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


def line_shape_product(cfg, d1=0.0, d2=0.0, d3=0.0, d4=0.0):
    """Product of the four unit line shapes with each field moved off its
    line centre by the given number of linewidths: generated fields 1 and
    2 on the signal line, pumps 3 and 4 on their own lines. Multiplied in
    the order of ``OverlapResult.enhancement_product``, which it equals
    with no detuning."""
    fields = ((cfg.res_p1, d3), (cfg.res_p2, d4), (cfg.res_s, d1), (cfg.res_s, d2))
    product = 1.0 + 0.0j
    for res, d in fields:
        product *= lorentzian_response(res, res.omega0 + d * res.linewidth)
    return product


class TestEnhancementFactor:
    def test_on_resonance_is_unity(self):
        dev = make_device()
        cfg = null_config(dev)
        enh = j_quadrature(dev, cfg).enhancement_product
        assert enh == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert line_shape_product(cfg) == enh

    def test_half_linewidth_pump_detuning(self):
        cfg = null_config(make_device())
        # The sum omega0 + lw/2 rounds at the double's ulp, which moves
        # the detuning at the 1e-11 level; 1e-9 is tight above that.
        assert abs(line_shape_product(cfg, d3=0.5)) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-9
        )

    def test_magnitude_never_exceeds_unity(self):
        cfg = null_config(make_device())
        for _ in range(100):
            d = RNG.uniform(-5.0, 5.0, size=4)
            assert abs(line_shape_product(cfg, *d.tolist())) <= 1.0 + 1e-15

    def test_signal_line_enters_squared(self):
        # Both generated fields ride the same line, so detuning them
        # together squares one Lorentzian factor.
        cfg = null_config(make_device())
        single = 1.0 / (1.0 + 2.0**2)  # |L(w0 + fwhm)|^2 = 1/5
        assert abs(line_shape_product(cfg, d1=1.0, d2=1.0)) == pytest.approx(
            single, rel=1e-12
        )


class TestJRoutes:
    def test_quadrature_equals_closed_form_on_resonance(self):
        # At a linear null with perfect phase matching the coupler
        # integral has magnitude L/4: J is the four fields times the
        # material factor times L/4, written out here.
        dev = make_device()
        cfg = null_config(dev)
        jq = j_quadrature(dev, cfg)
        assert jq.j_abs == pytest.approx(null_overlap_oracle(dev, cfg), rel=1e-9)
        assert abs(jq.z_factor) == pytest.approx(dev.dc_length / 4.0, rel=1e-9)

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
        j_small = j_quadrature(dev, cfg).j_abs
        j_big = j_quadrature(big, cfg).j_abs
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
        # The single ring's |J| puts its round trip sqrt(L1 * L2) in place
        # of Z; dividing j_abs by the ratio gives it back.
        dev = make_device(l2_scale=1.0)
        cfg = null_config(dev)
        jq = j_quadrature(dev, cfg)
        l_mean = math.sqrt(dev.ring1.round_trip_length * dev.ring2.round_trip_length)
        j_single = abs(jq.j_value / jq.z_factor) * l_mean
        assert jq.j_abs / j_single == pytest.approx(
            dev.dc_length / (4.0 * dev.ring1.round_trip_length), rel=1e-9
        )
        assert jq.j_abs / j_single_ring_ratio(dev, cfg) == pytest.approx(j_single, rel=1e-14,
                                                                         abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(chi3_exp=st.integers(-300, 300), q_exp=st.integers(-3, 300),
           which=st.sampled_from(["chi3", "q", "both"]))
    def test_scaling_chi3_or_both_qs_leaves_the_ratio(self, chi3_exp, q_exp, which):
        # The fields and the material factor cancel, so the ratio is
        # |Z| / sqrt(L1 * L2) to the last bit, even where J itself
        # leaves the float range.
        dev = make_device()
        cfg = null_config(dev)
        wg, r1, r2 = dev.waveguide, dev.ring1, dev.ring2
        if which != "q":
            wg = replace(wg, chi3_bar=wg.chi3_bar * 10.0**chi3_exp)
        if which != "chi3":
            r1, r2 = (replace(r, q_intrinsic=r.q_intrinsic * 10.0**q_exp,
                              q_coupling=r.q_coupling * 10.0**q_exp) for r in (r1, r2))
        scaled = replace(dev, waveguide=wg, ring1=r1, ring2=r2)
        assert j_single_ring_ratio(scaled, cfg) == j_single_ring_ratio(dev, cfg)


@st.composite
def _devices(draw):
    """make_device variants: ring-2 length, quality factors, chi3, null
    order, dispersion, coupling phase and heater shifts."""
    two_pi_ghz = 2.0 * math.pi * 1e9
    return make_device(
        l2_scale=draw(st.floats(1.0, 1.4)),
        q_i=draw(st.floats(2e4, 1e6)),
        q_c=draw(st.floats(2e4, 1e6)),
        chi3=draw(st.floats(1e-20, 1e-18)),
        kappa_order=draw(st.integers(1, 3)),
        gvd=draw(st.floats(-1e-23, 1e-23)),
        kappa_phase=draw(st.floats(-math.pi, math.pi)),
        heater1=draw(st.floats(-100.0, 100.0)) * two_pi_ghz,
        heater2=draw(st.floats(-100.0, 100.0)) * two_pi_ghz,
    )


@st.composite
def _unequal_pump_cases(draw):
    """A make_device variant and its on-resonance configuration, with the
    second pump's loaded Q scaled so the pumps' quality factors differ."""
    dev = draw(_devices())
    cfg = resonant_config(dev, process_band(dev, n_spacings=draw(st.floats(4.2, 8.0))))
    p2 = replace(cfg.res_p2, q_loaded=draw(st.floats(0.8, 1.0)) * cfg.res_p2.q_loaded)
    return dev, replace(cfg, res_p2=p2)


def _two_body_parts(device, cfg):
    """The quality-factor prefactor and the material factor of the
    two-body form."""
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


def _two_body_j(device, cfg):
    """J as a separate body computed it, from the quality-factor prefactor,
    the material factor and Z. The reference for the one body of J, which
    multiplies the four fields instead."""
    pref, material = _two_body_parts(device, cfg)
    z = z_overlap_integral(device.kappa, device.dc_length, cfg.delta_k)
    enh = line_shape_product(cfg)
    return OverlapResult(pref * material * enh * z, z, enh)


# J against the two-body form: the product of the four fields and the
# quality-factor prefactor round differently.
TWO_BODY_RTOL = 4e-15


class TestClosedFormBody:
    @settings(max_examples=200, deadline=None)
    @given(case=_unequal_pump_cases())
    def test_routes_match_the_two_body_form(self, case):
        dev, cfg = case
        got, want = j_quadrature(dev, cfg), _two_body_j(dev, cfg)
        assert abs(got.j_value - want.j_value) <= TWO_BODY_RTOL * abs(want.j_value)
        assert got.z_factor == want.z_factor
        assert got.enhancement_product == want.enhancement_product
        assert got.warnings == want.warnings == ()


@st.composite
def _scaled_cases(draw):
    """An _unequal_pump_cases draw on a device whose rings' intrinsic and
    coupling Qs and chi3 are scaled by powers of ten, far enough for the
    fields, the material factor or J to leave the float range."""

    def scaled(ring):
        return replace(ring, q_intrinsic=ring.q_intrinsic * 10.0 ** draw(st.integers(0, 300)),
                       q_coupling=ring.q_coupling * 10.0 ** draw(st.integers(0, 300)))

    dev = draw(_devices())
    chi3 = dev.waveguide.chi3_bar * 10.0 ** draw(st.integers(-300, 300))
    dev = replace(dev, waveguide=replace(dev.waveguide, chi3_bar=chi3),
                  ring1=scaled(dev.ring1), ring2=scaled(dev.ring2))
    cfg = resonant_config(dev, process_band(dev, n_spacings=draw(st.floats(4.2, 8.0))))
    p2 = replace(cfg.res_p2, q_loaded=draw(st.floats(0.8, 1.0)) * cfg.res_p2.q_loaded)
    return dev, replace(cfg, res_p2=p2)


def _normal(x):
    return sys.float_info.min <= abs(x) < math.inf


# The one route of J; the properties below are parametrized over it.
J_ROUTES = (j_quadrature,)


def _exact(factors):
    """The product of float and complex ``factors`` in exact rationals, as (re, im)."""
    re, im = Fraction(1), Fraction(0)
    for f in factors:
        c = complex(f)
        fr, fi = Fraction(c.real), Fraction(c.imag)
        re, im = re * fr - im * fi, re * fi + im * fr
    return re, im


def _size(exact):
    """|exact|^2, exactly."""
    re, im = exact
    return re * re + im * im


def _gap(got, exact):
    """|got - exact|^2, exactly."""
    re, im = exact
    return (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2


def _j_factors(dev, cfg):
    """The six factors J multiplies: four fields, the material factor and
    Z, computed as J computes them."""
    wg = dev.waveguide
    fields = [lorentzian_response(res, res.omega0) * peak_amplitude(res, wg, dev.ring(res.owner))
              for res in (cfg.res_p1, cfg.res_p2, cfg.res_s, cfg.res_s)]
    spatial = z_overlap_integral(dev.kappa, dev.dc_length, cfg.delta_k)
    return (*fields, wg.chi3_bar / (wg.n_bar**4 * wg.area_eff), spatial)


# Five complex products of six factors, each within sqrt(5) units of
# rounding, bound the relative error of the product.
EXACT_RTOL = Fraction(4e-15)
SMALLEST = Fraction(2) ** -1074
TOP = Fraction(sys.float_info.max)


class TestScaledDevices:
    @settings(max_examples=500, deadline=None)
    @given(case=_scaled_cases())
    def test_routes_fail_together_and_match_the_two_body_form(self, case):
        # J of a scaled device either fails or matches the two-body form.
        dev, cfg = case
        try:
            got = j_quadrature(dev, cfg)
        except NonPhysical:
            return
        assert cmath.isfinite(got.j_value)
        fields = [peak_amplitude(res, dev.waveguide, dev.ring(res.owner))
                  for res in (cfg.res_p1, cfg.res_p2, cfg.res_s, cfg.res_s)]
        pref, material = _two_body_parts(dev, cfg)
        want = _two_body_j(dev, cfg)
        product = fields[0] * fields[1] * fields[2] * fields[3]
        if all(map(_normal, (fields[0] * fields[1], product, pref, material, got.j_abs,
                             want.j_abs))):
            assert abs(got.j_value - want.j_value) <= TWO_BODY_RTOL * abs(want.j_value)

    @pytest.mark.parametrize("route", J_ROUTES, ids=lambda route: route.__name__)
    @settings(max_examples=300, deadline=None)
    @given(case=_scaled_cases())
    def test_routes_match_the_exact_product(self, route, case):
        # J fails only when J itself is out of range: the running
        # product may pass far outside it on the way.
        dev, cfg = case
        try:
            factors = _j_factors(dev, cfg)
        except NonPhysical:
            with pytest.raises(NonPhysical):
                route(dev, cfg)
            return
        if factors[4] == 0.0:  # the material factor itself underflows
            with pytest.raises(NonPhysical, match="chi3_bar"):
                route(dev, cfg)
            return
        exact = _exact(factors)
        size = _size(exact)
        if size > (TOP * (1 + EXACT_RTOL)) ** 2:
            with pytest.raises(NonPhysical, match="J must be finite"):
                route(dev, cfg)
            return
        assume(size < (TOP * (1 - EXACT_RTOL)) ** 2)
        try:
            got = route(dev, cfg).j_value
        except NonPhysical as exc:
            # Refused only when it rounds to 0: below the smallest subnormal.
            assert "J underflows to 0" in str(exc)
            assert size < 2 * SMALLEST**2
            return
        # A subnormal J is reported with the digits it has: one more
        # rounding of each part, to a multiple of the smallest subnormal.
        # (a + b)^2 <= 2 (a^2 + b^2) bounds the sum of the two errors.
        assert _gap(got, exact) <= 2 * (EXACT_RTOL**2 * size + SMALLEST**2)


def _part(exponents):
    """A float m * 2**e with 0.5 <= |m| < 1 and e drawn from ``exponents``."""
    return st.builds(lambda m, sign, e: math.ldexp(sign * m, e),
                     st.floats(0.5, 1.0, exclude_max=True), st.sampled_from([1.0, -1.0]),
                     exponents)


def _j_shaped(lo, hi):
    """Six factors shaped like J's: four fields (0 + i*a, the unit line shape
    at its centre times a peak amplitude), a real material factor and a
    complex spatial factor whose parts lie within 2**40 of each other."""
    exponents = st.integers(lo, hi)
    field = st.builds(complex, st.sampled_from([0.0, -0.0]), _part(exponents))
    spatial = st.integers(lo, hi).flatmap(
        lambda e: st.builds(complex, _part(st.integers(e - 40, e + 40)), _part(st.just(e))))
    return st.tuples(field, field, field, field, _part(exponents), spatial)


def _normal_or_zero(x):
    return x == 0.0 or _normal(x)


def _plain_if_normal(factors):
    """The plain product ``factors[0] * factors[1] * ...``, or None where a
    factor, a partial product or one of its four part products is not a
    normal double or zero."""
    acc = factors[0]
    for f in factors[1:]:
        a, b = complex(acc), complex(f)
        parts = (a.real * b.real, a.imag * b.imag, a.real * b.imag, a.imag * b.real)
        acc = acc * f
        if not all(map(_normal_or_zero, (b.real, b.imag, *parts, acc.real, acc.imag))):
            return None
    return acc


def _scaled(factors):
    """``scaled_product`` of ``factors`` multiplied in turn, as J's are."""
    return scaled_product((f, 1) for f in factors)


def _ldexp(mantissa, exponent):
    return complex(math.ldexp(mantissa.real, exponent), math.ldexp(mantissa.imag, exponent))


class TestScaledProduct:
    @settings(max_examples=200, deadline=None)
    @given(factors=_j_shaped(-120, 120))
    def test_bit_identical_where_the_plain_product_is_normal(self, factors):
        plain = _plain_if_normal(factors)
        assume(plain is not None)
        assert _ldexp(*_scaled(factors)) == plain

    @settings(max_examples=200, deadline=None)
    @given(factors=_j_shaped(-300, 300))
    def test_matches_the_exact_product(self, factors):
        exact = _exact(factors)
        size = _size(exact)
        assume(Fraction(sys.float_info.min) ** 2 <= size <= (TOP / 2) ** 2)
        assert _gap(_ldexp(*_scaled(factors)), exact) <= EXACT_RTOL**2 * size


def _rate_shaped(lo, hi):
    """Up to 12 (x, p) factors shaped like a pair rate's: x of either sign
    with exponents in [lo, hi], multiplied in (p > 0) or divided out
    (p < 0), some of them as squares, cubes or fourth powers."""
    return st.lists(st.tuples(_part(st.integers(lo, hi)), st.sampled_from([1, -1, 2, 3, 4, -4])),
                    min_size=1, max_size=12)


def _plain_chain_if_normal(factors):
    """The product of x**p over ``factors`` as the rate routes wrote it,
    left to right with Python's ``**`` and ``/``, or None where a power or
    a partial product is not a normal double."""
    acc = 1.0
    for x, p in factors:
        try:
            power = x ** abs(p) if abs(p) != 1 else x
        except OverflowError:
            return None
        acc = acc * power if p > 0 else acc / power
        if not (_normal(power) and _normal(acc)):
            return None
    return acc


class TestScaledPowers:
    """Powers and quotients in the scaled product: ``x**2`` is not always
    ``x*x``, nor ``ldexp(m**2, 2*e)`` for x = m * 2**e, so a power inside
    the float range is taken as such and only scaled outside it."""

    @settings(max_examples=300, deadline=None)
    @given(factors=_rate_shaped(-120, 120))
    def test_bit_identical_where_the_plain_chain_is_normal(self, factors):
        plain = _plain_chain_if_normal(factors)
        assume(plain is not None)
        mantissa, exponent = scaled_product(factors)
        assert math.ldexp(mantissa, exponent) == plain

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_in_range_is_the_plain_power(self, n):
        # Where x**n and ldexp(m**n, n*e) differ (a few in 10^4 with some
        # libms, none with a correctly rounded pow), the product is x**n.
        rng = np.random.default_rng(20250101 + n)
        for m, e in zip(rng.uniform(0.5, 1.0, 20000).tolist(), rng.integers(-200, 200, 20000)):
            x = math.ldexp(m, int(e))
            mantissa, exponent = scaled_product([(x, n)])
            assert math.ldexp(mantissa, exponent) == x**n
            mantissa, exponent = scaled_product([(1.0, 1), (x, -n)])
            assert math.ldexp(mantissa, exponent) == 1.0 / x**n

    def test_power_at_the_edges_of_the_normal_range(self):
        # x**n is taken as such exactly where it is a normal double. At
        # n * e = 1023 it is one (e = 341 here, and x**3 differs from
        # ldexp(m**3, 1023) in the last bit with some libms). At
        # n * (e - 1) = -1024 it may be subnormal, so the mantissa's
        # power is scaled instead and keeps every digit.
        x = 4.0006095457369536e102
        assert math.frexp(x)[1] == 341
        assert math.ldexp(*scaled_product([(x, 3)])) == x**3
        x = math.ldexp(0.5 + 2.0**-53, -511)
        assert math.ldexp(*scaled_product([(x, 2), (2.0**600, 1)])) == (x * 2.0**300) ** 2
        # At n * (e - 1) = -1022, x**n is the least normal power, so it is
        # taken as such (e = -510 here, and x**2 differs from
        # ldexp(m**2, -1020) in the last bit with some libms).
        x = 1.9422324817725946e-154
        assert math.frexp(x)[1] == -510
        assert math.ldexp(*scaled_product([(x, 2)])) == x**2

    @settings(max_examples=300, deadline=None)
    @given(factors=_rate_shaped(-400, 400))
    def test_matches_the_exact_product(self, factors):
        exact = Fraction(1)
        for x, p in factors:
            exact *= Fraction(x) ** p
        assume(Fraction(sys.float_info.min) <= abs(exact) <= TOP / 2)
        mantissa, exponent = scaled_product(factors)
        # One rounding per step and at most one ulp per power.
        tol = len(factors) * Fraction(2) ** -51
        assert abs(Fraction(math.ldexp(mantissa, exponent)) - exact) <= tol * abs(exact)


@st.composite
def _on_line_cases(draw):
    """A make_device variant and its on-resonance configuration over a
    drawn band and pump separation."""
    dev = draw(_devices())
    lo, hi = process_band(dev, n_spacings=draw(st.floats(4.2, 8.0)))
    shift = draw(st.floats(-0.05, 0.05)) * lo
    cfg = resonant_config(dev, (lo + shift, hi + shift), pump_separation=draw(st.integers(1, 4)))
    return dev, cfg


def _four_frequency_forms(device, cfg):
    """The signal mismatch, the line-shape factor and J as they were
    computed from the four field frequencies, with each frequency
    written at its line centre. The reference for the on-line forms."""
    omega1 = omega2 = cfg.res_s.omega0
    omega3, omega4 = cfg.res_p1.omega0, cfg.res_p2.omega0
    mismatch = omega3 + omega4 - 2.0 * cfg.res_s.omega0
    enh = (
        lorentzian_response(cfg.res_p1, omega3)
        * lorentzian_response(cfg.res_p2, omega4)
        * lorentzian_response(cfg.res_s, omega1)
        * lorentzian_response(cfg.res_s, omega2)
    )
    wg = device.waveguide
    f3 = peak_amplitude(cfg.res_p1, wg, device.ring1) * lorentzian_response(cfg.res_p1, omega3)
    f4 = peak_amplitude(cfg.res_p2, wg, device.ring1) * lorentzian_response(cfg.res_p2, omega4)
    f1 = peak_amplitude(cfg.res_s, wg, device.ring2) * lorentzian_response(cfg.res_s, omega1)
    f2 = peak_amplitude(cfg.res_s, wg, device.ring2) * lorentzian_response(cfg.res_s, omega2)
    material = wg.chi3_bar / (wg.n_bar**4 * wg.area_eff)
    z_factor = z_overlap_integral(device.kappa, device.dc_length, cfg.delta_k)
    return mismatch, enh, f3 * f4 * f1 * f2 * material * z_factor


class TestFieldsOnTheirLines:
    @settings(max_examples=200, deadline=None)
    @given(case=_on_line_cases())
    def test_match_the_four_frequency_forms(self, case):
        dev, cfg = case
        mismatch, enh, j = _four_frequency_forms(dev, cfg)
        result = j_quadrature(dev, cfg)
        assert cfg.signal_mismatch == mismatch
        assert result.j_value == j
        assert result.enhancement_product == enh
        assert result.warnings == ()


class TestAssumptionChecks:
    def test_large_phase_mismatch(self):
        # The exact integral needs no small-mismatch regime: J follows
        # |Z(delta_k)| with nothing to note.
        dev = make_device()
        cfg = null_config(dev)
        mismatched = null_config(dev, delta_k=(math.pi / 5.0) / dev.dc_length)
        res = j_quadrature(dev, mismatched)
        assert res.warnings == ()
        z0 = z_overlap_integral(dev.kappa, dev.dc_length, 0.0)
        assert abs(res.z_factor) < abs(z0)
        assert res.j_abs / j_quadrature(dev, cfg).j_abs == pytest.approx(
            abs(res.z_factor) / abs(z0), rel=1e-14
        )

    def test_unequal_rings_noted_in_design_report(self):
        # The single-ring comparison's ring-length note reaches the report;
        # J itself notes nothing.
        dev = make_device(l2_scale=1.12)
        report = evaluate_design(dev, DesignGoal(signal_wavelength=1.55e-6))
        assert len(report.notes) == 1 and "ring lengths differ by 10.7%" in report.notes[0]
        assert j_quadrature(dev, null_config(dev)).warnings == ()


def _ring_pair(l1, l2):
    """The two round trips ``single_ring_reference`` reads."""
    return SimpleNamespace(ring1=SimpleNamespace(round_trip_length=l1),
                           ring2=SimpleNamespace(round_trip_length=l2))


class TestSingleRingReference:
    def test_note_starts_past_the_limit(self):
        # 100 - 99 is exactly 1% of 100: the limit itself is no note.
        assert RING_LENGTH_MISMATCH_LIMIT == 0.01
        assert single_ring_reference(_ring_pair(99.0, 100.0)) == (math.sqrt(9900.0), ())
        length, notes = single_ring_reference(_ring_pair(100.0, 98.9))
        assert length == math.sqrt(9890.0)
        assert notes == ("ring lengths differ by 1.1%; the single-ring comparison "
                         "assumes nearly equal round trips",)


@st.composite
def _assumption_inputs(draw):
    """A device on either side of the ring-length limit, and a
    configuration with a phase mismatch and unequal pump quality factors,
    which J does not note."""
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
    return dev, replace(cfg, res_p2=off)


class TestAssumptionNotes:
    @pytest.mark.parametrize("route", J_ROUTES, ids=lambda route: route.__name__)
    @settings(max_examples=60, deadline=None)
    @given(case=_assumption_inputs())
    def test_notes_name_crossed_limits(self, route, case):
        # The one note is the single-ring reference's, on ring lengths.
        dev, cfg = case
        l1, l2 = dev.ring1.round_trip_length, dev.ring2.round_trip_length
        crossed = abs(l1 - l2) > RING_LENGTH_MISMATCH_LIMIT * max(l1, l2)
        assert route(dev, cfg).warnings == ()
        notes = single_ring_reference(dev)[1]
        assert len(notes) == crossed
        assert all("ring lengths differ" in n for n in notes)


class TestResonantConfig:
    def test_structure(self):
        dev = make_device()
        cfg = resonant_config(dev, process_band(dev), pump_separation=2)
        assert cfg.res_p1.owner == 1 and cfg.res_p2.owner == 1
        assert cfg.res_s.owner == 2
        assert cfg.res_p1.order - cfg.res_p2.order == 2
        assert cfg.res_p2.omega0 < cfg.res_s.omega0 < cfg.res_p1.omega0

    def test_delta_k_from_dispersion(self):
        dev = make_device()
        cfg = resonant_config(dev, process_band(dev))
        wg = dev.waveguide
        expected = (
            wavevector(wg, cfg.res_p1.omega0)
            + wavevector(wg, cfg.res_p2.omega0)
            - 2.0 * wavevector(wg, cfg.res_s.omega0)
        )
        assert cfg.delta_k == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        dev = make_device()
        with pytest.raises(ValueError):
            resonant_config(dev, process_band(dev), pump_separation=0)
        with pytest.raises(ValueError):
            # Band too narrow for the requested separation.
            resonant_config(dev, process_band(dev, n_spacings=0.9), pump_separation=2)

    def test_pump_pair_needs_one_line_more_than_the_separation(self):
        dev = make_device()
        comb1 = device_combs(dev, process_band(dev))[0]
        with pytest.raises(ValueError, match="band holds only 2 ring-1 lines; need at least 3"):
            pump_pair(comb1[:2], comb1[0].omega0, 2)
        assert pump_pair(comb1[:3], comb1[0].omega0, 2) == (comb1[2], comb1[0])

    def test_process_config_owner_checks(self):
        cfg = null_config(make_device())
        with pytest.raises(ValueError):
            ProcessConfig(res_p1=cfg.res_s, res_p2=cfg.res_p2, res_s=cfg.res_s)  # wrong ring
        with pytest.raises(ValueError):
            ProcessConfig(res_p1=cfg.res_p1, res_p2=cfg.res_p2, res_s=cfg.res_p1)  # wrong ring


class TestRangeChecks:
    def test_signal_mismatch(self):
        cfg = null_config(make_device())
        p1, p2, s = cfg.res_p1, cfg.res_p2, cfg.res_s
        assert cfg.signal_mismatch == p1.omega0 + p2.omega0 - 2.0 * s.omega0
        moved = replace(cfg, res_p1=replace(p1, omega0=p1.omega0 + 7.0))
        assert moved.signal_mismatch == pytest.approx(cfg.signal_mismatch + 7.0, abs=1.0)

    @pytest.mark.parametrize("n_bar", [3.48e-200, 3.48e200])
    @pytest.mark.parametrize("route", J_ROUTES)
    def test_material_factor_out_of_range(self, route, n_bar):
        # n_bar^4 used to underflow to 0 (ZeroDivisionError) or overflow
        # (OverflowError).
        dev = make_device(n_bar=n_bar)
        with pytest.raises(NonPhysical, match="n_bar"):
            route(dev, null_config(make_device()))

    def test_huge_pump_coupling_q_gives_j(self):
        # sqrt(q_c1 * q_c2) overflows, so the old quality-factor prefactor
        # divided down to 0 and J raised NonPhysical. J multiplies the fields.
        dev = make_device(l2_scale=1.0, n_eff=4.2)
        dev = replace(dev, ring1=replace(dev.ring1, q_coupling=1e205))
        cfg = null_config(dev)
        res = j_quadrature(dev, cfg)
        assert 0.0 < res.j_abs < math.inf
        product = 1.0 + 0.0j
        for f in _j_factors(dev, cfg):
            product *= f
        assert res.j_value == pytest.approx(product, rel=4e-15, abs=0.0)
