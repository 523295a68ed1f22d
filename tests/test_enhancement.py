"""Field enhancement profiles and per-ring intensity spectra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringpair import (
    EmptyBand,
    NonPhysical,
    Resonance,
    fsr,
    integrate_adaptive,
    intensity_spectrum,
    lorentzian_response,
    peak_amplitude,
    resonance_comb,
    ring_profiles,
    spectrum_to_csv,
)

from conftest import make_device, process_band


def one_resonance(device, owner=1):
    ring = device.ring(owner)
    comb = resonance_comb(ring, device.waveguide, process_band(device), owner=owner)
    return comb[len(comb) // 2]


class TestPeakAmplitude:
    def test_matches_formula(self):
        dev = make_device(q_i=2e5, q_c=1.2e5)
        res = one_resonance(dev)
        wg, ring = dev.waveguide, dev.ring1
        expected = math.sqrt(
            4.0 * res.q_loaded * wg.v_g / (ring.round_trip_length * res.omega0)
        ) * math.sqrt(res.q_loaded / res.q_coupling)
        assert peak_amplitude(res, wg, ring) == pytest.approx(expected, rel=1e-14)

    def test_critical_coupling_shares_half(self):
        # Equal intrinsic and coupling Q: loaded Q is half the coupling
        # Q, so the second factor under the root is exactly 1/2.
        dev = make_device(q_i=1e5, q_c=1e5)
        res = one_resonance(dev)
        assert res.q_loaded / res.q_coupling == pytest.approx(0.5, rel=1e-14)

    def test_grows_with_loaded_q(self):
        lo = make_device(q_i=1e5, q_c=1e5)
        hi = make_device(q_i=4e5, q_c=4e5)
        assert peak_amplitude(
            one_resonance(hi), hi.waveguide, hi.ring1
        ) > peak_amplitude(one_resonance(lo), lo.waveguide, lo.ring1)


    def test_overflowing_peak_intensity_is_non_physical(self):
        dev = make_device()
        res = Resonance(owner=1, order=100, omega0=1.2e15, q_loaded=1e150, q_coupling=1e-100)
        with pytest.raises(NonPhysical, match="peak intensity"):
            peak_amplitude(res, dev.waveguide, dev.ring1)


class TestLineShape:
    def test_on_resonance_value_and_phase(self):
        dev = make_device()
        res = one_resonance(dev)
        # The unit line shape contributes exactly -i on resonance.
        assert lorentzian_response(res, res.omega0) == pytest.approx(-1j, rel=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_half_maximum_at_half_linewidth(self, sign):
        dev = make_device()
        res = one_resonance(dev)
        w = res.omega0 + sign * 0.5 * res.linewidth
        assert abs(lorentzian_response(res, w)) ** 2 == pytest.approx(0.5, rel=1e-9)

    def test_unit_line_shape_magnitude_bounded(self):
        dev = make_device()
        res = one_resonance(dev)
        w = res.omega0 + np.linspace(-10, 10, 41) * res.linewidth
        mags = np.array([abs(lorentzian_response(res, x)) for x in w.tolist()])
        assert np.all(mags <= 1.0 + 1e-15)
        assert np.argmax(mags) == 20

    def test_area_under_intensity_profile(self):
        # Integrated over +-50 linewidths the squared profile carries
        # 2 * atan(100) / pi of the full Lorentzian area.
        dev = make_device()
        res = one_resonance(dev)
        profile = ring_profiles(dev, [res])[0]
        hw = 0.5 * res.linewidth
        span = 50.0 * res.linewidth
        value, _ = integrate_adaptive(
            lambda w: profile.intensity(w),
            res.omega0 - span,
            res.omega0 + span,
            abs_tol=1e-6 * profile.peak_intensity * hw,
        )
        exact = profile.peak_intensity * 2.0 * hw * math.atan(span / hw)
        assert value.real == pytest.approx(exact, rel=1e-9)
        full = profile.peak_intensity * math.pi * hw
        assert value.real / full == pytest.approx(2.0 * math.atan(100.0) / math.pi, rel=1e-9)
        assert value.real / full > 0.99


def _bits(z: complex) -> tuple[str, str]:
    """Both parts of z as hex strings, which tell -0.0 from 0.0."""
    return z.real.hex(), z.imag.hex()


def _numpy_line(res, omega):
    """The line shape as numpy divided it for a scalar before the float path."""
    hw = 0.5 * res.linewidth
    return complex(hw / ((np.asarray(omega, dtype=float) - res.omega0) + 1j * hw))


@st.composite
def _line_and_offset(draw, near):
    """A resonance and a frequency |x| < hw (near) or |x| >= hw from it."""
    res = Resonance(
        owner=1,
        order=1000,
        omega0=draw(st.floats(1e12, 1e17)),
        q_loaded=draw(st.floats(2.0, 1e9)),
        q_coupling=1e12,
    )
    units = st.floats(-0.5, 0.5) if near else st.floats(0.5, 1e6).map(
        lambda u: u * draw(st.sampled_from([-1.0, 1.0]))
    )
    omega = res.omega0 + draw(units) * res.linewidth
    assume((abs(omega - res.omega0) < 0.5 * res.linewidth) == near)
    return res, omega


class TestLineShapeMatchesNumpy:
    """A float omega gives, bit for bit, what numpy gave for it as a 0-d
    array, in both branches of Smith's division. At the center
    x = omega - omega0 is +0 (a - a rounds to +0); its one-ulp
    neighbours give x of either sign."""

    @staticmethod
    def _assert_same(res, omega):
        got = lorentzian_response(res, omega)
        assert type(got) is complex
        assert _bits(got) == _bits(_numpy_line(res, omega))

    @settings(max_examples=300, deadline=None)
    @given(_line_and_offset(near=True))
    def test_near_branch(self, case):
        self._assert_same(*case)

    @settings(max_examples=300, deadline=None)
    @given(_line_and_offset(near=False))
    def test_far_branch(self, case):
        self._assert_same(*case)

    @pytest.mark.parametrize("omega", [1e300, -1e300])
    def test_far_tail_where_the_ratio_underflows(self, omega):
        # hw / x underflows to a signed zero: the imaginary part keeps
        # numpy's sign of zero.
        res = Resonance(owner=1, order=1, omega0=1e-100, q_loaded=2.0, q_coupling=4.0)
        self._assert_same(res, omega)

    @pytest.mark.parametrize("step", [0, 1, -1])
    def test_at_the_center(self, step):
        res = one_resonance(make_device())
        omega = res.omega0
        if step:
            omega = math.nextafter(omega, step * math.inf)
        self._assert_same(res, omega)


class TestSpectrum:
    def test_identical_rings_give_identical_columns(self):
        dev = make_device(l2_scale=1.0)
        assert dev.ring1 == dev.ring2
        result = intensity_spectrum(dev, process_band(dev), 2001)
        np.testing.assert_array_equal(result.f1_sq, result.f2_sq)

    def test_peaks_sit_on_comb_lines(self):
        dev = make_device()
        band = process_band(dev)
        result = intensity_spectrum(dev, band, 8001)
        grid_step = result.omega[1] - result.omega[0]
        for res in result.comb1:
            i = int(np.argmin(np.abs(result.omega - res.omega0)))
            window = result.f1_sq[max(i - 3, 0) : i + 4]
            assert result.f1_sq[i] == np.max(window)
            peak = peak_amplitude(res, dev.waveguide, dev.ring1) ** 2
            assert result.f1_sq[i] > 0.5 * peak
        # Mid-gap the spectrum is tail-dominated and tiny.
        mid = 0.5 * (result.comb1[0].omega0 + result.comb1[1].omega0)
        j = int(np.argmin(np.abs(result.omega - mid)))
        peak0 = peak_amplitude(result.comb1[0], dev.waveguide, dev.ring1) ** 2
        assert result.f1_sq[j] < 1e-3 * peak0
        assert grid_step < result.comb1[0].linewidth

    def test_half_spacing_heater_interleaves_combs(self):
        dev0 = make_device(l2_scale=1.0)
        w_ref = dev0.waveguide.omega_ref
        half_fsr = 0.5 * fsr(dev0.ring2, dev0.waveguide, w_ref)
        dev = make_device(l2_scale=1.0, heater2=half_fsr)
        result = intensity_spectrum(dev, process_band(dev), 1001)
        centers1 = np.array([r.omega0 for r in result.comb1])
        for res in result.comb2:
            gap = np.min(np.abs(centers1 - res.omega0))
            assert gap == pytest.approx(half_fsr, rel=0.02)

    def test_column_values_are_profile_sums(self):
        dev = make_device()
        result = intensity_spectrum(dev, process_band(dev), 301)
        profiles = ring_profiles(dev, result.comb2)
        manual = sum(p.intensity(result.omega) for p in profiles)
        np.testing.assert_allclose(result.f2_sq, manual, rtol=1e-12)

    def test_validation(self):
        dev = make_device()
        with pytest.raises(ValueError):
            intensity_spectrum(dev, process_band(dev), 1)
        comb = resonance_comb(dev.ring1, dev.waveguide, process_band(dev), owner=1)
        mid = 0.5 * (comb[0].omega0 + comb[1].omega0)
        width = 0.01 * (comb[1].omega0 - comb[0].omega0)
        with pytest.raises(EmptyBand):
            intensity_spectrum(dev, (mid - width, mid + width), 101)


class TestCsv:
    def test_header_and_round_trip(self):
        dev = make_device()
        result = intensity_spectrum(dev, process_band(dev), 101)
        text = spectrum_to_csv(result)
        lines = text.splitlines()
        assert lines[0] == "omega_rad_s,f1_sq,f2_sq"
        assert len(lines) == 102
        assert text.endswith("\n")
        # 17 significant digits reproduce the doubles exactly.
        for i in (1, 50, 101):
            w, a, b = (float(v) for v in lines[i].split(","))
            assert w == result.omega[i - 1]
            assert a == result.f1_sq[i - 1]
            assert b == result.f2_sq[i - 1]
