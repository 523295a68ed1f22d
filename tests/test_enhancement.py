"""Peak enhancement, line shape and per-ring intensity spectra."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringpair import (
    EmptyBand,
    NonPhysical,
    Resonance,
    device_combs,
    fsr,
    intensity_spectrum,
    lorentzian_response,
    peak_amplitude,
    resonance_comb,
    spectrum_to_csv,
)

from ringpair import enhancement
from ringpair.enhancement import linspace_plain, spectrum_csv
from ringpair.quadrature import integrate_adaptive
from ringpair.record import replace

from conftest import NO_SHRINK, lorentzian_sum_oracle, make_device, process_band


def one_resonance(device, owner=1):
    ring = device.ring(owner)
    comb = resonance_comb(ring, device.waveguide, process_band(device), owner=owner)
    return comb[len(comb) // 2]


def line_arrays(device, comb):
    """Centers, half widths and peak intensities of ``comb``'s lines."""
    return (
        np.array([r.omega0 for r in comb]),
        np.array([0.5 * r.linewidth for r in comb]),
        np.array([peak_amplitude(r, device.waveguide, device.ring(r.owner)) ** 2 for r in comb]),
    )


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


_LINES = st.builds(Resonance, owner=st.just(1), order=st.just(1000),
                   omega0=st.floats(1e12, 1e17), q_loaded=st.floats(2.0, 1e9),
                   q_coupling=st.just(1e12))


class TestLineShape:
    @settings(max_examples=300, deadline=None)
    @given(_LINES)
    def test_on_resonance_value_and_phase(self, res):
        # The unit line shape contributes exactly -i on resonance, whatever
        # the width: hw / (0 + i hw) divides hw by itself.
        assert lorentzian_response(res, res.omega0) == -1j

    @settings(max_examples=300, deadline=None)
    @given(_LINES, st.floats(-1e6, 1e6))
    def test_matches_the_rational_form(self, res, units):
        # hw / (x + i hw) = hw (x - i hw) / (x^2 + hw^2), to rounding, on
        # and off the line, with x the offset the function itself forms.
        omega = res.omega0 + units * res.linewidth
        hw = 0.5 * res.linewidth
        x = omega - res.omega0
        got = lorentzian_response(res, omega)
        assert type(got) is complex
        want = hw * (x - 1j * hw) / (x * x + hw * hw)
        assert abs(got - want) <= 1e-15 * abs(want)

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
        lines = line_arrays(dev, [res])
        peak_sq = lines[2][0]
        hw = 0.5 * res.linewidth
        span = 50.0 * res.linewidth
        value, _ = integrate_adaptive(
            lambda w: lorentzian_sum_oracle(w, *lines),
            res.omega0 - span,
            res.omega0 + span,
            abs_tol=1e-6 * peak_sq * hw,
        )
        exact = peak_sq * 2.0 * hw * math.atan(span / hw)
        assert value.real == pytest.approx(exact, rel=1e-9)
        full = peak_sq * math.pi * hw
        assert value.real / full == pytest.approx(2.0 * math.atan(100.0) / math.pi, rel=1e-9)
        assert value.real / full > 0.99


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
        comb1, _comb2 = device_combs(dev, band)
        grid_step = result.omega[1] - result.omega[0]
        for res in comb1:
            i = int(np.argmin(np.abs(result.omega - res.omega0)))
            window = result.f1_sq[max(i - 3, 0) : i + 4]
            assert result.f1_sq[i] == np.max(window)
            peak = peak_amplitude(res, dev.waveguide, dev.ring1) ** 2
            assert result.f1_sq[i] > 0.5 * peak
        # Mid-gap the spectrum is tail-dominated and tiny.
        mid = 0.5 * (comb1[0].omega0 + comb1[1].omega0)
        j = int(np.argmin(np.abs(result.omega - mid)))
        peak0 = peak_amplitude(comb1[0], dev.waveguide, dev.ring1) ** 2
        assert result.f1_sq[j] < 1e-3 * peak0
        assert grid_step < comb1[0].linewidth

    def test_half_spacing_heater_interleaves_combs(self):
        dev0 = make_device(l2_scale=1.0)
        w_ref = dev0.waveguide.omega_ref
        half_fsr = 0.5 * fsr(dev0.ring2, dev0.waveguide, w_ref)
        dev = make_device(l2_scale=1.0, heater2=half_fsr)
        comb1, comb2 = device_combs(dev, process_band(dev))
        centers1 = np.array([r.omega0 for r in comb1])
        for res in comb2:
            gap = np.min(np.abs(centers1 - res.omega0))
            assert gap == pytest.approx(half_fsr, rel=0.02)

    def test_column_values_are_profile_sums(self):
        dev = make_device()
        result = intensity_spectrum(dev, process_band(dev), 301)
        comb2 = device_combs(dev, process_band(dev))[1]
        manual = lorentzian_sum_oracle(result.omega, *line_arrays(dev, comb2))
        np.testing.assert_allclose(result.f2_sq, manual, rtol=1e-12)

    def test_equality_is_field_by_field(self):
        # Records compare field by field; the fields here are arrays, so
        # == compares them whole and a spectrum has no hash.
        dev = make_device()
        a = intensity_spectrum(dev, process_band(dev), 11)
        b = intensity_spectrum(dev, process_band(dev), 11)
        assert a == b and not a != b
        moved = b.f2_sq.copy()
        moved[-1] = np.nextafter(moved[-1], np.inf)
        assert a != replace(b, f2_sq=moved)
        assert a != replace(b, f1_sq=b.f1_sq[:-1])
        assert a != replace(b, omega=b.omega + 1.0)
        assert (a == (a.omega, a.f1_sq, a.f2_sq)) is False
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

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


class TestRoutes:
    """spectrum_csv's plain-Python and numpy routes give the same bytes."""

    @staticmethod
    def _forced(route, dev, band, n):
        with mock.patch.object(enhancement, "_plain_is_cheaper", lambda *_: route == "plain"):
            return spectrum_csv(dev, band, n)

    # Without Phase.shrink: shrinking a failing example of up to 4001
    # points ran for over 600 s before it reported.
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(
        n=st.sampled_from([2, 3, 8, 9, 4001]) | st.integers(2, 4001),
        spacings=st.sampled_from([0.3, 1.0, 4.2, 12.0]),
        heater=st.floats(-0.5, 0.5),
    )
    def test_plain_and_numpy_routes_write_the_same_csv(self, n, spacings, heater):
        base = make_device()
        spacing = fsr(base.ring1, base.waveguide, base.waveguide.omega_ref)
        dev = make_device(heater1=heater * spacing)
        band = process_band(dev, spacings)
        try:
            plain = self._forced("plain", dev, band, n)
        except EmptyBand:
            assume(False)
        assert plain == self._forced("numpy", dev, band, n)
        assert plain == spectrum_to_csv(intensity_spectrum(dev, band, n))

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.floats(1e12, 1e16),
        width=st.floats(1e-3, 1e15) | st.sampled_from([0.0, 5e-324]),
        n=st.sampled_from([2, 3, 4001]) | st.integers(2, 5000),
    )
    def test_plain_grid_equals_linspace(self, lo, width, n):
        hi = lo + width
        got = np.array(linspace_plain(lo, hi, n))
        assert got.tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_plain_grid_where_the_step_underflows(self):
        # numpy divides before it scales when (hi - lo) / (n - 1) is 0.0.
        for lo, hi, n in ((0.0, 5e-324, 3), (0.0, 1e-323, 7), (1e-310, 1e-310, 5)):
            got = np.array(linspace_plain(lo, hi, n))
            assert got.tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_route_rule(self):
        # The README spectrum (4001 points x 17 lines) and the default 2001
        # points go plain; many points with few lines, and the benchmark's
        # wide spectra, go through numpy.
        cheaper = enhancement._plain_is_cheaper
        assert cheaper(4001, 17) and cheaper(2001, 17)
        assert not cheaper(100001, 2)
        assert not cheaper(100001, 113) and not cheaper(20001, 575)
        # Many lines over few points go plain: numpy's calls cost as much
        # a line as the plain sum does at 24 points.
        assert cheaper(70, 10**4) and cheaper(3, 2**20)
