"""Coupler transfer physics: unitarity, nulls, and Kerr degradation."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringpair import (
    CmtField,
    NonPhysical,
    isolation_db,
    kerr_delta_beta,
    kerr_detuned_efficiency,
    kerr_validity_metric,
)
from ringpair.geometry import WaveguideParams
from ringpair.linear_cmt import phase_unit
from scipy.constants import c as C_VACUUM


def fields(kappa, length):
    """The coupler's IN-port and OUT-port fields."""
    return CmtField("IN", complex(kappa), length), CmtField("OUT", complex(kappa), length)


kappa_mags = st.floats(min_value=1.0, max_value=1e7)
kappa_phases = st.floats(min_value=-math.pi, max_value=math.pi)
lengths = st.floats(min_value=1e-7, max_value=1e-2)
fractions = st.floats(min_value=0.0, max_value=1.0)
# Coupling constants of any phase, exactly zero included.
kappas = st.builds(
    lambda mag, phase: mag * cmath.exp(1j * phase),
    st.one_of(st.just(0.0), kappa_mags),
    kappa_phases,
)


@settings(max_examples=200, deadline=None)
@given(kappa_mags, kappa_phases, lengths, fractions)
def test_field_power_is_conserved_along_z(mag, phase, length, frac):
    kappa = mag * cmath.exp(1j * phase)
    field_in, field_out = fields(kappa, length)
    z = frac * length
    for field in (field_in, field_out):
        total = abs(field.a1(z)) ** 2 + abs(field.a2(z)) ** 2
        assert abs(total - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(kappa_mags, kappa_phases, lengths)
def test_transfer_is_unitary(mag, phase, length):
    # The OUT field at the coupler's end: through a1(L), cross a2(L).
    field = CmtField("OUT", mag * cmath.exp(1j * phase), length)
    assert abs(abs(field.a1(length)) ** 2 + abs(field.a2(length)) ** 2 - 1.0) <= 1e-12


def test_boundary_values_at_entrance():
    field_in, field_out = fields(5e4 + 0j, 1e-4)
    # The IN field starts empty in guide 1 and full in guide 2; the OUT
    # field the other way round.
    assert field_in.a1(0.0) == 0.0
    assert abs(field_in.a2(0.0)) == pytest.approx(1.0, abs=1e-15)
    assert abs(field_out.a1(0.0)) == pytest.approx(1.0, abs=1e-15)
    assert field_out.a2(0.0) == 0.0


def test_beat_solution_values():
    mag, phase, length = 6.6e4, 0.5, 7e-5
    kappa = mag * cmath.exp(1j * phase)
    field_in, field_out = fields(kappa, length)
    z = 0.37 * length
    unit = cmath.exp(-1j * phase)
    assert field_in.a1(z) == pytest.approx(-1j * unit * math.sin(mag * z), abs=1e-15)
    assert field_in.a2(z) == pytest.approx(math.cos(mag * z), abs=1e-15)
    assert field_out.a1(z) == pytest.approx(math.cos(mag * z), abs=1e-15)
    assert field_out.a2(z) == pytest.approx(1j * unit * math.sin(mag * z), abs=1e-15)


class TestNull:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cross_power_vanishes_at_null_lengths(self, m):
        mag = 66666.0
        length = m * math.pi / mag
        assert kerr_detuned_efficiency(mag + 0j, length, 0.0) < 1e-24

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_null_degrades_quadratically_nearby(self, m, sign):
        mag = 66666.0
        length = m * math.pi / mag * (1.0 + sign * 0.01)
        cross = kerr_detuned_efficiency(mag + 0j, length, 0.0)
        assert cross == pytest.approx(math.sin(0.01 * m * math.pi) ** 2, rel=1e-10)

    def test_degenerate_fields_are_constant(self):
        field_in, field_out = fields(0.0, 1e-4)
        assert abs(field_in.kappa) == 0.0 and abs(field_out.kappa) == 0.0
        assert field_out.a1(5e-5) == 1.0
        assert field_in.a1(5e-5) == 0.0


class TestIsolation:
    def test_half_power_point(self):
        mag = 1e4
        length = math.pi / (4.0 * mag)  # |kappa| L = pi/4, cross = 1/2
        assert isolation_db(mag + 0j, length) == pytest.approx(
            10.0 * math.log10(2.0), rel=1e-12
        )

    def test_full_transfer_point(self):
        mag = 1e4
        length = math.pi / (2.0 * mag)
        assert isolation_db(mag + 0j, length) == pytest.approx(0.0, abs=1e-9)

    def test_exact_null_hits_the_cap(self):
        mag = 66666.0
        assert isolation_db(mag + 0j, math.pi / mag) == 200.0

    # At |kappa| = 1 and L near 1e-10, sin(L) is L: the cross power is L**2.
    @pytest.mark.parametrize("kappa, length, cross_power", [
        (0j, 4.7e-5, 0.0),  # no coupling, where the log is undefined
        (1.0 + 0j, 9.999999999999999e-11, 9.999999999999998e-21),  # one ulp below 1e-20
        (1.0 + 0j, 1.0000000000000021e-10, 1.0000000000000042e-20),  # log10 above -20.0
    ])
    def test_cap_at_a_cross_power_of_1e_20(self, kappa, length, cross_power):
        assert kerr_detuned_efficiency(kappa, length, 0.0) == cross_power
        got = isolation_db(kappa, length)
        if cross_power < 1e-20:
            assert got == 200.0
        else:
            assert got == -10.0 * math.log10(cross_power) < 200.0

    def test_phase_does_not_change_isolation(self):
        kappa, length = 5e4 * cmath.exp(1.1j), 2.3e-5
        assert isolation_db(kappa, length) == isolation_db(abs(kappa) + 0j, length)

    @settings(max_examples=300, deadline=None)
    @given(kappa_mags, kappa_phases, lengths)
    def test_isolation_is_exactly_phase_independent(self, mag, phase, length):
        # The cross power is sin^2(|kappa| L): the phasor of kappa never
        # enters it, not even in the last bit.
        kappa = mag * cmath.exp(1j * phase)
        assert isolation_db(kappa, length) == isolation_db(abs(kappa), length)


class TestKerrEfficiency:
    def test_pinned_worked_value(self):
        # |kappa| = 1, L = pi/2, delta_beta = 2 |kappa|: the prefactor is
        # 1/5 and the beat argument stretches by sqrt(2).
        got = kerr_detuned_efficiency(1.0 + 0j, math.pi / 2.0, 2.0)
        expected = (1.0 / 5.0) * math.sin(math.pi / 2.0 * math.sqrt(2.0)) ** 2
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.12662553420414155, rel=1e-12)

    def test_perfect_transfer_without_mismatch(self):
        mag = 3e4
        assert kerr_detuned_efficiency(mag + 0j, math.pi / (2.0 * mag), 0.0) == (
            pytest.approx(1.0, rel=1e-12)
        )

    def test_null_without_mismatch(self):
        mag = 3e4
        assert kerr_detuned_efficiency(mag + 0j, math.pi / mag, 0.0) == (
            pytest.approx(0.0, abs=1e-24)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e3, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e-3),
        st.floats(min_value=0.0, max_value=1e5),
    )
    def test_even_in_mismatch_and_bounded(self, mag, length, db):
        plus = kerr_detuned_efficiency(mag + 0j, length, db)
        minus = kerr_detuned_efficiency(mag + 0j, length, -db)
        assert plus == pytest.approx(minus, rel=1e-12, abs=1e-15)
        assert 0.0 <= plus <= 1.0

    def test_zero_coupling(self):
        assert kerr_detuned_efficiency(0.0, 1e-4, 50.0) == 0.0
        assert kerr_detuned_efficiency(0.0, 1e-4, 0.0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(kappas, lengths, st.floats(min_value=-1e7, max_value=1e7))
    def test_matches_the_unscaled_expression(self, kappa, length, db):
        # Where no square leaves the float range, the scaled pair gives the
        # docstring's expression: the phase bit for bit, the prefactor to
        # the last bits of its squares.
        mag = abs(kappa)
        got = kerr_detuned_efficiency(kappa, length, db)
        if mag == 0.0:
            assert got == 0.0
            return
        phase = mag * length * math.sqrt(1.0 + (db / (2.0 * mag)) ** 2)
        pref = mag**2 / (mag**2 + db**2)
        assert got == pytest.approx(pref * math.sin(phase) ** 2, rel=1e-15, abs=0.0)

    def test_ratio_whose_square_overflows(self):
        # |kappa| = 1 against delta_beta = 1e160: the prefactor is a subnormal
        # 1e-320 and (delta_beta / 2|kappa|)^2 overflows, so the phase is
        # L * delta_beta / 2 = 5e9 rad.
        got = kerr_detuned_efficiency(1.0, 1e-150, 1e160)
        assert 0.0 < got == pytest.approx(1e-320 * math.sin(5e9) ** 2, rel=1e-3)

    @pytest.mark.parametrize("length, refused", [
        (2.0**53 - 1.0, False), (2.0**53, True), (math.ldexp(1.0, 1000), True),
    ])
    def test_phase_from_2_53_is_refused(self, length, refused):
        # At |kappa| = 1 and no mismatch the phase is L itself. From 2**53 on,
        # doubles are 2 rad apart and the sine has no digit left.
        if refused:
            with pytest.raises(NonPhysical, match=r"phase .* not below 2\*\*53"):
                kerr_detuned_efficiency(1.0, length, 0.0)
            with pytest.raises(NonPhysical, match=r"phase .* not below 2\*\*53"):
                isolation_db(1.0, length)
        else:
            assert kerr_detuned_efficiency(1.0, length, 0.0) == math.sin(length) ** 2


class TestKerrScales:
    def _wg(self, n_g=4.2, gamma=100.0, lambda_ref=1.55e-6):
        return WaveguideParams(
            n_eff_ref=2.4,
            n_g=n_g,
            omega_ref=2.0 * math.pi * C_VACUUM / lambda_ref,
            gamma_nl=gamma,
        )

    def test_delta_beta_worked_value(self):
        # gamma 200 /W/m, 5 mW in, finesse 10: 10 per meter.
        wg = self._wg(gamma=200.0)
        assert kerr_delta_beta(wg, 5e-3, 10.0) == pytest.approx(10.0, rel=1e-14)

    def test_delta_beta_scaling(self):
        wg = self._wg()
        assert kerr_delta_beta(wg, 0.0, 50.0) == 0.0
        assert kerr_delta_beta(wg, 2e-3, 50.0) == pytest.approx(
            2.0 * kerr_delta_beta(wg, 1e-3, 50.0), rel=1e-14
        )
        with pytest.raises(ValueError):
            kerr_delta_beta(wg, -1e-3, 50.0)
        with pytest.raises(ValueError):
            kerr_delta_beta(wg, 1e-3, 0.0)

    def test_metric_silicon_operating_point(self):
        # 200 /W/m, 5 mW, 1.5 um, loaded Q 5e4, group index 3.
        wg = self._wg(n_g=3.0, gamma=200.0, lambda_ref=1.5e-6)
        got = kerr_validity_metric(wg, 5e-3, 5e4, 1.5e-6)
        assert got == pytest.approx(0.00625, rel=1e-12)

    def test_metric_nitride_operating_point(self):
        # 1 /W/m, 0.5 W, 1.5 um, loaded Q 1e6, group index 2.
        wg = self._wg(n_g=2.0, gamma=1.0, lambda_ref=1.5e-6)
        got = kerr_validity_metric(wg, 0.5, 1e6, 1.5e-6)
        assert got == pytest.approx(0.09375, rel=1e-12)

    def test_metric_linear_in_power(self):
        wg = self._wg()
        assert kerr_validity_metric(wg, 0.0, 5e4, 1.55e-6) == 0.0
        assert kerr_validity_metric(wg, 2e-3, 5e4, 1.55e-6) == pytest.approx(
            2.0 * kerr_validity_metric(wg, 1e-3, 5e4, 1.55e-6), rel=1e-14
        )

    def test_metric_validation(self):
        wg = self._wg()
        with pytest.raises(ValueError):
            kerr_validity_metric(wg, -1e-3, 5e4, 1.55e-6)
        with pytest.raises(ValueError):
            kerr_validity_metric(wg, 1e-3, 0.0, 1.55e-6)
        with pytest.raises(ValueError):
            kerr_validity_metric(wg, 1e-3, 5e4, -1.0)

    @pytest.mark.parametrize("p_in, q_loaded", [(1e308, 5e4), (1e10, 1e308)])
    def test_overflowing_metric_is_non_physical(self, p_in, q_loaded):
        # Finite inputs whose product overflows: the metric was returned as inf.
        wg = self._wg()
        with pytest.raises(NonPhysical, match="^Kerr validity metric must be finite, got inf$"):
            kerr_validity_metric(wg, p_in, q_loaded, 1.55e-6)
        assert math.isfinite(kerr_validity_metric(wg, 1e300, 5e4, 1.55e-6))


def test_length_validation():
    with pytest.raises(ValueError):
        isolation_db(1e4 + 0j, 0.0)
    with pytest.raises(ValueError):
        CmtField("IN", 1e4 + 0j, -1.0)
    with pytest.raises(ValueError):
        kerr_detuned_efficiency(1e4 + 0j, 0.0, 1.0)


@pytest.mark.parametrize(
    "kappa, delta_beta, refused",
    [(6.7e204, 48.9, True), (6.7e-196, 48.9, False), (1e4, 1e160, True)],
    ids=["kappa-huge", "kappa-tiny", "delta-beta-huge"],
)
def test_kerr_efficiency_out_of_range(kappa, delta_beta, refused):
    # Squaring |kappa|, delta_beta or their ratio used to raise OverflowError,
    # then NonPhysical. The squares are now of a scaled pair: a coupling too
    # weak for the mismatch has no crosstalk, and only a phase from 2**53 on
    # (3.1e200 and 2.4e155 rad here) is refused.
    if refused:
        with pytest.raises(NonPhysical, match=r"phase .* not below 2\*\*53"):
            kerr_detuned_efficiency(kappa, 4.7e-5, delta_beta)
    else:
        assert kerr_detuned_efficiency(kappa, 4.7e-5, delta_beta) == 0.0


def _numpy_fields(field, z):
    """(a1, a2) as CmtField computed them with numpy before the math form."""
    z = np.asarray(z, dtype=float)
    mag = abs(field.kappa)
    if field.port == "OUT":
        return (complex(np.cos(mag * z) + 0.0j),
                complex(1j * phase_unit(field.kappa) * np.sin(mag * z)))
    return (complex(-1j * phase_unit(field.kappa) * np.sin(mag * z)),
            complex(np.cos(mag * z) + 0.0j))


class TestOneBeatSolution:
    """The OUT field's cross power at the coupler's end is the one route's,
    and the fields compute on floats with the numbers they had before."""

    @settings(max_examples=300, deadline=None)
    @given(kappas, lengths)
    def test_out_field_cross_power_is_the_one_route(self, kappa, length):
        cross = abs(CmtField("OUT", kappa, length).a2(length)) ** 2
        assert abs(cross - kerr_detuned_efficiency(kappa, length, 0.0)) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(kappas, lengths, fractions)
    def test_fields_match_numpy_expressions(self, kappa, length, frac):
        z = frac * length
        for field in fields(kappa, length):
            a1, a2 = _numpy_fields(field, z)
            assert type(field.a1(z)) is complex and type(field.a2(z)) is complex
            assert abs(field.a1(z) - a1) <= 1e-15
            assert abs(field.a2(z) - a2) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(kappas, lengths)
    def test_degenerate_is_kappa_zero(self, kappa, length):
        # At kappa = 0 the amplitudes keep their z = 0 values along the coupler.
        for field in fields(kappa, length):
            if kappa == 0:
                assert (field.a1(length), field.a2(length)) == (field.a1(0.0), field.a2(0.0))

    def test_field_phase_of_the_refused_coupler_is_refused(self):
        # The fields took sin and cos of any phase: at |kappa| = 1e300 and
        # z = 1 m the OUT field's cross power was 0.6689, where the one
        # cross-power route refuses the phase.
        with pytest.raises(NonPhysical) as route:
            kerr_detuned_efficiency(1e300, 1.0, 0.0)
        for field in fields(1e300 + 0j, 1.0):
            for amplitude in (field.a1, field.a2):
                with pytest.raises(NonPhysical) as got:
                    amplitude(1.0)
                assert str(got.value) == str(route.value)

    @pytest.mark.parametrize("z, refused", [
        (2.0**53 - 1.0, False), (2.0**53, True), (1.0 - 2.0**53, False), (-(2.0**53), True),
    ])
    def test_field_phase_from_2_53_is_refused(self, z, refused):
        # At |kappa| = 1 the beat phase is z itself; from 2**53 rad on, in
        # either direction, doubles are 2 rad apart.
        for field in fields(1.0 + 0j, 1.0):
            for amplitude in (field.a1, field.a2):
                if refused:
                    with pytest.raises(NonPhysical, match=r"phase 9\.0072e\+15 rad is not below"):
                        amplitude(z)
                else:
                    assert abs(amplitude(z)) <= 1.0

    def test_degenerate_is_not_settable(self):
        # It used to be a field that could contradict kappa.
        with pytest.raises(TypeError):
            CmtField("IN", 1e4, 1e-5, degenerate=True)
