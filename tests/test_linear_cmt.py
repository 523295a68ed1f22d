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
    dc_transfer,
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
    t = dc_transfer(mag * cmath.exp(1j * phase), length)
    assert abs(abs(t.through) ** 2 + abs(t.cross) ** 2 - 1.0) <= 1e-12


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
        assert dc_transfer(mag + 0j, length).cross_power < 1e-24

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_null_degrades_quadratically_nearby(self, m, sign):
        mag = 66666.0
        length = m * math.pi / mag * (1.0 + sign * 0.01)
        cross = dc_transfer(mag + 0j, length).cross_power
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
        assert dc_transfer(kappa, length).cross_power == cross_power
        got = isolation_db(kappa, length)
        if cross_power < 1e-20:
            assert got == 200.0
        else:
            assert got == -10.0 * math.log10(cross_power) < 200.0

    def test_phase_does_not_change_isolation(self):
        mag, length = 5e4, 2.3e-5
        base = isolation_db(mag + 0j, length)
        assert isolation_db(mag * cmath.exp(1.1j), length) == pytest.approx(
            base, rel=1e-12
        )


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


def test_length_validation():
    with pytest.raises(ValueError):
        dc_transfer(1e4 + 0j, 0.0)
    with pytest.raises(ValueError):
        CmtField("IN", 1e4 + 0j, -1.0)
    with pytest.raises(ValueError):
        kerr_detuned_efficiency(1e4 + 0j, 0.0, 1.0)


@pytest.mark.parametrize(
    "kappa, delta_beta",
    [(6.7e204, 48.9), (6.7e-196, 48.9), (1e4, 1e160)],
    ids=["kappa-huge", "kappa-tiny", "delta-beta-huge"],
)
def test_kerr_efficiency_out_of_range(kappa, delta_beta):
    # Squaring |kappa|, delta_beta or their ratio used to raise OverflowError.
    with pytest.raises(NonPhysical, match="overflows"):
        kerr_detuned_efficiency(kappa, 4.7e-5, delta_beta)


def _bits(z: complex) -> tuple[str, str]:
    """Both parts of z as hex strings, which tell -0.0 from 0.0."""
    return z.real.hex(), z.imag.hex()


def _old_dc_transfer(kappa, length):
    """(through, cross) as dc_transfer wrote them before it read the OUT field."""
    kappa = complex(kappa)
    mag = abs(kappa)
    if mag == 0.0:
        return 1.0 + 0.0j, 0.0j
    return complex(math.cos(mag * length)), 1j * phase_unit(kappa) * math.sin(mag * length)


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
    """dc_transfer reads the OUT field at the coupler's end, and the
    fields compute on floats; both keep the numbers they had before."""

    @settings(max_examples=300, deadline=None)
    @given(kappas, lengths)
    def test_dc_transfer_matches_old_expression(self, kappa, length):
        t = dc_transfer(kappa, length)
        through, cross = _old_dc_transfer(kappa, length)
        assert (_bits(t.through), _bits(t.cross)) == (_bits(through), _bits(cross))

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

    def test_degenerate_is_not_settable(self):
        # It used to be a field that could contradict kappa.
        with pytest.raises(TypeError):
            CmtField("IN", 1e4, 1e-5, degenerate=True)
