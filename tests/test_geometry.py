"""Dispersion law, resonance combs, and the geometry value types.

Derivative-based properties (group index, curvature of the propagation
constant) are checked against finite differences; the dispersion model
is polynomial in frequency, so central differences are exact up to
float rounding and the comparisons can be tight.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.constants
from hypothesis import assume, given, settings, strategies as st
from scipy.constants import c as C_VACUUM
from scipy.optimize import brentq

from ringpair import (
    CouplingModel,
    DeviceSpec,
    EmptyBand,
    NoConvergence,
    NonPhysical,
    RacetrackSpec,
    Resonance,
    WaveguideParams,
    device_combs,
    finesse,
    fsr,
    geometry,
    group_index,
    load_device,
    resonance_comb,
    wavevector,
)
from ringpair.deviceio import FILE_FORMAT, swept_devices
from ringpair.geometry import MAX_COMB_ORDERS
from ringpair.record import asdict, replace

from conftest import DEVICE_JSON, REPO, make_device, process_band

TWO_PI = 2.0 * math.pi


def _wg(n_eff=2.4, n_g=4.2, lambda_ref=1.55e-6, gvd=0.0):
    return WaveguideParams(
        n_eff_ref=n_eff, n_g=n_g, omega_ref=TWO_PI * C_VACUUM / lambda_ref, gvd=gvd
    )


def _effective_index(wg, omega):
    """n_eff = k c / w, the route that replaced ``ringpair.effective_index``."""
    return wavevector(wg, omega) * C_VACUUM / omega


def _waveguides():
    """Waveguides with n_eff_ref 1e-3 to 1e3, n_g 1e-3 to 1e6 and GVD zero or either sign."""
    return st.builds(
        WaveguideParams,
        n_eff_ref=st.floats(1e-3, 1e3),
        n_g=st.floats(1e-3, 1e6),
        omega_ref=st.floats(1e9, 1e18),
        gvd=st.one_of(st.just(0.0), st.floats(-1e-20, 1e-20)),
    )


class TestDispersion:
    def test_index_at_reference(self):
        wg = _wg()
        assert _effective_index(wg, wg.omega_ref) == pytest.approx(2.4, rel=1e-15)

    def test_index_one_percent_above_reference(self):
        # Slope is n_g - n_eff_ref per relative detuning.
        wg = _wg()
        n = _effective_index(wg, 1.01 * wg.omega_ref)
        assert n == pytest.approx(2.4 + (4.2 - 2.4) * 0.01, rel=1e-12)
        assert n == pytest.approx(2.418, rel=1e-12)

    def test_wavevector_definition(self):
        # k = n_eff w / c with the Taylor index law plus the GVD term.
        for gvd in (0.0, 5e-24):
            wg = _wg(gvd=gvd)
            for scale in (0.98, 1.0, 1.02):
                w = scale * wg.omega_ref
                detune = w - wg.omega_ref
                n = wg.n_eff_ref + (wg.n_g - wg.n_eff_ref) * detune / wg.omega_ref
                taylor = n * w / C_VACUUM + 0.5 * gvd * detune * detune
                assert wavevector(wg, w) == pytest.approx(taylor, rel=1e-14)

    @pytest.mark.parametrize("gvd", [0.0, 5e-24, -3e-24])
    @pytest.mark.parametrize("scale", [1.0, 0.98, 1.03])
    def test_group_index_matches_finite_difference(self, gvd, scale):
        # k(w) is quadratic in w, so the central difference is exact.
        wg = _wg(gvd=gvd)
        w = scale * wg.omega_ref
        h = 1e10
        ng_fd = C_VACUUM * (wavevector(wg, w + h) - wavevector(wg, w - h)) / (2.0 * h)
        assert group_index(wg, w) == pytest.approx(ng_fd, rel=1e-9)

    def test_group_index_at_reference_is_n_g(self):
        wg = _wg(gvd=7e-24)
        assert group_index(wg, wg.omega_ref) == pytest.approx(4.2, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(wg=_waveguides())
    def test_group_index_is_exactly_n_g_at_the_reference(self, wg):
        # The law's derivative written about w_ref: n_g + 2 c a (w - w_ref).
        # The expanded form n_eff_ref + (n_g - n_eff_ref)(2 w - w_ref)/w_ref
        # missed n_g by rounding in about a third of log-uniform draws over
        # this domain.
        assert group_index(wg, wg.omega_ref) == wg.n_g

    @pytest.mark.parametrize("gvd", [0.0, 5e-24])
    def test_curvature_of_wavevector(self, gvd):
        # d2k/dw2 at the reference: the linear index law contributes
        # 2 (n_g - n_eff) / (w_ref c), the explicit term adds gvd.
        wg = _wg(gvd=gvd)
        w, h = wg.omega_ref, 1e12
        second = (
            wavevector(wg, w + h) - 2.0 * wavevector(wg, w) + wavevector(wg, w - h)
        ) / h**2
        expected = 2.0 * (wg.n_g - wg.n_eff_ref) / (wg.omega_ref * C_VACUUM) + gvd
        assert second == pytest.approx(expected, rel=1e-6)


class TestScalarOrArray:
    """The dispersion functions take one float and return one float."""

    @pytest.mark.parametrize("func", [_effective_index, wavevector, group_index],
                             ids=["effective_index", "wavevector", "group_index"])
    @pytest.mark.parametrize("gvd", [0.0, 5e-24])
    def test_return_types(self, func, gvd):
        wg = _wg(gvd=gvd)
        w = wg.omega_ref * 1.01
        assert type(func(wg, w)) is float

    @pytest.mark.parametrize(
        "func",
        [_effective_index, wavevector, group_index,
         lambda wg, w: wavevector(wg, w) * make_device().ring1.round_trip_length],
        ids=["effective_index", "wavevector", "group_index", "round_trip_phase"],
    )
    @pytest.mark.parametrize("gvd", [0.0, 5e-24])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_omega_not_finite_and_positive_raises(self, func, gvd, bad):
        # 0.0 with GVD != 0 used to divide by zero; -1, nan and inf gave
        # a number.
        wg = _wg(gvd=gvd)
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            func(wg, bad)

    @pytest.mark.parametrize("omega_scale", [1.01])
    def test_group_index_overflow_raises(self, omega_scale):
        # n_g + 2 c a (w - w_ref) = 1.0202 n_g leaves the float range with
        # no error of its own; the finiteness check on the result is the
        # signal.
        wg = _wg(n_g=1.78e308)
        with pytest.raises(NonPhysical, match="group index is not finite"):
            group_index(wg, wg.omega_ref * omega_scale)

    def test_group_index_finite_where_only_its_terms_were_not(self):
        # The expanded form multiplied n_g - n_eff_ref by 2 w - w_ref first,
        # which overflowed at n_g = 1e300 though the group index is finite.
        wg = _wg(n_g=1e300)
        assert group_index(wg, wg.omega_ref * 1.01) == pytest.approx(1.02e300, rel=1e-12)


def _q_loaded(q_intrinsic, q_coupling):
    """The loaded Q of a ring with these Qs, read from the record."""
    return RacetrackSpec(4e-5, 1.5e-5, q_intrinsic, q_coupling).q_loaded


class TestValueTypes:
    def test_round_trip_length(self):
        ring = RacetrackSpec(4e-5, 1.5e-5, 1e5, 1e5)
        assert ring.round_trip_length == pytest.approx(
            2.0 * (4e-5 + math.pi * 1.5e-5), rel=1e-15
        )

    def test_q_loaded_parallel_combination(self):
        assert _q_loaded(1e5, 1e5) == pytest.approx(5e4, rel=1e-15)
        assert _q_loaded(1e5, 3e5) == pytest.approx(7.5e4, rel=1e-15)
        assert _q_loaded(1e5, 3e5) == 1.0 / (1.0 / 1e5 + 1.0 / 3e5)

    def test_q_loaded_below_either_q_and_monotone(self):
        assert _q_loaded(1e5, 2e5) < 1e5
        assert _q_loaded(1e5, 2e5) < _q_loaded(1e5, 4e5)
        # Overcoupled limit: huge intrinsic Q leaves the coupling Q.
        assert _q_loaded(1e12, 5e4) == pytest.approx(5e4, rel=1e-7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_eff_ref=0.0, n_g=4.0, omega_ref=1e15),
            dict(n_eff_ref=2.4, n_g=-1.0, omega_ref=1e15),
            dict(n_eff_ref=2.4, n_g=4.0, omega_ref=0.0),
            dict(n_eff_ref=2.4, n_g=4.0, omega_ref=1e15, n_bar=0.0),
            dict(n_eff_ref=2.4, n_g=4.0, omega_ref=1e15, area_eff=-1e-13),
            dict(n_eff_ref=2.4, n_g=4.0, omega_ref=1e15, gamma_nl=-5.0),
        ],
    )
    def test_waveguide_validation(self, kwargs):
        with pytest.raises(ValueError):
            WaveguideParams(**kwargs)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 1.5e-5, 1e5, 1e5),
            (4e-5, -1e-6, 1e5, 1e5),
            (4e-5, 1.5e-5, 0.0, 1e5),
            (4e-5, 1.5e-5, 1e5, -2.0),
        ],
    )
    def test_ring_validation(self, args):
        with pytest.raises(ValueError):
            RacetrackSpec(*args)

    def test_resonance_validation(self):
        with pytest.raises(ValueError):
            Resonance(owner=3, order=100, omega0=1e15, q_loaded=5e4, q_coupling=1e5)
        with pytest.raises(ValueError):
            Resonance(owner=1, order=100, omega0=-1e15, q_loaded=5e4, q_coupling=1e5)
        with pytest.raises(TypeError):
            # The linewidth is derived from omega0 / q_loaded, never stored.
            Resonance(
                owner=1, order=100, omega0=1e15, q_loaded=5e4, q_coupling=1e5,
                linewidth=1e15 / 5e4 * 1.5,
            )

    def test_resonance_default_linewidth(self):
        res = Resonance(owner=2, order=100, omega0=1e15, q_loaded=5e4, q_coupling=1e5)
        assert res.linewidth == pytest.approx(1e15 / 5e4, rel=1e-15)

    @pytest.mark.parametrize("q", [1e200, 1e300])
    def test_linewidth_whose_square_underflows_is_rejected(self, q):
        res = Resonance(owner=2, order=100, omega0=1e15, q_loaded=q, q_coupling=2.0 * q)
        with pytest.raises(NonPhysical, match="underflows"):
            res.linewidth

    def test_device_coupler_must_fit(self):
        dev = make_device()
        with pytest.raises(ValueError):
            DeviceSpec(
                waveguide=dev.waveguide,
                ring1=dev.ring1,
                ring2=dev.ring2,
                dc_length=1.01 * dev.ring1.straight_len,
                dc_gap=dev.dc_gap,
                coupling=dev.coupling,
            )

    def test_device_coupler_fits_to_a_rounding_slack(self):
        # The coupler may pass the shorter straight by 1e-12 of it, and not
        # by one ulp more.
        dev = make_device()
        edge = dev.ring1.straight_len * (1.0 + 1e-12)
        assert dev.ring1.straight_len < dev.ring2.straight_len
        assert replace(dev, dc_length=edge).dc_length == edge
        with pytest.raises(ValueError, match="exceeds the shorter straight section"):
            replace(dev, dc_length=math.nextafter(edge, math.inf))

    def test_device_ring_lookup(self):
        dev = make_device()
        assert dev.ring(1) is dev.ring1
        assert dev.ring(2) is dev.ring2
        with pytest.raises(ValueError):
            dev.ring(0)


class TestCouplingModel:
    def test_reference_gap_value(self):
        cm = CouplingModel(kappa0=6.6e4, gap_ref=3e-7, decay_len=1.5e-7)
        assert cm.kappa_abs(3e-7) == pytest.approx(6.6e4, rel=1e-15)

    def test_decay_length_scale(self):
        cm = CouplingModel(kappa0=6.6e4, gap_ref=3e-7, decay_len=1.5e-7)
        assert cm.kappa_abs(3e-7 + 1.5e-7) == pytest.approx(6.6e4 / math.e, rel=1e-14)
        assert cm.kappa_abs(3e-7 - 1.5e-7) == pytest.approx(6.6e4 * math.e, rel=1e-14)

    def test_complex_phase(self):
        cm = CouplingModel(kappa0=1e4, gap_ref=3e-7, decay_len=1.5e-7, phase=0.7)
        k = cm.kappa(3e-7)
        assert abs(k) == pytest.approx(1e4, rel=1e-14)
        assert math.atan2(k.imag, k.real) == pytest.approx(0.7, abs=1e-14)

    def test_gap_validation(self):
        cm = CouplingModel(kappa0=1e4, gap_ref=3e-7, decay_len=1.5e-7)
        with pytest.raises(ValueError):
            cm.kappa_abs(0.0)
        with pytest.raises(ValueError):
            CouplingModel(kappa0=-1.0, gap_ref=3e-7, decay_len=1.5e-7)
        with pytest.raises(ValueError):
            CouplingModel(kappa0=1e4, gap_ref=3e-7, decay_len=0.0)

    def test_largest_finite_exponent_is_kept(self):
        # At gap 1 the exponent -(gap - gap_ref) / decay_len is exactly the
        # largest one whose exp is finite; the next float above it overflows
        # exp and is refused.
        top = geometry._MAX_EXP
        cm = CouplingModel(kappa0=0.5, gap_ref=top + 1.0, decay_len=1.0)
        assert -(1.0 - cm.gap_ref) / cm.decay_len == top
        assert cm.kappa_abs(1.0) == 0.5 * math.exp(top)
        with pytest.raises(NonPhysical, match="overflows"):
            cm.kappa_abs(1.0 - 2.0**-40)

    def test_finite_exponent_whose_product_overflows_is_refused(self):
        # exp(top) is finite, but kappa0 = 2 doubles it past the float range.
        top = geometry._MAX_EXP
        cm = CouplingModel(kappa0=2.0, gap_ref=top + 1.0, decay_len=1.0)
        with pytest.raises(NonPhysical, match="coupling strength overflows"):
            cm.kappa_abs(1.0)


class TestResonanceComb:
    def test_no_order_zero_line_at_the_heater_shift(self):
        # A band reaching below the heater shift is searched from 1e-6 of
        # its shifted upper edge, so its first line is order 1; order 0
        # would sit at the shift itself, where k(0) = c0 = 0.
        dev = make_device()
        ring = replace(dev.ring1, heater_shift=1e14)
        comb = resonance_comb(ring, dev.waveguide, (5e13, 3e14))
        assert [r.order for r in comb] == list(range(1, len(comb) + 1))
        assert comb[0].omega0 > 1e14

    def test_round_trip_phase_is_multiple_of_two_pi(self):
        dev = make_device()
        comb = resonance_comb(dev.ring1, dev.waveguide, process_band(dev), owner=1)
        assert len(comb) >= 5
        for r in comb:
            phase = wavevector(dev.waveguide, r.omega0) * dev.ring1.round_trip_length
            assert abs(phase - TWO_PI * r.order) < 1e-9

    def test_orders_are_consecutive_and_sorted(self):
        dev = make_device()
        comb = resonance_comb(dev.ring1, dev.waveguide, process_band(dev), owner=1)
        orders = [r.order for r in comb]
        assert orders == sorted(orders)
        assert orders == list(range(orders[0], orders[-1] + 1))
        freqs = [r.omega0 for r in comb]
        assert freqs == sorted(freqs)

    def test_uniform_spacing_without_index_slope(self):
        # n_g == n_eff makes k exactly linear in frequency, so the comb
        # is exactly uniform; residuals are root-finder tolerance only.
        dev = make_device(n_eff=4.0, n_g=4.0)
        comb = resonance_comb(dev.ring1, dev.waveguide, process_band(dev), owner=1)
        diffs = np.diff([r.omega0 for r in comb])
        assert np.ptp(diffs) < 500.0
        expected = TWO_PI * C_VACUUM / (4.0 * dev.ring1.round_trip_length)
        assert np.allclose(diffs, expected, rtol=1e-9)

    def test_band_edge_order_is_irrelevant(self):
        dev = make_device()
        lo, hi = process_band(dev)
        a = resonance_comb(dev.ring1, dev.waveguide, (lo, hi), owner=1)
        b = resonance_comb(dev.ring1, dev.waveguide, (hi, lo), owner=1)
        assert [r.omega0 for r in a] == [r.omega0 for r in b]

    def test_heater_shift_is_rigid(self):
        shift = 1e9
        dev0 = make_device()
        dev1 = make_device(heater1=shift)
        band = process_band(dev0)
        comb0 = resonance_comb(dev0.ring1, dev0.waveguide, band, owner=1)
        comb1 = resonance_comb(dev1.ring1, dev1.waveguide, band, owner=1)
        by_order0 = {r.order: r.omega0 for r in comb0}
        by_order1 = {r.order: r.omega0 for r in comb1}
        shared = sorted(set(by_order0) & set(by_order1))
        assert len(shared) >= 5
        for m in shared:
            assert abs((by_order1[m] - by_order0[m]) - shift) < 100.0

    def test_shifted_comb_solves_unshifted_dispersion(self):
        dev = make_device(heater1=5e9)
        comb = resonance_comb(dev.ring1, dev.waveguide, process_band(dev), owner=1)
        for r in comb:
            phase = wavevector(dev.waveguide, r.omega0 - 5e9) * dev.ring1.round_trip_length
            assert abs(phase - TWO_PI * r.order) < 1e-9

    def test_owner_label(self):
        dev = make_device()
        comb1, comb2 = device_combs(dev, process_band(dev))
        assert all(r.owner == 1 for r in comb1)
        assert all(r.owner == 2 for r in comb2)
        # Ring 2 is longer, so its comb is denser.
        assert len(comb2) >= len(comb1)

    def test_empty_band(self):
        dev = make_device()
        comb = resonance_comb(dev.ring1, dev.waveguide, process_band(dev), owner=1)
        # Squeeze a band between two adjacent lines.
        mid = 0.5 * (comb[0].omega0 + comb[1].omega0)
        width = 0.01 * (comb[1].omega0 - comb[0].omega0)
        with pytest.raises(EmptyBand):
            resonance_comb(dev.ring1, dev.waveguide, (mid - width, mid + width), owner=1)

    def test_band_validation(self):
        dev = make_device()
        with pytest.raises(ValueError):
            resonance_comb(dev.ring1, dev.waveguide, (-1e15, 1e15), owner=1)

    @pytest.mark.parametrize(
        "band",
        [
            (math.nan, 1.3e15),
            (1.1e15, math.nan),
            (1.1e15, math.inf),
            (-math.inf, 1.3e15),
            # Finite edges spanning more mode orders than one solve allows.
            (1.1e15, 1e25),
            (1.1e15, 1e160),
        ],
    )
    def test_band_edges_finite_and_bounded(self, band):
        dev = make_device()
        with pytest.raises(ValueError):
            resonance_comb(dev.ring1, dev.waveguide, band, owner=1)

    @pytest.mark.parametrize("gvd", [-2e-21, 2e-21])
    def test_group_index_sign_change_in_band(self, gvd):
        # Strong GVD drives the group index through zero inside the band,
        # where the round-trip phase turns over; no partial comb is returned.
        dev = make_device(gvd=gvd)
        band = process_band(dev)
        assert min(group_index(dev.waveguide, w) for w in band) <= 0.0
        with pytest.raises(NoConvergence):
            resonance_comb(dev.ring1, dev.waveguide, band, owner=1)


def _oracle_comb(ring, wg, band):
    """(order, omega0) of every line in the band, one brentq solve per order.

    The bracket extends two spectral ranges past the band so that every
    order with a line in the band has its root inside it. A line within
    1e-15 relative of a band edge counts as inside, so a band whose edge
    sits exactly on a line keeps that line whichever way the oracle's
    last bit rounds.
    """
    lo, hi = band
    s, length = ring.heater_shift, ring.round_trip_length
    pad = 2.0 * fsr(ring, wg, 0.5 * (lo + hi) - s)
    a, b = lo - s - pad, hi - s + pad

    def phase(w):
        return wavevector(wg, w) * length

    out = []
    for m in range(math.ceil(phase(a) / TWO_PI), math.floor(phase(b) / TWO_PI) + 1):
        w = brentq(lambda x: phase(x) - TWO_PI * m, a, b, xtol=1e-3, rtol=8.9e-16, maxiter=200)
        w0 = w + s
        if lo * (1.0 - 1e-15) <= w0 <= hi * (1.0 + 1e-15):
            out.append((m, w0))
    return out


# n_g == n_eff_ref makes the quadratic coefficient a vanish: the linear limit.
COMB_DEVICES = {
    "shipped": lambda: load_device(DEVICE_JSON),
    "gvd_positive": lambda: make_device(gvd=5e-24),
    "gvd_negative": lambda: make_device(gvd=-5e-24),
    "heater_shift": lambda: make_device(heater1=7.3e9, heater2=-2.9e10),
    "linear_limit": lambda: make_device(n_eff=4.0, n_g=4.0),
    "edge_on_line": make_device,
}


def _comb_case(name):
    dev = COMB_DEVICES[name]()
    band = process_band(dev)
    if name == "edge_on_line":
        comb = resonance_comb(dev.ring1, dev.waveguide, band, owner=1)
        band = (comb[1].omega0, comb[-2].omega0)
    return dev, band


class TestCombOracle:
    """Closed-form comb against one bracketed root solve per mode order.

    Tolerance: 1e-13 relative on line positions and on k(w) * L_rt = 2*pi*m.
    """

    @pytest.mark.parametrize("case", sorted(COMB_DEVICES))
    @pytest.mark.parametrize("owner", [1, 2])
    def test_matches_brentq(self, case, owner):
        dev, band = _comb_case(case)
        ring, wg = dev.ring(owner), dev.waveguide
        comb = resonance_comb(ring, wg, band, owner=owner)
        oracle = _oracle_comb(ring, wg, band)
        assert [r.order for r in comb] == [m for m, _ in oracle]
        assert all(r.owner == owner for r in comb)
        for r, (_, w_ref) in zip(comb, oracle):
            assert r.omega0 == pytest.approx(w_ref, rel=1e-13, abs=0.0)
            phase = wavevector(wg, r.omega0 - ring.heater_shift) * ring.round_trip_length
            assert phase == pytest.approx(TWO_PI * r.order, rel=1e-13, abs=0.0)
        if case == "edge_on_line" and owner == 1:
            assert (comb[0].omega0, comb[-1].omega0) == band


@st.composite
def _comb_inputs(draw):
    """A generated ring, waveguide and band holding at least one line."""
    n_eff = draw(st.floats(1.5, 3.5))
    wg = WaveguideParams(
        n_eff_ref=n_eff,
        n_g=n_eff * draw(st.floats(0.9, 1.8)),
        omega_ref=TWO_PI * C_VACUUM / draw(st.floats(1.3e-6, 1.7e-6)),
        gvd=draw(st.one_of(st.just(0.0), st.floats(-5e-24, 5e-24))),
    )
    radius = draw(st.floats(5e-6, 5e-5))
    ring = RacetrackSpec(
        straight_len=draw(st.floats(1.0, 4.0)) * math.pi * radius,
        bend_radius=radius,
        q_intrinsic=1e5,
        q_coupling=1e5,
        heater_shift=draw(st.floats(-1e11, 1e11)),
    )
    center = wg.omega_ref * draw(st.floats(0.95, 1.05))
    half = 0.5 * draw(st.floats(1.5, 40.0)) * fsr(ring, wg, center)
    return ring, wg, (center - half, center + half)


class TestCombProperties:
    """Generated devices and bands; same 1e-13 tolerance as the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_comb_inputs())
    def test_sorted_and_on_the_phase_grid(self, case):
        ring, wg, band = case
        comb = resonance_comb(ring, wg, band, owner=1)
        freqs = [r.omega0 for r in comb]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))
        assert [r.order for r in comb] == list(range(comb[0].order, comb[-1].order + 1))
        assert band[0] <= freqs[0] and freqs[-1] <= band[1]
        for r in comb:
            phase = wavevector(wg, r.omega0 - ring.heater_shift) * ring.round_trip_length
            assert phase == pytest.approx(TWO_PI * r.order, rel=1e-13, abs=0.0)
        # k(w) is quadratic, so its secant slope over one spacing is its
        # slope at the midpoint: each spacing is the FSR there, exactly.
        # The tolerance covers the cancellation in the line difference.
        for a, b in zip(freqs, freqs[1:]):
            mid = 0.5 * (a + b) - ring.heater_shift
            assert b - a == pytest.approx(fsr(ring, wg, mid), rel=1e-11, abs=0.0)


def _numpy_comb(ring, wg, band):
    """(order, omega0) of every line in the band, from the closed form
    evaluated over all orders at once with numpy, as the comb solver did
    before it looped over the orders in plain floats."""
    lo, hi = sorted((float(band[0]), float(band[1])))
    s = ring.heater_shift
    lo_u, hi_u = lo - s, hi - s
    lo_u = max(lo_u, 1e-6 * hi_u)
    w_ref, gvd = wg.omega_ref, wg.gvd
    a = (wg.n_g - wg.n_eff_ref) / (C_VACUUM * w_ref) + 0.5 * gvd
    b = (2.0 * wg.n_eff_ref - wg.n_g) / C_VACUUM - gvd * w_ref
    c0 = 0.5 * gvd * w_ref * w_ref
    k_step = TWO_PI / ring.round_trip_length
    m_lo = math.ceil(((a * lo_u + b) * lo_u + c0) / k_step - 1e-9)
    m_hi = math.floor(((a * hi_u + b) * hi_u + c0) / k_step + 1e-9)
    t = np.arange(m_lo, m_hi + 1) * k_step - c0
    with np.errstate(invalid="ignore"):  # an order past the vertex gives nan, dropped below
        root = np.sqrt(t * (4.0 * a) + b * b)
    omega = (2.0 * t / (b + root) if b >= 0.0 else (root - b) / (2.0 * a)) + s
    return [(m, w0) for m, w0 in zip(range(m_lo, m_hi + 1), omega.tolist()) if lo <= w0 <= hi]


class TestCombMatchesNumpyForm:
    """The per-order loop keeps the numpy closed form's bytes: same
    expression, same operation order, and sqrt is correctly rounded in
    both."""

    @staticmethod
    def _assert_same(ring, wg, band):
        comb = resonance_comb(ring, wg, band, owner=1)
        assert [(r.order, r.omega0.hex()) for r in comb] == [
            (m, w0.hex()) for m, w0 in _numpy_comb(ring, wg, band)
        ]

    @pytest.mark.parametrize("case", sorted(COMB_DEVICES))
    @pytest.mark.parametrize("owner", [1, 2])
    def test_named_devices(self, case, owner):
        dev, band = _comb_case(case)
        self._assert_same(dev.ring(owner), dev.waveguide, band)

    @settings(max_examples=300, deadline=None)
    @given(_comb_inputs())
    def test_generated_devices(self, case):
        self._assert_same(*case)

    def test_order_past_the_vertex_has_no_line(self):
        # Negative GVD puts the vertex of k(w) just above the band, where
        # the group index is 1e-14. The ring is sized so that the order
        # taken 1e-9 cycles past the band edge lies beyond k's maximum:
        # it has no root, and the solve keeps the orders below it.
        wg = _wg(n_eff=2.4, n_g=2.4, gvd=-8e-23)
        a = 0.5 * wg.gvd
        b = 2.4 / C_VACUUM - wg.gvd * wg.omega_ref
        vertex = -b / (2.0 * a)
        k_max = 0.5 * wg.gvd * wg.omega_ref**2 - b * b / (4.0 * a)
        length = (162 - 1e-10) * TWO_PI / k_max
        ring = RacetrackSpec(straight_len=0.5 * length - math.pi * 1e-5, bend_radius=1e-5,
                             q_intrinsic=1e5, q_coupling=1e5)
        band = (0.9 * vertex, vertex * (1.0 - 1e-7))
        comb = resonance_comb(ring, wg, band, owner=1)
        assert comb[-1].order == 161
        self._assert_same(ring, wg, band)


class TestConstantsAndImports:
    def test_constants_equal_scipy(self):
        assert geometry.C_VACUUM == scipy.constants.c
        assert geometry.HBAR == scipy.constants.hbar
        assert geometry.EPSILON_0 == scipy.constants.epsilon_0

    def test_runtime_imports_no_scipy(self):
        # numpy is the only runtime dependency: neither scipy nor numba
        # may be loaded by the package or its command line.
        code = (
            "import json, sys, ringpair, ringpair.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'numba')))))"
        )
        path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert json.loads(proc.stdout) == []

    def test_start_up_loads_no_dataclasses_or_inspect(self, tmp_path):
        # The records are built without dataclasses, whose import loads
        # inspect; no command needs either. One interpreter imports the
        # package, then runs every command in turn. The 101-point spectrum
        # goes without numpy, which would load inspect itself.
        runs = {
            name: [*argv, "--device", str(DEVICE_JSON), "--out", str(tmp_path / name)]
            for name, argv in self.NUMPY_FREE.items()
            if argv is not None
        }
        code = (
            "import json, sys, ringpair, ringpair.cli\n"
            "def loaded():\n"
            "    return sorted({'dataclasses', 'inspect'} & sys.modules.keys())\n"
            "out = {'import': [None, loaded()]}\n"
            "for name, argv in json.loads(sys.argv[1]).items():\n"
            "    out[name] = [ringpair.cli.main(argv), loaded()]\n"
            "print(json.dumps(out))"
        )
        path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        out = json.loads(proc.stdout.splitlines()[-1])
        assert list(out) == ["import", *runs]
        for name, (rc, loaded) in out.items():
            assert rc in (None, 0), name
            assert loaded == [], name

    # Every command works on Python floats and must start without numpy,
    # spectrum too while its points x lines are few (the 101-point one has
    # 17 lines); a spectrum of many sums numpy arrays and loads it (the
    # 20001-point one over 40 THz has about 230 lines).
    NUMPY_FREE = {
        "import": None,
        "overlap": ["overlap", "--band", "1567nm:1543nm", "--method", "quadrature"],
        "rates": ["rates", "--band", "192THz", "195THz", "--photons", "5e4", "--pulse", "1e-9"],
        "suppression": ["suppression", "--band", "192THz", "195THz", "--points", "21"],
        "kerr-check": ["kerr-check", "--power", "0.005"],
        "optimize": ["optimize", "--signal", "1550nm", "--suppression", "1e-3"],
        "sweep-isolation": ["sweep", "--param", "dc.gap_m", "--values", "2.8e-7", "3.2e-7",
                            "5", "--report", "isolation"],
        "sweep-suppression": ["sweep", "--param", "ring2.heater_shift_hz", "--values", "0",
                              "4e9", "5", "--report", "suppression", "--band", "192THz",
                              "195THz"],
        "sweep-rates": ["sweep", "--param", "ring2.straight_len_m", "--values", "5.8e-5",
                        "5.9e-5", "5", "--report", "rates", "--band", "192THz", "195THz"],
        "sweep-kerr": ["sweep", "--param", "ring1.q_intrinsic", "--values", "5e4", "2e5", "5",
                       "--report", "kerr", "--power", "0.005"],
        "spectrum": ["spectrum", "--band", "192THz", "195THz", "--points", "101"],
    }
    NUMPY_USING = {
        "spectrum-wide": ["spectrum", "--band", "180THz", "220THz", "--points", "20001"],
    }

    @pytest.mark.parametrize("name", [*NUMPY_FREE, *NUMPY_USING])
    def test_numpy_loaded_only_by_spectrum(self, name, tmp_path):
        argv = {**self.NUMPY_FREE, **self.NUMPY_USING}[name]
        if argv is not None:
            argv = [*argv, "--device", str(DEVICE_JSON), "--out", str(tmp_path / "artifact")]
        code = (
            "import json, sys, ringpair, ringpair.cli; "
            "argv = json.loads(sys.argv[1]); "
            "rc = None if argv is None else ringpair.cli.main(argv); "
            "print(json.dumps([rc, 'numpy' in sys.modules]))"
        )
        path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        rc, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert rc in (None, 0)
        assert numpy_loaded == (name in self.NUMPY_USING)

    def test_scalar_functions_run_without_numpy(self):
        # Each scalar physics function, called on the shipped device, runs
        # on Python floats alone.
        code = (
            "import json, sys, ringpair as rp\n"
            "dev = rp.load_device(sys.argv[1])\n"
            "wg, ring, w = dev.waveguide, dev.ring1, dev.waveguide.omega_ref\n"
            "res = rp.resonance_comb(ring, wg, (0.99 * w, 1.01 * w))[0]\n"
            "f_in = rp.CmtField('IN', dev.kappa, dev.dc_length)\n"
            "f_out = rp.CmtField('OUT', dev.kappa, dev.dc_length)\n"
            "z = 0.3 * dev.dc_length\n"
            "vals = [rp.wavevector(wg, w) * rp.geometry.C_VACUUM / w, rp.wavevector(wg, w),\n"
            "        rp.group_index(wg, w),\n"
            "        rp.wavevector(wg, w) * ring.round_trip_length,\n"
            "        rp.lorentzian_response(res, w),\n"
            "        f_in.a1(z), f_in.a2(z), f_out.a1(z), f_out.a2(z), ring.q_loaded,\n"
            "        rp.kerr_detuned_efficiency(dev.kappa, dev.dc_length, 0.0),\n"
            "        rp.fsr(ring, wg, w),\n"
            "        rp.isolation_db(dev.kappa, dev.dc_length)]\n"
            "print(json.dumps([len(vals), 'numpy' in sys.modules]))"
        )
        path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(DEVICE_JSON)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == [13, False]

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_only_spectrum_sets_openblas_threads(self, preset, tmp_path):
        # spectrum starts numpy with one OpenBLAS thread unless the user
        # chose a count; no other command touches the environment. One
        # interpreter runs every command, spectrum last.
        runs = {
            name: [*argv, "--device", str(DEVICE_JSON), "--out", str(tmp_path / name)]
            for name, argv in self.NUMPY_FREE.items()
            if argv is not None
        }
        code = (
            "import json, os, sys, ringpair.cli; "
            "out = {}\n"
            "for name, argv in json.loads(sys.argv[1]).items():\n"
            "    before = dict(os.environ)\n"
            "    rc = ringpair.cli.main(argv)\n"
            "    after = dict(os.environ)\n"
            "    out[name] = [rc, {k: after.get(k) for k in before.keys() | after.keys()\n"
            "                      if before.get(k) != after.get(k)}]\n"
            "print(json.dumps(out))"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        out = json.loads(proc.stdout.splitlines()[-1])
        assert list(out) == list(runs) and list(out)[-1] == "spectrum"
        pinned = {"OPENBLAS_NUM_THREADS": "1"} if preset is None else {}
        for name, (rc, changed) in out.items():
            assert rc in (None, 0), name
            assert changed == (pinned if name == "spectrum" else {}), name


class TestFsrAndFinesse:
    def test_fsr_formula(self):
        dev = make_device()
        w = dev.waveguide.omega_ref
        got = fsr(dev.ring1, dev.waveguide, w)
        expected = TWO_PI * C_VACUUM / (
            group_index(dev.waveguide, w) * dev.ring1.round_trip_length
        )
        assert got == pytest.approx(expected, rel=1e-15)

    def test_fsr_at_zero_group_index_is_refused(self):
        # 1.5 + 2.5 (2 w / w_ref - 1) is exactly 0 at w_ref / 5.
        wg = _wg(n_eff=1.5, n_g=4.0)
        assert group_index(wg, wg.omega_ref / 5.0) == 0.0
        with pytest.raises(NoConvergence, match="group index 0 is not positive"):
            fsr(make_device().ring1, wg, wg.omega_ref / 5.0)

    def test_fsr_worked_value(self):
        # Round trip 2*pi*1e-4 m at group index 4: about 119.3 GHz.
        ring = RacetrackSpec(
            straight_len=math.pi * 5e-5, bend_radius=5e-5, q_intrinsic=1e5, q_coupling=1e5
        )
        assert ring.round_trip_length == pytest.approx(TWO_PI * 1e-4, rel=1e-15)
        wg = _wg(n_eff=4.0, n_g=4.0)
        value_hz = fsr(ring, wg, wg.omega_ref) / TWO_PI
        assert value_hz == pytest.approx(C_VACUUM / (4.0 * TWO_PI * 1e-4), rel=1e-15)
        assert value_hz == pytest.approx(119.28e9, rel=1e-3)

    def test_doubling_length_halves_fsr(self):
        wg = _wg()
        ring = RacetrackSpec(4e-5, 1.5e-5, 1e5, 1e5)
        double = RacetrackSpec(8e-5 + math.pi * 1.5e-5, 1.5e-5, 1e5, 1e5)
        assert double.round_trip_length == pytest.approx(
            2.0 * ring.round_trip_length, rel=1e-15
        )
        w = wg.omega_ref
        assert fsr(double, wg, w) == pytest.approx(0.5 * fsr(ring, wg, w), rel=1e-12)

    def test_fsr_matches_comb_spacing(self):
        dev = make_device()
        comb = resonance_comb(dev.ring1, dev.waveguide, process_band(dev), owner=1)
        for a, b in zip(comb, comb[1:]):
            mid = 0.5 * (a.omega0 + b.omega0)
            assert (b.omega0 - a.omega0) == pytest.approx(
                fsr(dev.ring1, dev.waveguide, mid), rel=1e-3
            )

    def test_finesse_definition(self):
        dev = make_device()
        w = dev.waveguide.omega_ref
        got = finesse(dev.ring1, dev.waveguide, w)
        assert got == pytest.approx(
            fsr(dev.ring1, dev.waveguide, w) * dev.ring1.q_loaded / w, rel=1e-15
        )

    @pytest.mark.parametrize("func", [fsr, finesse])
    @pytest.mark.parametrize("omega", [0.0, -1e15, math.nan, math.inf, -math.inf])
    def test_omega_validation(self, func, omega):
        dev = make_device()
        with pytest.raises(ValueError):
            func(dev.ring1, dev.waveguide, omega)

    def test_finesse_scales_with_loaded_q(self):
        w = make_device().waveguide.omega_ref
        lo = make_device(q_i=1e5, q_c=1e5)
        hi = make_device(q_i=2e5, q_c=2e5)
        assert finesse(hi.ring1, hi.waveguide, w) == pytest.approx(
            2.0 * finesse(lo.ring1, lo.waveguide, w), rel=1e-12
        )


class TestCombRange:
    @pytest.mark.parametrize("q", [1.0, 1e-4, 1e-195])
    def test_lines_wider_than_their_centers_are_rejected(self, q):
        ring = RacetrackSpec(straight_len=4.7e-5, bend_radius=1.5e-5, q_intrinsic=2.0 * q,
                             q_coupling=2.0 * q)
        wg = _wg()
        with pytest.raises(NonPhysical, match="loaded Q"):
            resonance_comb(ring, wg, (0.99 * wg.omega_ref, 1.01 * wg.omega_ref))

    def test_band_top_at_the_heater_shift_is_empty(self):
        # The band top minus the shift is exactly 0: no unshifted frequency
        # is left to search.
        shift = TWO_PI * 1.9e14
        ring = replace(make_device().ring1, heater_shift=shift)
        with pytest.raises(EmptyBand, match="heater shift"):
            resonance_comb(ring, _wg(), (0.5 * shift, shift))

    def test_zero_group_index_at_the_search_edge_is_refused(self):
        # n_g = 4, n_eff_ref = 1.5: the group index 1.5 + 2.5 (2 w / w_ref - 1)
        # is exactly 0 at w_ref / 5 and positive above it.
        wg = _wg(n_eff=1.5, n_g=4.0)
        lo = wg.omega_ref / 5.0
        assert group_index(wg, lo) == 0.0
        with pytest.raises(NoConvergence, match="group index is not positive"):
            resonance_comb(make_device().ring1, wg, (lo, 1.2 * lo))

    def test_zero_group_index_at_the_search_top_is_refused(self):
        # n_g = 2, n_eff_ref = 4: the group index 2 - 4 (w / w_ref - 1)
        # falls to exactly 0 at 1.5 w_ref, the band top, and is positive below it.
        wg = _wg(n_eff=4.0, n_g=2.0)
        hi = 1.5 * wg.omega_ref
        assert group_index(wg, hi) == 0.0 < group_index(wg, 0.9 * hi)
        with pytest.raises(NoConvergence, match="group index is not positive"):
            resonance_comb(make_device().ring1, wg, (0.9 * hi, hi))

    def test_non_positive_round_trip_phase_is_rejected(self):
        # n_g = 10, n_eff_ref = 1.5: k(w) = (w / c) (8.5 w / w_ref - 7)
        # grows over the band but is negative below 0.82 w_ref, where the
        # comb used to return mode orders <= 0.
        wg = _wg(n_eff=1.5, n_g=10.0)
        ring = make_device().ring1
        with pytest.raises(NonPhysical, match="round-trip phase"):
            resonance_comb(ring, wg, (0.6 * wg.omega_ref, 0.61 * wg.omega_ref))
        assert resonance_comb(ring, wg, (0.9 * wg.omega_ref, 0.91 * wg.omega_ref))[0].order > 0

    def test_mode_orders_beyond_double_precision_are_rejected(self):
        # A reference frequency 1e-200 times the optical one puts the
        # optical orders near 1e202, which arange cannot hold as integers.
        dev = load_device(DEVICE_JSON)
        wg = WaveguideParams(n_eff_ref=2.4, n_g=4.2, omega_ref=1.2e-185)
        with pytest.raises(NonPhysical, match="2\\^53"):
            resonance_comb(dev.ring1, wg, (1.2e15, 1.2e15))

    # With n_eff_ref = n_g and no GVD, k = n_g w / c, and the comb counts
    # k L / (2 pi) cycles at an edge: each limit below is met to the bit.
    LINEAR = _wg(n_eff=2.4, n_g=2.4)

    def test_a_band_of_exactly_the_most_orders_is_refused(self):
        # Refused before any line is formed; the loaded Q of 1 would be
        # refused next.
        ring = replace(make_device().ring1, q_intrinsic=2.0, q_coupling=2.0)
        k_step = TWO_PI / ring.round_trip_length
        lo = self.LINEAR.omega_ref
        start = wavevector(self.LINEAR, lo) / k_step
        hi = _edge_at(lambda w: wavevector(self.LINEAR, w) / k_step - start, MAX_COMB_ORDERS,
                      lo * (1.0 + MAX_COMB_ORDERS / start))
        with pytest.raises(ValueError, match=f"spans {MAX_COMB_ORDERS} mode orders or more"):
            resonance_comb(ring, self.LINEAR, (lo, hi))

    def test_a_mode_order_of_exactly_2_to_the_53_is_refused(self):
        ring = make_device().ring1
        k_step = TWO_PI / ring.round_trip_length
        hi = _edge_at(lambda w: wavevector(self.LINEAR, w) / k_step, 2.0**53,
                      2.0**53 * k_step * C_VACUUM / 2.4)
        with pytest.raises(NonPhysical, match="is not below 2\\^53"):
            resonance_comb(ring, self.LINEAR, (hi * (1.0 - 1e-13), hi))


def _edge_at(cycles, target, w):
    """The first float from ``w``, one ulp at a time, where ``cycles`` is ``target`` exactly."""
    up = cycles(w) < target
    for _ in range(1000):
        if cycles(w) == target:
            return w
        if (cycles(w) < target) != up:
            break
        w = math.nextafter(w, math.inf if up else 0.0)
    raise AssertionError(f"no float from {w} counts {target} cycles")


# Each device-file section that is local to one part of the device, and
# the rings whose combs it must leave bit for bit as they are: the paper
# controls the linear properties of each resonator locally, and the
# coupler sits at a linear null, so it shifts neither comb.
LOCAL_SECTIONS = {"ring1": (2,), "ring2": (1,), "dc": (1, 2), "coupling_model": (1, 2)}
LOCALITY_BAND = (TWO_PI * 192e12, TWO_PI * 195e12)


def _comb_bits(comb):
    """Every field of every line, each float as hex, so -0.0 and 0.0 differ."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in asdict(r).values())
            for r in comb]


@st.composite
def _local_edits(draw):
    """(section, key, value): a key of a ring, the coupler or the coupling
    model, and a valid value other than the shipped one."""
    section = draw(st.sampled_from(sorted(LOCAL_SECTIONS)))
    key = draw(st.sampled_from([row[0] for row in FILE_FORMAT[section]]))
    shipped = json.loads(DEVICE_JSON.read_text())[section][key]
    if key == "heater_shift_hz":  # shipped 0; at least a few ulps of the line centres
        value = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e6, 1e12))
    elif key == "phase_rad":  # shipped 0
        value = draw(st.floats(-math.pi, math.pi))
    elif key == "straight_len_m":  # a longer straight still holds the coupler
        value = shipped * draw(st.floats(1.0, 2.0))
    elif key == "length_m":  # a shorter coupler still fits both straights
        value = shipped * draw(st.floats(0.5, 1.0))
    else:
        value = shipped * draw(st.floats(0.5, 2.0))
    assume(value != shipped)
    return section, key, value


class TestLocality:
    @settings(max_examples=200, deadline=None)
    @given(edit=_local_edits())
    def test_each_ring_comb_is_set_locally(self, edit):
        section, key, value = edit
        data = json.loads(DEVICE_JSON.read_text())
        shipped, edited = swept_devices(data, f"{section}.{key}", [data[section][key], value])
        for owner in (1, 2):
            combs = [_comb_bits(resonance_comb(dev.ring(owner), dev.waveguide, LOCALITY_BAND,
                                               owner=owner)) for dev in (shipped, edited)]
            if owner in LOCAL_SECTIONS[section]:
                assert combs[0] == combs[1]
            else:
                # The edited ring's own comb moves: the edit reached the device.
                assert combs[0] != combs[1]
