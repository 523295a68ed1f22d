"""Nonlinear overlap of four resonant fields in the shared coupler.

The figure of merit J multiplies four field-enhancement factors, the
material factor chi3_bar / (n_bar^4 * area_eff), and a spatial factor:
the integral over the coupler length of the product of asymptotic-field
amplitudes, with the phase-mismatch factor exp(i * delta_k * z). As in
the dual-pump process, both pump fields sit on the centres of their
ring-1 lines and both generated fields on the centre of one ring-2
line, so each field's factor is its line's on-resonance enhancement.

:func:`j_quadrature` is the one J of a device: its spatial factor is
the exact integral, in closed form, for any coupler length and phase
mismatch (its magnitude is L/4 only at a linear null with perfect phase
matching). The single-ring reference puts the same fields in one ring
whose whole round trip sqrt(L1 * L2) is the interaction region, so
:func:`j_single_ring_ratio` is the ratio of the spatial factors,
|Z| / sqrt(L1 * L2), and |J| of that ring is ``j_abs`` over the ratio.
Only J itself can leave the float range (see
:func:`.errors.finite_product`); a subnormal J is reported. The overall
phase of J is convention dependent (only |J| and |J|^2 enter rates), so
comparisons are made on magnitudes.

J is reported in model units of 1/V^2 * m: the chi3 normalization
constants that would convert it to a fully dimensioned interaction
energy are hardware calibration factors, handled by the rate
calibration in :mod:`ringpair.sfwm`.
"""

from __future__ import annotations

import cmath
import math

from .errors import finite_product, require_count, require_finite, require_positive, scaled_product
from .geometry import DeviceSpec, Resonance, WaveguideParams, device_combs, wavevector
from .enhancement import lorentzian_response, peak_amplitude
from .linear_cmt import phase_unit
from .record import Finite, Record

RING_LENGTH_MISMATCH_LIMIT = 0.01
PUMP_SEPARATION = 2


class ProcessConfig(Record):
    """One dual-pump four-wave mixing configuration.

    Both pumps sit on the centres of their ring-1 lines ``res_p1`` and
    ``res_p2``, and both generated fields on the centre of the ring-2
    line ``res_s``. Only the lines and the phase mismatch are free.
    """

    res_p1: Resonance
    res_p2: Resonance
    res_s: Resonance
    delta_k: Finite = 0.0

    def __post_init__(self) -> None:
        if self.res_p1.owner != 1 or self.res_p2.owner != 1:
            raise ValueError("pump resonances must belong to ring 1")
        if self.res_s.owner != 2:
            raise ValueError("signal resonance must belong to ring 2")

    @property
    def signal_mismatch(self) -> float:
        """Energy mismatch w_P1 + w_P2 - 2 w_S of the dual-pump signal process [rad/s]."""
        return self.res_p1.omega0 + self.res_p2.omega0 - 2.0 * self.res_s.omega0


class OverlapResult(Record):
    """Overlap figure J with its factor breakdown."""

    j_value: complex
    z_factor: complex
    enhancement_product: complex
    warnings: tuple[str, ...] = ()

    @property
    def j_abs(self) -> float:
        return abs(self.j_value)


def z_overlap_integral(kappa: complex, length: float, delta_k: float = 0.0) -> complex:
    """Spatial overlap integral over the coupler region, in closed form.

    Integrates the summed product of squared input-port and squared
    output-port amplitudes (one term per coupler guide), which is
    -(exp(-2i*phase)/4) * (1 - cos(4|kappa|z)), against
    exp(i * delta_k * z) from 0 to ``length``. With
    E(q) = integral of exp(i*q*z) over [0, L] = L * exp(i*q*L/2) * sinc(q*L/2pi),

        Z = -(exp(-2i*phase)/4) * [E(dk) - (E(dk + 4|kappa|) + E(dk - 4|kappa|))/2],

    and sinc is exact at q = 0, so no limit needs a special case. At a
    linear null (length = m*pi/|kappa|) and delta_k = 0, Z = -exp(-2i*phase) * L/4.

    Returns
    -------
    complex
        The integral [m]; magnitude and phase are both meaningful here,
        but note the phase contains twice the coupling phase.
    """
    require_finite("kappa", kappa)
    require_positive("length", length)
    require_finite("delta_k", delta_k)
    beat = 4.0 * abs(kappa)
    e0, e_up, e_down = (
        _phase_integral(q, length) for q in (delta_k, delta_k + beat, delta_k - beat)
    )
    unit = phase_unit(kappa)
    return -0.25 * (unit * unit) * (e0 - 0.5 * (e_up + e_down))


def _phase_integral(q: float, length: float) -> complex:
    """E(q) = L * exp(i*q*L/2) * sinc(q*L/2pi), the integral of exp(i*q*z) over [0, L]."""
    y = math.pi * (q * length / (2.0 * math.pi))  # np.sinc's rounding: x = qL/2pi, then pi*x
    sinc = math.sin(y) / y if y else 1.0
    return length * cmath.exp(0.5j * q * length) * sinc


def _material_factor(device: DeviceSpec) -> float:
    wg = device.waveguide
    if wg.chi3_bar == 0.0:
        raise ValueError("device waveguide has chi3_bar = 0; the overlap would be zero")
    scale, e = scaled_product(((wg.n_bar, 4), (wg.area_eff, 1)))
    return finite_product("chi3_bar / (n_bar^4 * area_eff)", ((wg.chi3_bar, 1), (scale, -1)), -e)


def j_quadrature(device: DeviceSpec, cfg: ProcessConfig) -> OverlapResult:
    """Overlap figure J = f3 * f4 * f1 * f2 * material factor * Z, exact.

    Z is the exact coupler integral (:func:`z_overlap_integral`) for the
    device's coupler strength, coupler length and the configured phase
    mismatch. Each field's factor is its line's peak amplitude times the
    unit line shape at the line centre, where the field sits; the
    result's ``enhancement_product`` multiplies the four line shapes in
    the same order. The name is the command line's ``--method`` choice.
    """
    z_factor = z_overlap_integral(device.kappa, device.dc_length, cfg.delta_k)
    wg = device.waveguide
    p1, p2, s = cfg.res_p1, cfg.res_p2, cfg.res_s
    # The line shapes before the peak amplitudes: when a loaded Q is so
    # large that the line width underflows, that is the error to report,
    # not the peak amplitude overflowing with it.
    l3, l4, l1 = (lorentzian_response(r, r.omega0) for r in (p1, p2, s))
    f3 = l3 * peak_amplitude(p1, wg, device.ring1)
    f4 = l4 * peak_amplitude(p2, wg, device.ring1)
    f1 = f2 = l1 * peak_amplitude(s, wg, device.ring2)
    factors = (f3, f4, f1, f2, _material_factor(device), z_factor)
    return OverlapResult(
        j_value=finite_product("J", ((f, 1) for f in factors)),
        z_factor=z_factor,
        enhancement_product=l3 * l4 * l1 * l1,
    )


def single_ring_reference(device: DeviceSpec) -> tuple[float, tuple[str, ...]]:
    """Round trip sqrt(L1 * L2) of the single-ring reference, and its ring-length note."""
    l1 = device.ring1.round_trip_length
    l2 = device.ring2.round_trip_length
    notes = () if abs(l1 - l2) <= RING_LENGTH_MISMATCH_LIMIT * max(l1, l2) else (
        f"ring lengths differ by {abs(l1 - l2) / max(l1, l2):.1%}; the single-ring "
        "comparison assumes nearly equal round trips",
    )
    return math.sqrt(l1 * l2), notes


def j_single_ring_ratio(device: DeviceSpec, cfg: ProcessConfig) -> float:
    """|J| of this device over |J| of the single-ring reference, |Z| / sqrt(L1 * L2).

    At a linear null with perfect phase matching and equal ring lengths
    it is dc_length / (4 * L_rt): only the coupler straight contributes
    to the overlap, with an extra 1/4 from the amplitude beat. At the
    bend-limited optimum (coupler pi*R, round trip 4*pi*R) that is 1/16.
    """
    z_factor = z_overlap_integral(device.kappa, device.dc_length, cfg.delta_k)
    return abs(z_factor) / single_ring_reference(device)[0]


def pump_pair(
    comb1: list[Resonance], omega_center: float, separation: int
) -> tuple[Resonance, Resonance]:
    """Ring-1 lines (pump 1, pump 2) ``separation`` orders apart.

    Of all such pairs, returns the one whose midpoint lies closest to
    ``omega_center``; pump 1 is the upper line.
    """
    separation = require_count("separation", separation, 1)
    require_positive("omega_center", omega_center)
    if len(comb1) <= separation:
        raise ValueError(
            f"band holds only {len(comb1)} ring-1 lines; need at least "
            f"{separation + 1} for the requested pump separation"
        )
    best = min(
        range(len(comb1) - separation),
        key=lambda i: abs(0.5 * (comb1[i].omega0 + comb1[i + separation].omega0) - omega_center),
    )
    return comb1[best + separation], comb1[best]


def on_resonance_config(
    wg: WaveguideParams, res_p1: Resonance, res_p2: Resonance, res_s: Resonance
) -> ProcessConfig:
    """Dual-pump configuration with every field on its line center.

    The phase mismatch is k(w_p1) + k(w_p2) - 2 k(w_s) from the
    dispersion model.
    """
    delta_k = (
        wavevector(wg, res_p1.omega0)
        + wavevector(wg, res_p2.omega0)
        - 2.0 * wavevector(wg, res_s.omega0)
    )
    return ProcessConfig(res_p1=res_p1, res_p2=res_p2, res_s=res_s, delta_k=delta_k)


def resonant_config(
    device: DeviceSpec,
    band: tuple[float, float],
    pump_separation: int = PUMP_SEPARATION,
) -> ProcessConfig:
    """Build the on-resonance dual-pump configuration over a band.

    Picks the ring-2 line closest to the band center as the signal,
    then the ring-1 line pair ``pump_separation`` orders apart whose
    midpoint lies closest to the signal. The fields sit on these lines'
    centres, and the phase mismatch is evaluated from the dispersion
    model.
    """
    pump_separation = require_count("pump_separation", pump_separation, 1)
    comb1, comb2 = device_combs(device, band)
    center = 0.5 * (band[0] + band[1])
    res_s = min(comb2, key=lambda r: abs(r.omega0 - center))
    res_p1, res_p2 = pump_pair(comb1, res_s.omega0, pump_separation)
    return on_resonance_config(device.waveguide, res_p1, res_p2, res_s)
