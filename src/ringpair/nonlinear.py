"""Nonlinear overlap of four resonant fields in the shared coupler.

The figure of merit J multiplies four field-enhancement factors (two
pump fields of ring 1, two generated fields of ring 2), the material
factor chi3_bar / (n_bar^4 * area_eff), and a spatial factor: the
integral over the coupler length of the product of asymptotic-field
amplitudes, with the phase-mismatch factor exp(i * delta_k * z).

Two routes compute J:

* :func:`j_quadrature` uses the exact spatial integral for any coupler
  length and phase mismatch;
* :func:`j_closed_form` uses the analytic result that at a linear null
  (L = m*pi/|kappa|) and perfect phase matching the spatial integral
  has magnitude L/4, times a four-Lorentzian detuning factor.

Their magnitudes agree there to rounding; the overall phase of J is
convention dependent (only |J| and |J|^2 enter rates), so comparisons
are made on magnitudes.

J is reported in model units of 1/V^2 * m: the chi3 normalization
constants that would convert it to a fully dimensioned interaction
energy are hardware calibration factors, handled by the rate
calibration in :mod:`ringpair.sfwm`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NonPhysical, require_finite, require_positive
from .geometry import DeviceSpec, Resonance, WaveguideParams, device_combs, wavevector
from .enhancement import ENHANCEMENT_WINDOW_LINEWIDTHS, lorentzian_response, peak_amplitude
from .linear_cmt import phase_unit

PUMP_Q_MISMATCH_LIMIT = 0.10
PHASE_MISMATCH_LIMIT = math.pi / 10.0
RING_LENGTH_MISMATCH_LIMIT = 0.01


def _assume(condition: bool, message: str, log: list[str]) -> None:
    """Append ``message`` to the result's log unless the assumption holds."""
    if not condition:
        log.append(message)


@dataclass(frozen=True)
class ProcessConfig:
    """One four-wave mixing configuration.

    Frequencies 1 and 2 are the generated (output-side) fields, 3 and 4
    the pump (input-side) fields. Energy bookkeeping of specific
    processes is the caller's business; this type only fixes which
    resonance each field rides on.
    """

    omega1: float
    omega2: float
    omega3: float
    omega4: float
    res_p1: Resonance
    res_p2: Resonance
    res_s: Resonance
    delta_k: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "omega3", "omega4"):
            require_positive(name, getattr(self, name))
        require_finite("delta_k", self.delta_k)
        if self.res_p1.owner != 1 or self.res_p2.owner != 1:
            raise ValueError("pump resonances must belong to ring 1")
        if self.res_s.owner != 2:
            raise ValueError("signal resonance must belong to ring 2")

    @property
    def signal_mismatch(self) -> float:
        """Energy mismatch w3 + w4 - 2 w_S of the dual-pump signal process [rad/s]."""
        return self.omega3 + self.omega4 - 2.0 * self.res_s.omega0

    def detuning_in_linewidths(self) -> tuple[float, float, float, float]:
        """(omega_i - center) / linewidth for each of the four fields."""
        pairs = (
            (self.omega1, self.res_s),
            (self.omega2, self.res_s),
            (self.omega3, self.res_p1),
            (self.omega4, self.res_p2),
        )
        return tuple(abs(w - r.omega0) / r.linewidth for w, r in pairs)


@dataclass(frozen=True)
class OverlapResult:
    """Overlap figure J with its factor breakdown."""

    j_value: complex
    z_factor: complex
    enhancement_product: complex
    method: str
    warnings: tuple[str, ...] = ()

    @property
    def j_abs(self) -> float:
        return abs(self.j_value)


def enhancement_factor(cfg: ProcessConfig) -> complex:
    """Four-Lorentzian detuning factor of the process.

    Product of the unit-peak line shapes of the two pump resonances
    (evaluated at omega3, omega4) and the signal resonance (evaluated
    at omega1 and omega2). Magnitude is at most 1, with equality only
    when all four fields sit exactly on their centers; on resonance
    each factor contributes -i, so the product is (-i)^4 = 1.
    """
    return (
        lorentzian_response(cfg.res_p1, cfg.omega3)
        * lorentzian_response(cfg.res_p2, cfg.omega4)
        * lorentzian_response(cfg.res_s, cfg.omega1)
        * lorentzian_response(cfg.res_s, cfg.omega2)
    )


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
    try:
        scale = wg.n_bar**4 * wg.area_eff
    except OverflowError:
        scale = math.inf
    require_positive("n_bar^4 * area_eff", scale, NonPhysical)
    factor = wg.chi3_bar / scale
    require_positive("|chi3_bar| / (n_bar^4 * area_eff)", abs(factor), NonPhysical)
    return factor


def j_quadrature(device: DeviceSpec, cfg: ProcessConfig) -> OverlapResult:
    """Overlap figure J, exact at the configured frequencies.

    The four enhancement factors are evaluated at the configured
    frequencies and multiplied by the exact spatial integral for the
    device's coupler strength, coupler length and the configured phase
    mismatch. The name and the ``"quadrature"`` method tag are part of
    the command line's ``--method`` choice and of its artifacts.
    """
    log: list[str] = []
    detunings = cfg.detuning_in_linewidths()
    _assume(
        max(detunings) <= ENHANCEMENT_WINDOW_LINEWIDTHS,
        f"a field is {max(detunings):.1f} linewidths from its resonance; the "
        "Lorentzian enhancement model is a near-resonance approximation",
        log,
    )

    wg = device.waveguide
    f3 = peak_amplitude(cfg.res_p1, wg, device.ring1) * lorentzian_response(cfg.res_p1, cfg.omega3)
    f4 = peak_amplitude(cfg.res_p2, wg, device.ring1) * lorentzian_response(cfg.res_p2, cfg.omega4)
    f1 = peak_amplitude(cfg.res_s, wg, device.ring2) * lorentzian_response(cfg.res_s, cfg.omega1)
    f2 = peak_amplitude(cfg.res_s, wg, device.ring2) * lorentzian_response(cfg.res_s, cfg.omega2)

    z_factor = z_overlap_integral(device.kappa, device.dc_length, cfg.delta_k)
    j = f3 * f4 * f1 * f2 * _material_factor(device) * z_factor
    require_finite("J", j, NonPhysical)
    return OverlapResult(
        j_value=j,
        z_factor=z_factor,
        enhancement_product=enhancement_factor(cfg),
        method="quadrature",
        warnings=tuple(log),
    )


def _closed_form(
    device: DeviceSpec, cfg: ProcessConfig, spatial: float, method: str, log: list[str]
) -> OverlapResult:
    """Analytic J: prefactor * material factor * ``spatial`` * enhancement.

    Uses geometric means of the two pump-resonance quality factors, so
    the expression stays exact when they differ; the stated closed form
    assumes they are equal, hence the 10 percent check. ``log`` holds
    the calling route's own notes and receives this one after them.
    """
    q_rel = abs(cfg.res_p1.q_loaded - cfg.res_p2.q_loaded) / max(
        cfg.res_p1.q_loaded, cfg.res_p2.q_loaded
    )
    _assume(
        q_rel <= PUMP_Q_MISMATCH_LIMIT,
        f"pump quality factors differ by {q_rel:.1%}; the closed form assumes "
        "nearly equal pump linewidths",
        log,
    )
    wg = device.waveguide
    q_p = math.sqrt(cfg.res_p1.q_loaded * cfg.res_p2.q_loaded)
    q_cp = math.sqrt(cfg.res_p1.q_coupling * cfg.res_p2.q_coupling)
    q_s = cfg.res_s.q_loaded
    l1 = device.ring1.round_trip_length
    l2 = device.ring2.round_trip_length
    omega_s = cfg.res_s.omega0
    omega_p_geo = math.sqrt(cfg.res_p1.omega0 * cfg.res_p2.omega0)
    pref = (
        16.0
        * wg.v_g**2
        * q_p
        * q_s
        / (l1 * l2 * omega_s * omega_p_geo)
        * (q_p * q_s)
        / (q_cp * cfg.res_s.q_coupling)
    )
    require_positive("closed-form J prefactor", pref, NonPhysical)
    material = _material_factor(device)
    z_factor = complex(spatial)
    enh = enhancement_factor(cfg)
    return OverlapResult(
        j_value=pref * material * z_factor * enh,
        z_factor=z_factor,
        enhancement_product=enh,
        method=method,
        warnings=tuple(log),
    )


def j_closed_form(device: DeviceSpec, cfg: ProcessConfig) -> OverlapResult:
    """Overlap figure J from the analytic null-length result.

    Valid when the coupler sits at a linear null and the phase mismatch
    is small (|delta_k| * L below pi/10); outside that regime the
    function still evaluates but flags the assumption.
    """
    log: list[str] = []
    _assume(
        abs(cfg.delta_k) * device.dc_length <= PHASE_MISMATCH_LIMIT,
        f"|delta_k| * L = {abs(cfg.delta_k) * device.dc_length:.3g} rad exceeds the "
        "small-mismatch regime of the closed form",
        log,
    )
    return _closed_form(device, cfg, device.dc_length / 4.0, "closed_form", log)


def j_single_ring_baseline(device: DeviceSpec, cfg: ProcessConfig) -> OverlapResult:
    """J of the single-ring reference device of equivalent length.

    The reference is one ring whose round trip equals the geometric
    mean of the two racetrack lengths, with the full round trip acting
    as the interaction region (spatial factor L_rt instead of L/4).
    """
    log: list[str] = []
    l1 = device.ring1.round_trip_length
    l2 = device.ring2.round_trip_length
    _assume(
        abs(l1 - l2) <= RING_LENGTH_MISMATCH_LIMIT * max(l1, l2),
        f"ring lengths differ by {abs(l1 - l2) / max(l1, l2):.1%}; the single-ring "
        "comparison assumes nearly equal round trips",
        log,
    )
    return _closed_form(device, cfg, math.sqrt(l1 * l2), "single_ring_baseline", log)


def j_single_ring_ratio(device: DeviceSpec, cfg: ProcessConfig) -> float:
    """|J| of this device over |J| of the single-ring reference.

    Equals dc_length / (4 * L_rt) for equal ring lengths: the price of
    linear uncoupling is that only the coupler straight contributes to
    the overlap, with an extra 1/4 from the amplitude beat. At the
    bend-limited optimum (coupler length pi*R, round trip 4*pi*R) the
    ratio is 1/16.
    """
    return j_closed_form(device, cfg).j_abs / j_single_ring_baseline(device, cfg).j_abs


def pump_pair(
    comb1: list[Resonance], omega_center: float, separation: int
) -> tuple[Resonance, Resonance]:
    """Ring-1 lines (pump 1, pump 2) ``separation`` orders apart.

    Of all such pairs, returns the one whose midpoint lies closest to
    ``omega_center``; pump 1 is the upper line.
    """
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
    return ProcessConfig(
        omega1=res_s.omega0,
        omega2=res_s.omega0,
        omega3=res_p1.omega0,
        omega4=res_p2.omega0,
        res_p1=res_p1,
        res_p2=res_p2,
        res_s=res_s,
        delta_k=delta_k,
    )


def resonant_config(
    device: DeviceSpec,
    band: tuple[float, float],
    pump_separation: int = 2,
) -> ProcessConfig:
    """Build the on-resonance dual-pump configuration over a band.

    Picks the ring-2 line closest to the band center as the signal,
    then the ring-1 line pair ``pump_separation`` orders apart whose
    midpoint lies closest to the signal. All four frequencies are set
    to their resonance centers and the phase mismatch is evaluated from
    the dispersion model.
    """
    if pump_separation < 1:
        raise ValueError(f"pump_separation must be at least 1, got {pump_separation}")
    comb1, comb2 = device_combs(device, band)
    center = 0.5 * (band[0] + band[1])
    res_s = min(comb2, key=lambda r: abs(r.omega0 - center))
    res_p1, res_p2 = pump_pair(comb1, res_s.omega0, pump_separation)
    return on_resonance_config(device.waveguide, res_p1, res_p2, res_s)
