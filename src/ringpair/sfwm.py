"""Photon-pair generation rates and side-band noise suppression.

The dual-pump process puts both generated photons on the ring-2 signal
line. Its parasitic companions are single-pump processes that put one
photon on the signal line and one on a neighboring ring-2 line; they
are only allowed to the extent that the comb provides a partner line at
the energy-conserving frequency. The detuning delta of that partner
line from the energy-conservation point controls the noise:

    rate(delta) / rate(0) = fwhm^2 / (delta^2 + fwhm^2).

Absolute rates follow the spectral-integral form

    |beta|^2 = |alpha|^4 * (hbar * w_s)^2 / T * 9 pi^3 / (2 eps0^2)
               * K / v_g^4 * (2 / (1 - sigma))^4
               * Integral du (2 w_s - w) w * Lor(u) * Lor(u + delta),

with w = w_s2 - u. :func:`pair_rate_integral` evaluates it exactly over
a window 50 linewidths beyond both line centers;
:func:`pair_rate_closed_form` freezes (2 w_s - w) w at the line centers
and integrates over all u: (pi/4) * fwhm^3 / (delta^2 + fwhm^2). K is a
hardware calibration constant: it absorbs the chi3 normalization this
model does not carry, and is fixed by anchoring one measured (or
targeted) rate with :func:`calibrate_kcal`. Ratios and suppressions
never depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import MissingResonance, NonPhysical
from .errors import require_finite, require_non_negative, require_positive
from .geometry import (
    EPSILON_0,
    HBAR,
    DeviceSpec,
    Resonance,
    finesse as ring_finesse,
    resonance_comb,
)
from .nonlinear import ProcessConfig

INTEGRATION_WINDOW_LINEWIDTHS = 50.0


@dataclass(frozen=True)
class PumpDrive:
    """Pump excitation of ring 1.

    Parameters
    ----------
    photon_number : float
        Mean photon number |alpha|^2 per pump pulse.
    pulse_duration : float
        Pulse (or integration window) duration T [s].
    self_coupling : float or None
        Bus self-coupling coefficient sigma of the pump coupler. When
        None, :func:`resolve_drive` derives it from the ring finesse via
        (1 - sigma) = pi / finesse, and :func:`noise_budget` flags that
        choice.
    """

    photon_number: float
    pulse_duration: float
    self_coupling: float | None = None

    def __post_init__(self) -> None:
        require_non_negative("photon_number", self.photon_number)
        require_positive("pulse_duration", self.pulse_duration)
        if self.self_coupling is not None and not 0.0 < self.self_coupling < 1.0:
            raise ValueError(
                f"self_coupling must lie strictly between 0 and 1, got {self.self_coupling}"
            )

    def power(self, omega: float) -> float:
        """Mean power [W] of the pulse's photons at ``omega``."""
        require_positive("omega", omega)
        return self.photon_number * HBAR * omega / self.pulse_duration


@dataclass(frozen=True)
class PairRateReport:
    """Signal and parasitic pair rates of one configuration.

    Rates are per pulse (dimensionless |beta|^2). ``per_second``
    converts using the drive's pulse duration. Tuple entries are
    ordered (pump-1 process, pump-2 process).
    """

    beta_sq_signal: float
    beta_sq_parasitic: tuple[float, float]
    suppression: tuple[float, float]
    snr_improvement: tuple[float, float]
    detuning_delta: tuple[float, float]
    kcal: float
    sigma: float
    pulse_duration: float
    notes: tuple[str, ...] = ()

    def per_second(self, beta_sq: float) -> float:
        require_finite("beta_sq", beta_sq)
        return beta_sq / self.pulse_duration


def suppression_factor(delta: float, linewidth: float) -> float:
    """Parasitic-rate suppression fwhm^2 / (delta^2 + fwhm^2).

    Always returns the correct limit in [0, 1]: where the denominator
    overflows (|delta| or fwhm past about 1.3e154) or underflows to 0,
    delta and fwhm are first divided by the larger of the two, and a
    suppression below the smallest double is 0.0.
    """
    require_finite("delta", delta)
    require_positive("linewidth", linewidth)
    try:
        den = delta**2 + linewidth**2
    except OverflowError:
        den = math.inf
    if 0.0 < den < math.inf:
        return linewidth**2 / den
    scale = max(abs(delta), linewidth)
    a, b = delta / scale, linewidth / scale
    return b * b / (a * a + b * b)


def sigma_from_finesse(fin: float) -> float:
    """High-finesse estimate of the bus self-coupling, 1 - pi/finesse.

    Raises :class:`NonPhysical` when the finesse is at most pi, or so high
    (above about 3e16) that 1 - pi/finesse rounds to 1: a lossless bus
    coupler is outside the model, not bad input.
    """
    require_finite("finesse", fin, NonPhysical)
    if fin <= math.pi:
        raise NonPhysical(
            f"finesse {fin:.3g} is too low for the high-finesse self-coupling estimate"
        )
    sigma = 1.0 - math.pi / fin
    if not sigma < 1.0:
        raise NonPhysical(
            f"finesse {fin:.3g} is too high: the self-coupling 1 - pi/finesse rounds to 1"
        )
    return sigma


def resolve_drive(device: DeviceSpec, drive: PumpDrive, cfg: ProcessConfig) -> PumpDrive:
    """The drive with its self-coupling set; if unset, from the ring-1 finesse at pump 1."""
    if drive.self_coupling is not None:
        return drive
    fin = ring_finesse(device.ring1, device.waveguide, cfg.res_p1.omega0)
    return replace(drive, self_coupling=sigma_from_finesse(fin))


def _rate_setup(
    drive: PumpDrive,
    res_s: Resonance,
    delta: float,
    kcal: float,
    v_g: float,
    omega_s2: float | None,
) -> tuple[float, float, float]:
    """Validate the inputs of both rate routes.

    Returns the |beta|^2 prefactor, omega_s2 (default: the signal
    center) and the pump frequency. The drive must carry its
    self-coupling (see :func:`resolve_drive`). Both routes need a
    signal line narrower than a hundredth of its center, and reading
    its linewidth refuses one whose squared half width is zero, so
    neither route divides by d^2 + h^2 = 0.
    """
    require_positive("kcal", kcal, NonPhysical)
    require_positive("v_g", v_g)
    require_finite("delta", delta)
    omega_s = res_s.omega0
    omega_s2 = omega_s if omega_s2 is None else omega_s2
    require_positive("omega_s2", omega_s2, NonPhysical)
    omega_p = 2.0 * omega_s - omega_s2 - delta
    if omega_p <= 0.0:
        raise NonPhysical("process frequencies are not positive; check delta and omega_s2")
    sigma = drive.self_coupling
    if sigma is None:
        raise ValueError("drive.self_coupling is unset; resolve the drive first")
    if res_s.linewidth >= 0.01 * omega_s:
        raise NonPhysical(
            f"linewidth {res_s.linewidth:.3g} rad/s is not small against the line center; "
            "the narrow-resonance spectral model does not apply"
        )
    try:
        pref = (
            drive.photon_number**2
            * (HBAR * omega_s) ** 2
            / drive.pulse_duration
            * 9.0
            * math.pi**3
            / (2.0 * EPSILON_0**2)
            * kcal
            / v_g**4
            * (2.0 / (1.0 - sigma)) ** 4
        )
    except OverflowError as exc:
        raise NonPhysical("the pair-rate prefactor overflows the float range") from exc
    return pref, omega_s2, omega_p


def _partner_line(
    signal_comb: list[Resonance] | tuple[Resonance, ...],
    cfg: ProcessConfig,
    pump: int,
) -> tuple[float, Resonance]:
    """Energy mismatch and partner line of one single-pump process."""
    if pump == 1:
        omega_p = cfg.res_p1.omega0
    elif pump == 2:
        omega_p = cfg.res_p2.omega0
    else:
        raise ValueError(f"pump must be 1 or 2, got {pump}")
    omega_s = cfg.res_s.omega0
    target = 2.0 * omega_p - omega_s

    candidates = [r for r in signal_comb if abs(r.omega0 - omega_s) > 1e-9 * omega_s]
    if not candidates:
        raise MissingResonance("the signal comb holds no line besides the signal itself")
    if len(signal_comb) >= 2:
        freqs = sorted(r.omega0 for r in signal_comb)
        spacing = max(b - a for a, b in zip(freqs, freqs[1:]))
    else:
        spacing = abs(target - omega_s)
    partner = min(candidates, key=lambda r: abs(r.omega0 - target))
    delta = target - partner.omega0
    if abs(delta) > 0.6 * spacing:
        raise MissingResonance(
            f"no comb line brackets the side-band point at {target:.6e} rad/s; "
            "widen the band so the adjacent lines are included"
        )
    return delta, partner


def sideband_detuning(
    signal_comb: list[Resonance] | tuple[Resonance, ...],
    cfg: ProcessConfig,
    pump: int = 1,
) -> float:
    """Energy mismatch of the single-pump side-band process [rad/s].

    delta = 2 * omega_pump - omega_signal - omega_partner, where the
    partner is the signal-comb line closest to the energy-conserving
    point 2 * omega_pump - omega_signal (the signal line itself is
    excluded). For the symmetric arrangement with the pumps straddling
    the signal, the partner of pump 1 is the line directly above the
    signal and the partner of pump 2 the line directly below.

    A rigid displacement of the partner line moves delta one-to-one;
    two aligned combs with matching spacing give delta = 0.

    Raises
    ------
    MissingResonance
        If the comb does not bracket the energy-conserving point.
    """
    delta, _partner = _partner_line(signal_comb, cfg, pump)
    return delta


def sideband_pair(
    signal_comb: list[Resonance] | tuple[Resonance, ...], cfg: ProcessConfig
) -> tuple[tuple[float, float], tuple[float, float], tuple[Resonance, Resonance]]:
    """Detunings, suppressions and partner lines of both side-band processes.

    Each entry is ordered (pump-1 process, pump-2 process); the
    detunings are those of :func:`sideband_detuning`, and the
    suppressions are :func:`suppression_factor` at the signal linewidth.
    """
    (d1, partner1), (d2, partner2) = (_partner_line(signal_comb, cfg, pump) for pump in (1, 2))
    lw = cfg.res_s.linewidth
    return (d1, d2), (suppression_factor(d1, lw), suppression_factor(d2, lw)), (partner1, partner2)


def pair_rate_integral(
    drive: PumpDrive,
    res_s: Resonance,
    delta: float,
    kcal: float,
    v_g: float,
    omega_s2: float | None = None,
) -> float:
    """Pairs per pulse of one process from the exact spectral integral.

    The window reaches 50 linewidths beyond both line centers (u = 0,
    u = -delta) and is symmetric about -delta/2, so the odd part of the
    slow factor drops out. With h = fwhm/2, d = |delta|/2, T = d + 50 fwhm,
    D = (T-d)^2 + h^2, x = 4Td/D, G = h (2T/D) log1p(x)/x, S = atan((T+d)/h)
    + atan((T-d)/h) and ab = (2 w_s - w_s2 - delta/2)(w_s2 + delta/2), it is
    (h/2) [ab h^2/(d^2 + h^2) (G + S) - h^2 (S - G)], exact at delta = 0.

    Parameters
    ----------
    drive : PumpDrive
        Carries its self-coupling; see :func:`resolve_drive`.
    res_s : Resonance
        The signal line; sets omega_s and the linewidth.
    delta : float
        Energy mismatch of the process [rad/s].
    kcal : float
        Hardware calibration constant from :func:`calibrate_kcal`.
    v_g : float
        Group velocity [m/s].
    omega_s2 : float, optional
        Center of the partner line [rad/s]; defaults to the signal
        center, which is exact for the degenerate dual-pump process and
        a sub-0.1 percent approximation for its neighbors.
    """
    pref, omega_s2, _omega_p = _rate_setup(drive, res_s, delta, kcal, v_g, omega_s2)
    h, d = 0.5 * res_s.linewidth, 0.5 * abs(delta)
    t = d + INTEGRATION_WINDOW_LINEWIDTHS * res_s.linewidth
    den = (t - d) ** 2 + h * h
    x = 4.0 * t * d / den
    g = h * (math.log1p(x) / x if x > 0.0 else 1.0) * 2.0 * t / den
    s = math.atan((t + d) / h) + math.atan((t - d) / h)
    ab = (2.0 * res_s.omega0 - omega_s2 - 0.5 * delta) * (omega_s2 + 0.5 * delta)
    rate = pref * 0.5 * h * (ab * h * h / (d * d + h * h) * (g + s) - h * h * (s - g))
    require_finite("pair rate", rate, NonPhysical)
    return rate


def pair_rate_closed_form(
    drive: PumpDrive,
    res_s: Resonance,
    delta: float,
    kcal: float,
    v_g: float,
    omega_s2: float | None = None,
) -> float:
    """Pairs per pulse with the slow factor frozen at the line centers.

    Differs from :func:`pair_rate_integral` by that route's slow factor
    (of order delta / w_s) and window, which clips the tails by -4.2e-7
    at delta = 0 and -5.7e-5 and -1.7e-4 at the shipped device's
    side-band detunings (13.9, 28.0 linewidths). The window stays: the
    benchmark checks rates to 1e-6 against references made with it.

    Raises :class:`NonPhysical`, rather than returning a limit, when
    delta^2 or fwhm^3 overflows (|delta| past about 1.3e154 rad/s, fwhm
    past about 5.6e102 rad/s) or the rate is not finite.
    """
    pref, omega_s2, omega_p = _rate_setup(drive, res_s, delta, kcal, v_g, omega_s2)
    fwhm = res_s.linewidth
    try:
        spectral = (math.pi / 4.0) * fwhm**3 / (delta**2 + fwhm**2) * omega_s2 * omega_p
    except OverflowError as exc:
        raise NonPhysical(
            "delta^2 or fwhm^3 of the closed-form pair rate overflows the float range"
        ) from exc
    rate = pref * spectral
    require_finite("pair rate", rate, NonPhysical)
    return rate


def noise_budget(
    device: DeviceSpec,
    drive: PumpDrive,
    cfg: ProcessConfig,
    band: tuple[float, float],
    kcal: float = 1.0,
) -> PairRateReport:
    """Signal rate, both parasitic rates, and their suppressions.

    The signal process runs at the residual mismatch of the tuned
    device (zero when energy conservation holds exactly); each
    parasitic process runs at its comb detuning from
    :func:`sideband_pair`, using the actual partner line as the
    second center, searched for in the ring-2 comb over ``band``.
    """
    notes: list[str] = []
    wg = device.waveguide
    omega_s = cfg.res_s.omega0

    drive_resolved = resolve_drive(device, drive, cfg)
    if drive.self_coupling is None:
        notes.append(
            "self_coupling derived from ring-1 finesse via (1 - sigma) = pi / finesse; "
            "override PumpDrive.self_coupling to pin it"
        )

    comb2 = resonance_comb(device.ring2, wg, band, owner=2)

    beta_signal = pair_rate_integral(
        drive_resolved, cfg.res_s, cfg.signal_mismatch, kcal, wg.v_g, omega_s2=omega_s
    )
    deltas, sups, partners = sideband_pair(comb2, cfg)
    betas = tuple(
        pair_rate_integral(drive_resolved, cfg.res_s, delta, kcal, wg.v_g, omega_s2=p.omega0)
        for delta, p in zip(deltas, partners)
    )

    if kcal == 1.0:
        notes.append("kcal = 1 (uncalibrated); absolute rates are in model units")

    return PairRateReport(
        beta_sq_signal=beta_signal,
        beta_sq_parasitic=betas,
        suppression=sups,
        snr_improvement=(1.0 / sups[0], 1.0 / sups[1]),
        detuning_delta=deltas,
        kcal=kcal,
        sigma=drive_resolved.self_coupling,
        pulse_duration=drive.pulse_duration,
        notes=tuple(notes),
    )


def calibrate_kcal(
    device: DeviceSpec,
    target_rate: float,
    pump_power: float,
    cfg: ProcessConfig,
) -> float:
    """Calibration constant reproducing a target pair rate.

    Anchors K so that the dual-pump signal process of ``cfg`` produces
    ``target_rate`` pairs per second at the given per-pump power. The
    drive is a 1 ns pulse at that power. The pulse duration drops out
    of the per-second rate (the photon number scales with T and the
    per-pulse rate is divided by T), so any fixed value serves.

    Raises
    ------
    NonPhysical
        If the target rate or pump power is not finite and positive.
    """
    require_positive("target_rate", target_rate, NonPhysical)
    require_positive("pump_power", pump_power, NonPhysical)
    pulse_duration = 1e-9
    wg = device.waveguide
    omega_p = 0.5 * (cfg.res_p1.omega0 + cfg.res_p2.omega0)
    photon_number = pump_power * pulse_duration / (HBAR * omega_p)
    drive = resolve_drive(device, PumpDrive(photon_number, pulse_duration), cfg)
    beta_unit = pair_rate_integral(
        drive, cfg.res_s, cfg.signal_mismatch, 1.0, wg.v_g, omega_s2=cfg.res_s.omega0
    )
    rate_unit = beta_unit / pulse_duration
    if rate_unit <= 0.0:
        raise NonPhysical("the device produces no pairs at unit calibration")
    return target_rate / rate_unit
