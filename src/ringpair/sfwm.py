"""Photon-pair generation rates and side-band noise suppression.

The dual-pump process puts both generated photons on the ring-2 signal
line. Its parasitic companions are single-pump processes that put one
photon on the signal line and one on the partner: the ring-2 line, other
than the signal, nearest the energy-conserving point 2 w_p - w_s
(:func:`sideband_pair` refuses a band that could hide a nearer one). The
detuning delta of the partner from that point controls the noise:

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
never depend on it. Both routes multiply the prefactor and the spectral
factor as one scaled product, so only the rate itself can leave the
float range.
"""

from __future__ import annotations

import math

from .errors import MissingResonance, NonPhysical, common_scale, finite_product, scaled_product
from .errors import require_finite, require_positive
from .geometry import (
    EPSILON_0,
    HBAR,
    DeviceSpec,
    Resonance,
    finesse as ring_finesse,
    resonance_comb,
)
from .nonlinear import ProcessConfig
from .record import NonNegative, Positive, Record, replace

INTEGRATION_WINDOW_LINEWIDTHS = 50.0
UNCALIBRATED_KCAL = 1.0
_RATE = "pair rate (prefactor times spectral factor)"
_NOT_POSITIVE = "process frequencies are not positive; check delta and omega_s2"


class PumpDrive(Record):
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

    photon_number: NonNegative
    pulse_duration: Positive
    self_coupling: float | None = None

    def __post_init__(self) -> None:
        if self.self_coupling is not None and not 0.0 < self.self_coupling < 1.0:
            raise ValueError(
                f"self_coupling must lie strictly between 0 and 1, got {self.self_coupling}"
            )

    def power(self, omega: float) -> float:
        """Mean power [W] of the pulse's photons at ``omega``; ``NonPhysical`` if it overflows."""
        require_positive("omega", omega)
        power = self.photon_number * HBAR * omega / self.pulse_duration
        require_finite("mean pump power [W]", power, NonPhysical)
        return power

    def per_pump_power(self, cfg: ProcessConfig) -> float:
        """The larger per-pump power [W]: :meth:`power` at the upper pump line of ``cfg``."""
        return self.power(max(cfg.res_p1.omega0, cfg.res_p2.omega0))


class PairRateReport(Record):
    """Signal and parasitic pair rates of one configuration.

    Rates are per pulse (dimensionless |beta|^2); :func:`per_second`
    converts them with ``pulse_duration``. Tuple entries are ordered
    (pump-1 process, pump-2 process).
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


def per_second(beta_sq: float, pulse_duration: float) -> float:
    """Pairs per second from ``beta_sq`` pairs per pulse of ``pulse_duration``.

    Raises ``NonPhysical`` when the quotient overflows, or when a nonzero
    ``beta_sq`` underflows to 0; a subnormal quotient is returned as is.
    """
    require_finite("beta_sq", beta_sq)
    rate = beta_sq / pulse_duration
    require_finite("pair rate per second", rate, NonPhysical)
    if rate == 0.0 and beta_sq != 0.0:
        raise NonPhysical("pair rate per second underflows to 0")
    return rate


def suppression_factor(delta: float, linewidth: float) -> float:
    """Parasitic-rate suppression fwhm^2 / (delta^2 + fwhm^2).

    Delta and fwhm are first scaled by a common power of two, so the
    result lies in [0, 1] for every finite delta and positive fwhm, within
    a few ulp of the exact quotient; a suppression below the smallest
    double is 0.0.
    """
    require_finite("delta", delta)
    require_positive("linewidth", linewidth)
    a, b, _e = common_scale(delta, linewidth)
    return b**2 / (a**2 + b**2)


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
) -> tuple[tuple[tuple[float, int], ...], float, float]:
    """Validate the inputs of both rate routes.

    Returns the factors of the |beta|^2 prefactor in the formula's
    order, as :func:`.errors.scaled_product` takes them; omega_s2
    (default: the signal center); and the pump frequency. The drive
    must carry its self-coupling (see :func:`resolve_drive`). Both
    routes need a signal line narrower than a hundredth of its center,
    and reading its linewidth refuses one whose squared half width is
    zero, so neither route divides by d^2 + h^2 = 0.
    """
    require_positive("kcal", kcal, NonPhysical)
    require_positive("v_g", v_g)
    require_finite("delta", delta)
    omega_s = res_s.omega0
    omega_s2 = omega_s if omega_s2 is None else omega_s2
    require_positive("omega_s2", omega_s2, NonPhysical)
    omega_p = 2.0 * omega_s - omega_s2 - delta
    if omega_p <= 0.0:
        raise NonPhysical(_NOT_POSITIVE)
    sigma = drive.self_coupling
    if sigma is None:
        raise ValueError("drive.self_coupling is unset; resolve the drive first")
    if res_s.linewidth >= 0.01 * omega_s:
        raise NonPhysical(
            f"linewidth {res_s.linewidth:.3g} rad/s is not small against the line center; "
            "the narrow-resonance spectral model does not apply"
        )
    pref = (
        (drive.photon_number, 2),
        (HBAR * omega_s, 2),
        (drive.pulse_duration, -1),
        (9.0, 1),
        (math.pi, 3),
        (2.0 * EPSILON_0**2, -1),
        (kcal, 1),
        (v_g, -4),
        (2.0 / (1.0 - sigma), 4),
    )
    return pref, omega_s2, omega_p


def sideband_pair(
    signal_comb: list[Resonance] | tuple[Resonance, ...],
    cfg: ProcessConfig,
    band: tuple[float, float],
) -> tuple[tuple[float, float], tuple[float, float], tuple[Resonance, Resonance]]:
    """Detunings, suppressions and partner lines of both side-band processes.

    Each entry is ordered (pump-1 process, pump-2 process). The detuning
    is the energy mismatch of the single-pump process [rad/s],

        delta = 2 * omega_pump - omega_signal - omega_partner,

    where the partner is the line of ``signal_comb``, the ring-2 comb
    over ``band``, closest to the side-band point t = 2 * omega_pump -
    omega_signal (the signal line itself is excluded). A line outside
    the band can only be nearer t than the partner when |delta| exceeds
    the distance from t to the nearer band edge, so exactly then the
    partner is refused. For the symmetric arrangement with the pumps
    straddling the signal, the partner of pump 1 is the line directly
    above the signal and the partner of pump 2 the line directly below.
    A rigid displacement of the partner line moves delta one-to-one; two
    aligned combs with matching spacing give delta = 0. The suppressions
    are :func:`suppression_factor` at the signal linewidth.

    Raises
    ------
    MissingResonance
        If the comb holds no line besides the signal, or a line outside
        ``band`` could be nearer either side-band point than its partner.
    """
    for edge in band:
        require_positive("band edge", edge)
    lo, hi = min(band), max(band)
    omega_s = cfg.res_s.omega0
    candidates = [r for r in signal_comb if abs(r.omega0 - omega_s) > 1e-9 * omega_s]
    if not candidates:
        raise MissingResonance("the signal comb holds no line besides the signal itself")
    pairs = []
    for res_p in (cfg.res_p1, cfg.res_p2):
        target = 2.0 * res_p.omega0 - omega_s
        partner = min(candidates, key=lambda r: abs(r.omega0 - target))
        delta = target - partner.omega0
        if abs(delta) > min(hi - target, target - lo):
            raise MissingResonance(
                f"no comb line brackets the side-band point at {target:.6e} rad/s; "
                "widen the band so the adjacent lines are included"
            )
        pairs.append((delta, partner))
    (d1, partner1), (d2, partner2) = pairs
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

    The window reaches 50 linewidths, w = 100 half widths h = fwhm/2,
    beyond both line centers (u = 0, u = -delta) and is symmetric about
    -delta/2, so the odd part of the slow factor drops out. It is written
    in half widths, so no window edge rounds into a line center: with
    r = |delta|/fwhm, x = 4r(r + w)/(w^2 + 1), G = 2(r + w)/(w^2 + 1)
    log1p(x)/x, S = atan(2r + w) + atan(w), d = |delta|/2 and
    ab = (2 w_s - w_s2 - delta/2)(w_s2 + delta/2), it is
    (h/2) [ab h^2/(d^2 + h^2) (G + S) - h^2 (S - G)], exact at delta = 0.
    Each term carries its own power of two, and d^2 + h^2 is formed from
    d and h scaled by a common one, so every linewidth that
    :attr:`.Resonance.linewidth` accepts gives its rate. A rate outside
    the float range, or a slow factor w (2 w_s - w) not positive at
    either line, w = w_s2 or w_s2 + delta, raises :class:`NonPhysical`.

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
    if not min(omega_s2 + delta, 2.0 * res_s.omega0 - omega_s2) > 0.0:
        raise NonPhysical(_NOT_POSITIVE)
    fwhm, w = res_s.linewidth, 2.0 * INTEGRATION_WINDOW_LINEWIDTHS
    h = 0.5 * fwhm
    # Past 2**500 linewidths G < 1e-148 vanishes against S, so capping r
    # there changes no bit and keeps x in range.
    r = min(abs(delta) / fwhm, 2.0**500)
    x = 4.0 * r * (r + w) / (w * w + 1.0)
    g = 2.0 * (r + w) / (w * w + 1.0) * (math.log1p(x) / x if x > 0.0 else 1.0)
    s = math.atan(2.0 * r + w) + math.atan(w)
    # Both terms of the bracket carry their own power of two: d^2 + h^2 is
    # formed from d and h scaled by a common 2**e, and h^2 from h's
    # mantissa, so no square leaves the float range.
    a, b, e = common_scale(0.5 * delta, h)
    m1, k1 = scaled_product((
        (2.0 * res_s.omega0 - omega_s2 - 0.5 * delta, 1), (omega_s2 + 0.5 * delta, 1),
        (h, 1), (h, 1), (a * a + b * b, -1), (g + s, 1),
    ))
    mh, kh = math.frexp(h)
    k = max(k1 - 2 * e, 2 * kh)
    bracket = math.ldexp(m1, k1 - 2 * e - k) - math.ldexp(mh * mh * (s - g), 2 * kh - k)
    return finite_product(_RATE, (*pref, (0.5, 1), (h, 1), (bracket, 1)), k)


def pair_rate_closed_form(
    drive: PumpDrive,
    res_s: Resonance,
    delta: float,
    kcal: float,
    v_g: float,
) -> float:
    """Pairs per pulse with the slow factor frozen at the line centers.

    The second center is always the signal center. Differs from
    :func:`pair_rate_integral` there by that route's slow factor (of
    order delta / w_s) and window, which clips the tails by -4.2e-7 at
    delta = 0 and -5.7e-5 and -1.7e-4 at the shipped device's side-band
    detunings (13.9, 28.0 linewidths). The window stays: the benchmark
    checks rates to 1e-6 against references made with it.

    Delta and fwhm are scaled by a common power of two before delta^2 +
    fwhm^2 is formed, so no square overflows and every finite delta gives
    its rate; a rate outside the float range raises :class:`NonPhysical`.
    """
    pref, omega_s2, omega_p = _rate_setup(drive, res_s, delta, kcal, v_g, None)
    fwhm = res_s.linewidth
    a, b, e = common_scale(delta, fwhm)
    spectral, shift = scaled_product(
        ((math.pi / 4.0, 1), (fwhm, 3), (a**2 + b**2, -1), (omega_s2, 1), (omega_p, 1))
    )
    return finite_product(_RATE, (*pref, (spectral, 1)), shift - 2 * e)


def noise_budget(
    device: DeviceSpec,
    drive: PumpDrive,
    cfg: ProcessConfig,
    band: tuple[float, float],
    kcal: float = UNCALIBRATED_KCAL,
) -> PairRateReport:
    """Signal rate, both parasitic rates, and their suppressions.

    The signal process runs at the residual mismatch of the tuned
    device (zero when energy conservation holds exactly); each
    parasitic process runs at its comb detuning from
    :func:`sideband_pair`, using the actual partner line as the
    second center, searched for in the ring-2 comb over ``band``. The
    band must reach past each side-band point by at least its partner's
    detuning; otherwise :class:`MissingResonance` is raised.
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
    deltas, sups, partners = sideband_pair(comb2, cfg, band)
    betas = tuple(
        pair_rate_integral(drive_resolved, cfg.res_s, delta, kcal, wg.v_g, omega_s2=p.omega0)
        for delta, p in zip(deltas, partners)
    )

    if kcal == UNCALIBRATED_KCAL:
        notes.append("kcal = 1 (uncalibrated); absolute rates are in model units")
    snr = tuple(1.0 / sup if sup > 0.0 else math.inf for sup in sups)
    require_finite("SNR improvement 1 / suppression", max(snr), NonPhysical)

    return PairRateReport(
        beta_sq_signal=beta_signal,
        beta_sq_parasitic=betas,
        suppression=sups,
        snr_improvement=snr,
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
        If the target rate or pump power is not finite and positive, the
        pulse holds no photon at that power, so no pairs come out, or the
        constant itself overflows or underflows to 0.
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
    rate_unit = per_second(beta_unit, pulse_duration)
    if rate_unit <= 0.0:
        raise NonPhysical("the device produces no pairs at unit calibration")
    return finite_product("kcal", ((target_rate, 1), (rate_unit, -1)))
