"""Design rules and tuning procedures for the racetrack pair.

The design flow, in the order the optimizer runs it:

1. pick the coupler length: the longest straight a bend radius allows
   is L = pi * R, making the round trip 4 * pi * R;
2. solve the coupler gap so that L is a linear null, L = m pi / |kappa|;
3. choose the ring-2 length and heater so the signal line sits exactly
   midway between the two pump lines while both single-pump side-band
   processes land as far from a ring-2 line as the comb allows;
4. check the Kerr budget and compute counteracting heater shifts for
   the pump-induced resonance pulls;
5. evaluate every rule and emit a report.

The feasibility frontier of step 3 is that of the ring 2 the refit
can build. A partner line can be pushed at most half a ring-2 spectral
range away from the energy-conserving point. For pumps M ring-1
spacings F1 apart the refit designs F2 = M F1 / (M -+ 1/2), which puts
it at |delta| = F2 / 2 = M F1 / (2M -+ 1). The seed fixes the bend
radii, and the shorter ring holds the pi R1 coupler only while
R2 <= R1 (M - 1) / M; a larger R2 leaves the longer ring and its
frontier M F1 / (2M + 1). So a suppression target s is reachable only
if fwhm * sqrt(1/s - 1) is within the frontier of the ring the seed's
R2 allows. The tuner's Infeasible verdict implements exactly this
criterion. The whole-wavelength quantization of the ring-2 round trip
and the dispersion of both combs can keep an instance slightly short
of the ideal detuning; that is reported on the result instead of
flipping the verdict.
"""

from __future__ import annotations

import math

from .errors import Infeasible, NoConvergence, OutOfRange, ValidityExceeded
from .errors import require_count, require_non_negative, require_positive
from .geometry import (
    C_VACUUM,
    TWO_PI,
    CouplingModel,
    DeviceSpec,
    device_combs,
    fsr,
    finesse as ring_finesse,
    group_index,
    resonance_comb,
    wavevector,
)
from .linear_cmt import isolation_db, kerr_delta_beta, kerr_validity_metric
from .nonlinear import (
    PUMP_SEPARATION,
    ProcessConfig,
    j_quadrature,
    j_single_ring_ratio,
    on_resonance_config,
    pump_pair,
    single_ring_reference,
)
from .record import Positive, Record, replace
from .sfwm import PumpDrive, sideband_pair

ENERGY_RESIDUAL_TOL_LINEWIDTHS = 1e-6
DEFAULT_GAP_BUDGET = (5e-8, 1e-6)
KERR_CEILING = 0.05


def _check_gap_budget(gap_budget: tuple[float, float]) -> tuple[float, float]:
    lo, hi = gap_budget
    require_positive("gap_budget lower edge", lo)
    require_positive("gap_budget upper edge", hi)
    if not lo < hi:
        raise ValueError(f"gap_budget must be an increasing pair, got {gap_budget}")
    return lo, hi


class DesignGoal(Record):
    """Targets the tuner and the rule checks work against.

    Parameters
    ----------
    signal_wavelength : float
        Vacuum wavelength of the signal line [m].
    pump_separation : int
        Number of ring-1 orders between the two pumps. Must be even
        (and at least 2) so their midpoint falls on the ring-1 grid and
        the signal line can sit on a comb point midway.
    min_parasitic_suppression : float
        Ceiling on the side-band suppression factor (smaller is
        quieter), e.g. 1e-4 for four orders of magnitude.
    min_isolation_db : float
        Floor on the linear isolation between the rings.
    gap_budget : (float, float)
        Allowed coupler-gap interval for the uncoupling solve [m].

    No goal sets the Kerr ceiling: every Kerr check reads ``KERR_CEILING``.
    """

    signal_wavelength: Positive
    pump_separation: int = PUMP_SEPARATION
    min_parasitic_suppression: float = 1e-4
    min_isolation_db: Positive = 30.0
    gap_budget: tuple[float, float] = DEFAULT_GAP_BUDGET

    def __post_init__(self) -> None:
        sep = self.__dict__["pump_separation"] = require_count(
            "pump_separation", self.pump_separation, 2)
        if sep % 2 != 0:
            raise ValueError(f"pump_separation must be even, got {sep}")
        if not 0.0 < self.min_parasitic_suppression < 1.0:
            raise ValueError(
                "min_parasitic_suppression must lie in (0, 1), got "
                f"{self.min_parasitic_suppression}"
            )
        _check_gap_budget(self.gap_budget)

    @property
    def signal_omega(self) -> float:
        return TWO_PI * C_VACUUM / self.signal_wavelength


class RuleCheck(Record):
    """One design rule evaluation."""

    name: str
    passed: bool
    value: float
    limit: float
    detail: str = ""


class TuneResult(Record):
    """Outcome of the energy-conservation tuning."""

    device: DeviceSpec
    residual: float
    detuning: tuple[float, float]
    suppression: tuple[float, float]
    heater_delta: float
    notes: tuple[str, ...] = ()


class CompensationResult(Record):
    """Pump-induced resonance pulls and the counteracting heater moves.

    ``delta_beta`` is the ring-1 Kerr mismatch [1/m] behind the pull.
    """

    induced_shift: tuple[float, float]
    compensation: tuple[float, float]
    kerr_metric: float
    delta_beta: float
    notes: tuple[str, ...] = ()


class DesignReport(Record):
    """Aggregate verdict of all design rules on one device."""

    passed: bool
    rules: tuple[RuleCheck, ...]
    j_abs: float
    j_ratio: float
    isolation_db: float
    uncoupling_order: int
    suppression: tuple[float, float]
    detuning: tuple[float, float]
    kerr_metric: float
    notes: tuple[str, ...] = ()


def optimal_dc_length(bend_radius: float) -> float:
    """Bend-limited optimum coupler length pi * R [m]; the round trip is 4 pi R.

    Longer couplers raise the overlap linearly while the round trip
    grows too; with both straights tied to the coupler length the
    figure of merit saturates at straight = pi * R, where the coupler
    occupies half the round trip's worth of one straight.
    """
    require_positive("bend_radius", bend_radius)
    return math.pi * bend_radius


def solve_gap_for_uncoupling(
    model: CouplingModel,
    length: float,
    m_order: int,
    gap_budget: tuple[float, float] = DEFAULT_GAP_BUDGET,
) -> float:
    """Coupler gap placing the m-th linear null at the given length.

    Inverts the exponential gap law for |kappa|(gap) = m * pi / length
    in closed form, gap = gap_ref + decay_len * ln(kappa0 / target),
    after checking that the target is reachable inside the gap budget.

    Raises
    ------
    OutOfRange
        If the required coupling strength is not reachable inside the
        gap budget.
    """
    require_positive("length", length)
    m_order = require_count("m_order", m_order, 1)
    lo, hi = _check_gap_budget(gap_budget)
    target = m_order * math.pi / length
    if model.kappa_abs(lo) < target or model.kappa_abs(hi) > target:
        raise OutOfRange(
            f"required |kappa| = {target:.6g} 1/m is outside "
            f"[{model.kappa_abs(hi):.6g}, {model.kappa_abs(lo):.6g}] reachable "
            f"over the gap budget {gap_budget}"
        )
    return model.gap_ref + model.decay_len * math.log(model.kappa0 / target)


def _process_band(device: DeviceSpec, goal: DesignGoal) -> tuple[float, float]:
    w = goal.signal_omega
    f1 = fsr(device.ring1, device.waveguide, w)
    span = (goal.pump_separation + 2.2) * f1
    return (w - span, w + span)


def _tune_diagnostics(
    device: DeviceSpec, goal: DesignGoal
) -> tuple[float, tuple[float, float], tuple[float, float], ProcessConfig]:
    """Energy residual, side-band detunings and suppressions on the device's combs."""
    band = _process_band(device, goal)
    comb1, comb2 = device_combs(device, band)
    res_p1, res_p2 = pump_pair(comb1, goal.signal_omega, goal.pump_separation)
    omega_mid = 0.5 * (res_p1.omega0 + res_p2.omega0)
    res_s = min(comb2, key=lambda r: abs(r.omega0 - omega_mid))
    cfg = on_resonance_config(device.waveguide, res_p1, res_p2, res_s)
    deltas, sups, _partners = sideband_pair(comb2, cfg, band)
    return abs(cfg.signal_mismatch), deltas, sups, cfg


def required_detuning(goal: DesignGoal, linewidth: float) -> float:
    """Side-band detuning needed for the suppression target [rad/s]."""
    require_positive("linewidth", linewidth)
    s = goal.min_parasitic_suppression
    return linewidth * math.sqrt(1.0 / s - 1.0)


def tune_for_energy_conservation(
    device: DeviceSpec, goal: DesignGoal, mode: str = "trim"
) -> TuneResult:
    """Tune ring 2 so the signal line bisects the pump pair exactly.

    In ``trim`` mode only the ring-2 heater moves: the comb shifts
    rigidly until a line sits at the pump midpoint (residual below
    1e-6 linewidths). The side-band detunings are then whatever the
    fixed comb spacings give; if no candidate line within one spectral
    range meets the suppression target, the goal is infeasible for
    this geometry.

    In ``fabrication`` mode the ring-2 round trip is also free; its bend
    radius stays the seed's. The feasibility verdict is the frontier of
    the ring the refit builds (see the module docstring): the shorter
    ring, with fwhm * sqrt(1/s - 1) <= M F1 / (2M - 1), when its straight
    holds the coupler, else the longer one, with M F1 / (2M + 1). The
    seed's ring-2 length does not enter it. When feasible, the round
    trip is set so the side-band points land half a ring-2 spacing away
    from the nearest partner lines, with a note when the longer ring is
    built, and a note when quantization and dispersion leave the
    suppression short of the goal.

    Raises
    ------
    Infeasible
        With context on the required and achievable detunings.
    """
    if mode not in ("trim", "fabrication"):
        raise ValueError(f"mode must be 'trim' or 'fabrication', got {mode!r}")
    wg = device.waveguide
    band = _process_band(device, goal)
    comb1 = resonance_comb(device.ring1, wg, band, owner=1)
    res_p1, res_p2 = pump_pair(comb1, goal.signal_omega, goal.pump_separation)
    omega_mid = 0.5 * (res_p1.omega0 + res_p2.omega0)
    lw_guess = omega_mid / device.ring2.q_loaded
    delta_req = required_detuning(goal, lw_guess)
    notes: list[str] = []

    if mode == "fabrication":
        device = _refit_ring2_length(device, goal, omega_mid, delta_req, notes)

    # The refit moves ring 2 only, so ring 1's band still holds.
    comb2 = resonance_comb(device.ring2, wg, band, owner=2)
    order = sorted(range(len(comb2)), key=lambda i: abs(comb2[i].omega0 - omega_mid))
    # resonance_comb raises EmptyBand rather than return no line, so
    # ``tried`` is never empty below.
    tried: list[TuneResult] = []
    for idx in order[:3]:
        ds = omega_mid - comb2[idx].omega0
        ring2 = replace(device.ring2, heater_shift=device.ring2.heater_shift + ds)
        candidate = replace(device, ring2=ring2)
        residual, deltas, sups, _cfg = _tune_diagnostics(candidate, goal)
        if residual > ENERGY_RESIDUAL_TOL_LINEWIDTHS * lw_guess:
            raise NoConvergence(
                f"energy-conservation residual {residual:.3g} rad/s exceeds tolerance"
            )
        result = TuneResult(
            device=candidate,
            residual=residual,
            detuning=deltas,
            suppression=sups,
            heater_delta=ds,
            notes=tuple(notes),
        )
        if max(sups) <= goal.min_parasitic_suppression:
            return result
        tried.append(result)

    best = min(tried, key=lambda r: max(r.suppression))
    if mode == "fabrication":
        # Feasible by the built ring's frontier, yet short of the goal.
        notes.append(
            f"achieved suppression {max(best.suppression):.3g} trails the goal "
            f"{goal.min_parasitic_suppression:.3g}; the whole-wavelength ring-2 round "
            "trip and the combs' dispersion kept the detuning short of the built "
            "ring's frontier"
        )
        return replace(best, notes=tuple(notes))
    raise Infeasible(
        f"no heater shift within one spectral range meets suppression "
        f"{goal.min_parasitic_suppression:.3g}; best achievable here is "
        f"{max(best.suppression):.3g} (required detuning {delta_req:.6g} rad/s)"
    )


def _refit_ring2_length(
    device: DeviceSpec, goal: DesignGoal, omega_mid: float, delta_req: float,
    notes: list[str],
) -> DeviceSpec:
    """Pick the ring-2 round trip placing the side-band points mid-gap.

    The pump pair spans M ring-1 spacings, so the side-band points sit
    M ring-1 spacings from the midpoint. Choosing the ring-2 spacing
    F2 = M F1 / (M -+ 1/2) puts them exactly between two ring-2 lines,
    at |delta| = F2/2: M F1 / (2M - 1) for the shorter ring (minus sign)
    and M F1 / (2M + 1) for the longer one. The refit keeps the seed's
    bend radius R2 and builds the shorter ring if its straight holds the
    coupler, else the longer one; a required detuning ``delta_req``
    beyond the built ring's frontier raises Infeasible.
    """
    wg = device.waveguide
    m_sep = goal.pump_separation
    f1 = fsr(device.ring1, wg, omega_mid)
    k_mid = wavevector(wg, omega_mid)
    # The group index where F1 is taken, so that F2 / F1 is the design ratio.
    ng_mid = group_index(wg, omega_mid)
    radius = device.ring2.bend_radius
    for sign in (-1, 1):
        f2_target = m_sep * f1 / (m_sep + 0.5 * sign)
        length_est = TWO_PI * C_VACUUM / (ng_mid * f2_target)
        # Quantize so a mode lands exactly at the pump midpoint.
        order_s = max(round(k_mid * length_est / TWO_PI), 1)
        length = TWO_PI * order_s / k_mid
        straight = 0.5 * length - math.pi * radius
        if straight >= device.dc_length:
            break
        if sign < 0:
            # The largest bend radius whose shorter ring holds the coupler:
            # R1 (M - 1) / M when the coupler is pi R1 and ring 1 is 4 pi R1.
            radius_max = (0.5 * length - device.dc_length) / math.pi
    else:
        raise Infeasible(
            "no ring-2 round trip fits the coupler while placing the side-band "
            "points mid-gap"
        )
    frontier = m_sep * f1 / (2 * m_sep + sign)
    if delta_req > frontier:
        if sign < 0:
            ring, why = "shortest", ""
        else:
            ring = "longer"
            why = (f"; the shorter ring holds the coupler only for a bend radius "
                   f"R2 <= {radius_max:.6g} m (R1(M - 1)/M with a pi*R1 coupler), and "
                   f"the seed's R2 is {radius:.6g} m")
        raise Infeasible(
            f"suppression {goal.min_parasitic_suppression:.3g} needs a side-band "
            f"detuning of {delta_req:.6g} rad/s, beyond the reachable maximum "
            f"FSR/2 = M*F1/(2M {'-' if sign < 0 else '+'} 1) = {frontier:.6g} rad/s of "
            f"the {ring} refit ring 2 (M = {m_sep}, ring-1 FSR F1 = {f1:.6g} rad/s){why}"
        )
    if sign > 0:
        notes.append(
            "ring 2 lengthened instead of shortened (coupler fit); side-band "
            f"detuning limited to {frontier:.6g} rad/s"
        )
    ring2 = replace(device.ring2, straight_len=straight, heater_shift=0.0)
    return replace(device, ring2=ring2)


def null_kerr_metric(device: DeviceSpec, pump_power: float) -> float:
    """Kerr validity metric of the coupler null at a per-pump power [W].

    The one operating point of every Kerr check: the ring-1 loaded Q at
    the waveguide reference wavelength.
    """
    wg = device.waveguide
    wavelength = TWO_PI * C_VACUUM / wg.omega_ref
    return kerr_validity_metric(wg, pump_power, device.ring1.q_loaded, wavelength)


def require_kerr_validity(device: DeviceSpec, pump_power: float) -> float:
    """:func:`null_kerr_metric` at a per-pump power [W], refused past ``KERR_CEILING``.

    Raises
    ------
    ValidityExceeded
        If the metric exceeds ``KERR_CEILING``, the model's own limit.
    NonPhysical
        If the metric overflows.
    """
    require_non_negative("pump_power", pump_power)
    metric = null_kerr_metric(device, pump_power)
    if metric > KERR_CEILING:
        raise ValidityExceeded(
            f"Kerr validity metric {metric:.3g} exceeds the ceiling {KERR_CEILING:.3g}"
        )
    return metric


def xpm_spm_compensation(device: DeviceSpec, pump_power: float) -> CompensationResult:
    """Pump-induced resonance pulls and the heater moves undoing them.

    The circulating pump light drags the ring-1 comb by
    delta_omega = -v_g * gamma_nl * P * finesse (the propagation-phase
    pull converted to a frequency pull at fixed mode order; this
    conversion is a modeling choice, noted on the result). Ring 2
    carries no circulating pump power because the coupler is a linear
    null, so its pull is zero. The compensation is the sign-reversed
    pull, to be added to the heater shifts.

    Raises
    ------
    ValidityExceeded, NonPhysical
        As :func:`require_kerr_validity`.
    """
    metric = require_kerr_validity(device, pump_power)
    wg = device.waveguide
    delta_beta = kerr_delta_beta(wg, pump_power, ring_finesse(device.ring1, wg, wg.omega_ref))
    pull1 = -wg.v_g * delta_beta
    notes = (
        "frequency pull modeled as -v_g * delta_beta at fixed mode order",
        "ring 2 sees no circulating pump power at a linear null; its pull is zero",
    )
    return CompensationResult(
        induced_shift=(pull1, 0.0),
        compensation=(-pull1, 0.0),
        kerr_metric=metric,
        delta_beta=delta_beta,
        notes=notes,
    )


def evaluate_design(
    device: DeviceSpec, goal: DesignGoal, drive: PumpDrive | None = None
) -> DesignReport:
    """Run every design rule against a device.

    Rules: linear isolation at the coupler null, energy conservation of
    the signal line against the pump pair, side-band suppression for
    both single-pump processes, and the Kerr budget (:func:`null_kerr_metric`
    at the drive's per-pump power, zero without a drive, against ``KERR_CEILING``).
    The report also carries J from :func:`j_quadrature` and its single-ring
    ratio from :func:`j_single_ring_ratio`.
    """
    residual, deltas, sups, cfg = _tune_diagnostics(device, goal)
    lw = cfg.res_s.linewidth

    iso = isolation_db(device.kappa, device.dc_length)
    order = max(int(round(abs(device.kappa) * device.dc_length / math.pi)), 0)

    pump_power = 0.0 if drive is None else drive.per_pump_power(cfg)
    metric = null_kerr_metric(device, pump_power)

    rules = (
        RuleCheck(
            name="linear_isolation",
            passed=iso >= goal.min_isolation_db,
            value=iso,
            limit=goal.min_isolation_db,
            detail=f"coupler null order {order}",
        ),
        RuleCheck(
            name="energy_conservation",
            passed=residual <= ENERGY_RESIDUAL_TOL_LINEWIDTHS * lw,
            value=residual,
            limit=ENERGY_RESIDUAL_TOL_LINEWIDTHS * lw,
            detail="|2 w_S - w_P1 - w_P2| on the actual combs",
        ),
        RuleCheck(
            name="sideband_suppression",
            passed=max(sups) <= goal.min_parasitic_suppression,
            value=max(sups),
            limit=goal.min_parasitic_suppression,
            detail=f"detunings {deltas[0]:.4g}, {deltas[1]:.4g} rad/s",
        ),
        RuleCheck(
            name="kerr_budget",
            passed=metric <= KERR_CEILING,
            value=metric,
            limit=KERR_CEILING,
            detail="zero pump power assumed" if drive is None else "",
        ),
    )

    return DesignReport(
        passed=all(r.passed for r in rules),
        rules=rules,
        j_abs=j_quadrature(device, cfg).j_abs,
        j_ratio=j_single_ring_ratio(device, cfg),
        isolation_db=iso,
        uncoupling_order=order,
        suppression=sups,
        detuning=deltas,
        kerr_metric=metric,
        notes=single_ring_reference(device)[1],
    )


def optimize_device(
    device: DeviceSpec,
    goal: DesignGoal,
    drive: PumpDrive | None = None,
    mode: str = "fabrication",
) -> tuple[DeviceSpec, DesignReport]:
    """Full design flow: coupler length and gap, ring-2 tuning, rules.

    Starting from a seed device (which fixes the waveguide, the bend
    radii, the quality factors, and the coupling model), sets the
    bend-limited coupler length, solves the gap for the lowest null
    order inside the gap budget, tunes ring 2, applies the Kerr
    compensation when a drive is given, and returns the tuned device
    with its design report.
    """
    dc_length = optimal_dc_length(device.ring1.bend_radius)
    for m_order in (1, 2, 3, 4, 5):
        try:
            gap = solve_gap_for_uncoupling(device.coupling, dc_length, m_order, goal.gap_budget)
            break
        except OutOfRange:
            continue
    else:
        raise OutOfRange(
            "no null order up to 5 is reachable inside the gap budget "
            f"{goal.gap_budget} at coupler length {dc_length:.6g} m"
        )

    ring1 = replace(device.ring1, straight_len=dc_length)
    ring2 = replace(device.ring2, straight_len=max(device.ring2.straight_len, dc_length))
    seeded = replace(device, ring1=ring1, ring2=ring2, dc_length=dc_length, dc_gap=gap)

    tuned = tune_for_energy_conservation(seeded, goal, mode=mode)
    final = tuned.device
    extra_notes: tuple[str, ...] = tuned.notes
    if drive is not None:
        comp = xpm_spm_compensation(final, drive.per_pump_power(_tune_diagnostics(final, goal)[3]))
        # The comb model is cold; the counteracting shift cancels a pull
        # the model does not carry, so it is reported rather than folded
        # into the modeled heater settings.
        extra_notes = extra_notes + (
            f"heater compensation for pump-induced pulls: ring 1 "
            f"{comp.compensation[0]:+.6g} rad/s, ring 2 {comp.compensation[1]:+.6g} rad/s",
        )

    report = evaluate_design(final, goal, drive)
    return final, replace(report, notes=report.notes + extra_notes)
