"""Racetrack geometry, dispersion, and resonance combs.

Everything downstream (linear transfer, field enhancement, overlap
integrals, pair rates) is parameterized by the value types defined
here. All quantities are SI internally: lengths in meters, angular
frequencies in rad/s. File formats use Hz at the boundary; conversion
lives in :mod:`ringpair.deviceio`.

The dispersion law is one quadratic propagation constant [1/m],

    k(w) = a w^2 + b w + c0,  a = (n_g - n_eff_ref) / (c w_ref) + gvd / 2,
    b = (2 n_eff_ref - n_g) / c - gvd w_ref,  c0 = gvd w_ref^2 / 2,

the first-order Taylor law of the effective index around w_ref plus
gvd (w - w_ref)^2 / 2. The effective index n_eff(w) = k c / w and the
group index n_g(w) = c dk/dw follow from it, n_eff_ref and n_g at w_ref.
"""

from __future__ import annotations

import math
import sys

from .errors import EmptyBand, NoConvergence, NonPhysical, require_positive
from .record import Finite, NonNegative, Positive, Record

TWO_PI = 2.0 * math.pi

# Physical constants [SI], CODATA 2022; c and h are exact by definition.
C_VACUUM = 299792458.0
HBAR = 6.62607015e-34 / TWO_PI
EPSILON_0 = 8.8541878188e-12

# Largest number of mode orders one comb solve may span; a band edge far
# out of the optical range would otherwise allocate without bound.
MAX_COMB_ORDERS = 10**6

# Largest argument of math.exp that does not overflow.
_MAX_EXP = math.log(sys.float_info.max)


class WaveguideParams(Record):
    """Modal and material parameters of the ridge waveguide.

    Parameters
    ----------
    n_eff_ref : float
        Effective index at the reference frequency.
    n_g : float
        Group index at the reference frequency.
    omega_ref : float
        Reference angular frequency [rad/s].
    gvd : float
        Optional second-order dispersion added to the propagation
        constant, d2k/dw2 [s^2/m]. Zero disables it.
    gamma_nl : float
        Nonlinear parameter of the waveguide [W^-1 m^-1].
    chi3_bar : float
        Effective third-order susceptibility [m^2/V^2].
    n_bar : float
        Typical refractive index entering the nonlinear scaling.
    area_eff : float
        Effective nonlinear interaction area [m^2].
    """

    n_eff_ref: Positive
    n_g: Positive
    omega_ref: Positive
    gvd: Finite = 0.0
    gamma_nl: NonNegative = 0.0
    chi3_bar: Finite = 0.0
    n_bar: Positive = 1.0
    area_eff: Positive = 1.0

    @property
    def v_g(self) -> float:
        """Group velocity c/n_g [m/s]."""
        return C_VACUUM / self.n_g


class RacetrackSpec(Record):
    """One racetrack resonator.

    The racetrack consists of two straight sections joined by two half
    circles. One straight section hosts the shared directional coupler,
    the other hosts the bus coupler that sets the coupling Q; both are
    included in the round trip.

    Parameters
    ----------
    straight_len : float
        Length of each straight section [m].
    bend_radius : float
        Radius of the half-circle bends [m].
    q_intrinsic : float
        Intrinsic quality factor of the resonator.
    q_coupling : float
        Coupling quality factor set by the bus coupler.
    heater_shift : float
        Rigid shift applied to every resonance of this ring [rad/s].
        Models a thermal tuner; positive values move the comb up.
    """

    straight_len: Positive
    bend_radius: Positive
    q_intrinsic: Positive
    q_coupling: Positive
    heater_shift: Finite = 0.0

    @property
    def round_trip_length(self) -> float:
        """Total resonator length 2*(straight_len + pi*bend_radius) [m]."""
        return 2.0 * (self.straight_len + math.pi * self.bend_radius)

    @property
    def q_loaded(self) -> float:
        """Loaded quality factor, parallel combination of the two Qs."""
        return 1.0 / (1.0 / self.q_intrinsic + 1.0 / self.q_coupling)


class CouplingModel(Record):
    """Exponential gap model for the directional-coupler strength.

    |kappa|(d) = kappa0 * exp(-(d - gap_ref) / decay_len)

    Parameters
    ----------
    kappa0 : float
        Coupling rate at the reference gap [1/m].
    gap_ref : float
        Reference gap [m].
    decay_len : float
        Exponential decay length of the evanescent overlap [m].
    phase : float
        Phase of the complex coupling constant [rad].
    """

    kappa0: NonNegative
    gap_ref: Positive
    decay_len: Positive
    phase: Finite = 0.0

    def kappa_abs(self, gap: float) -> float:
        """Coupling magnitude at the given gap [1/m]."""
        require_positive("gap", gap)
        exponent = -(gap - self.gap_ref) / self.decay_len
        if exponent <= _MAX_EXP:
            kappa = self.kappa0 * math.exp(exponent)
            if kappa < math.inf:
                return kappa
        raise NonPhysical(
            f"coupling strength overflows at gap {gap}: kappa0 * exp({exponent:.6g})"
        )

    def kappa(self, gap: float) -> complex:
        """Complex coupling constant at the given gap [1/m]."""
        return self.kappa_abs(gap) * complex(math.cos(self.phase), math.sin(self.phase))


class DeviceSpec(Record):
    """Two racetracks sharing one directional coupler.

    Ring 1 carries the pumps (fed through the IN bus), ring 2 collects
    the generated light (OUT bus). The shared coupler occupies one
    straight section of each ring; its length must therefore fit in the
    shorter of the two.
    """

    waveguide: WaveguideParams
    ring1: RacetrackSpec
    ring2: RacetrackSpec
    dc_length: Positive
    dc_gap: Positive
    coupling: CouplingModel

    def __post_init__(self) -> None:
        limit = min(self.ring1.straight_len, self.ring2.straight_len)
        if self.dc_length > limit * (1.0 + 1e-12):
            raise ValueError(
                f"dc_length {self.dc_length} exceeds the shorter straight section {limit}"
            )

    def ring(self, owner: int) -> RacetrackSpec:
        """Ring spec by 1-based index."""
        if owner == 1:
            return self.ring1
        if owner == 2:
            return self.ring2
        raise ValueError(f"ring index must be 1 or 2, got {owner}")

    @property
    def kappa(self) -> complex:
        """Complex coupler strength at the device gap [1/m]."""
        return self.coupling.kappa(self.dc_gap)


class Resonance(Record):
    """One longitudinal mode of one ring.

    Attributes
    ----------
    owner : int
        Which ring the mode belongs to (1 or 2).
    order : int
        Longitudinal mode number m.
    omega0 : float
        Center frequency including any heater shift [rad/s].
    q_loaded : float
        Loaded quality factor.
    q_coupling : float
        Coupling quality factor.
    """

    owner: int
    order: int
    omega0: Positive
    q_loaded: Positive
    q_coupling: Positive

    def __post_init__(self) -> None:
        if self.owner not in (1, 2):
            raise ValueError(f"owner must be 1 or 2, got {self.owner}")

    @property
    def linewidth(self) -> float:
        """Full width at half maximum, omega0 / q_loaded [rad/s].

        Raises ``NonPhysical`` when the squared half width underflows to
        zero, which would leave every line shape 0/0.
        """
        fwhm = self.omega0 / self.q_loaded
        if not 0.25 * fwhm * fwhm > 0.0:
            raise NonPhysical(f"linewidth {fwhm:.3g} rad/s (loaded Q {self.q_loaded:.3g}) "
                              "underflows when squared")
        return fwhm


def _dispersion(wg: WaveguideParams) -> tuple[float, float, float]:
    """The coefficients (a, b, c0) of k(w) = a w^2 + b w + c0 [1/m]."""
    w_ref, gvd = wg.omega_ref, wg.gvd
    return ((wg.n_g - wg.n_eff_ref) / (C_VACUUM * w_ref) + 0.5 * gvd,
            (2.0 * wg.n_eff_ref - wg.n_g) / C_VACUUM - gvd * w_ref,
            0.5 * gvd * w_ref * w_ref)


def wavevector(wg: WaveguideParams, omega: float) -> float:
    """Propagation constant k(w) = (a w + b) w + c0 [1/m]; n_eff is k c / w.

    Raises ``ValueError`` unless ``omega`` is finite and positive.
    """
    require_positive("omega", omega)
    a, b, c0 = _dispersion(wg)
    return (a * omega + b) * omega + c0


def group_index(wg: WaveguideParams, omega: float) -> float:
    """Local group index c dk/dw = n_g + 2 c a (w - w_ref).

    Exactly ``wg.n_g`` at the reference frequency, and linear in the
    detuning from it. Raises ``ValueError`` unless ``omega`` is finite
    and positive, and ``NonPhysical`` when the group index is not finite,
    which includes overflowing the float range.
    """
    require_positive("omega", omega)
    ng = wg.n_g + 2.0 * C_VACUUM * _dispersion(wg)[0] * (omega - wg.omega_ref)
    if not math.isfinite(ng):
        raise NonPhysical(f"group index is not finite for n_g = {wg.n_g:.6g}")
    return ng


def resonance_comb(
    ring: RacetrackSpec,
    wg: WaveguideParams,
    band: tuple[float, float],
    owner: int = 1,
) -> list[Resonance]:
    """All resonances of one ring inside a frequency band.

    The propagation constant is exactly quadratic, k(w) = a w^2 + b w + c0
    (see the module docstring), so the resonance condition
    k(w) * L_rt = 2*pi*m is solved in closed form for every mode order
    at once. Each root is taken on the branch where k increases, in the
    cancellation-free form of Numerical Recipes (section 5.6). The
    heater shift is applied after the solve, as a rigid displacement of
    the whole comb.

    Parameters
    ----------
    ring, wg
        Geometry and dispersion inputs.
    band : (float, float)
        Angular frequency interval [rad/s]. Order does not matter.
    owner : int
        Ring label recorded on the returned resonances.

    Returns
    -------
    list[Resonance]
        Sorted by ascending frequency.

    Raises
    ------
    ValueError
        If a band edge is not finite or not positive, or the band spans
        more than ``MAX_COMB_ORDERS`` mode orders.
    EmptyBand
        If no mode order lands in the band.
    NoConvergence
        If the group index is not positive over the search band, so the
        round-trip phase is not monotone there.
    NonPhysical
        If the round-trip phase is not positive at the lower search edge,
        a mode order in the band exceeds 2^53, or the loaded Q is not
        above 1.
    """
    lo, hi = sorted((float(band[0]), float(band[1])))
    require_positive("band edge", lo)
    require_positive("band edge", hi)

    # The comb is solved on the unshifted dispersion curve; the heater
    # moves the result rigidly. The search band therefore has to be
    # widened by the shift so that modes landing in the requested band
    # after shifting are not missed.
    s = ring.heater_shift
    lo_u, hi_u = lo - s, hi - s
    if hi_u <= 0.0:
        raise EmptyBand(f"band {band} is empty for heater shift {s}")
    lo_u = max(lo_u, 1e-6 * hi_u)

    # The slope 2 a w + b of k is the group index over c, linear in w, so
    # positive at both edges of the search band means positive, and k
    # increasing, over all of it.
    a, b, c0 = _dispersion(wg)
    if 2.0 * a * lo_u + b <= 0.0 or 2.0 * a * hi_u + b <= 0.0:
        raise NoConvergence(
            f"group index is not positive over the search band ({lo_u:.6g}, {hi_u:.6g}) rad/s"
        )
    length = ring.round_trip_length
    k_step = TWO_PI / length
    cycles_lo = ((a * lo_u + b) * lo_u + c0) / k_step
    cycles_hi = ((a * hi_u + b) * hi_u + c0) / k_step
    if not cycles_lo > 0.0:  # n_eff <= 0 there: no positive mode order exists
        raise NonPhysical(f"round-trip phase is not positive at {lo_u:.6g} rad/s")
    if not cycles_hi - cycles_lo < MAX_COMB_ORDERS:
        raise ValueError(f"band {band} spans more than {MAX_COMB_ORDERS} mode orders")
    if not cycles_hi < 2.0**53:  # past 2^53 the orders are not exact doubles
        raise NonPhysical(f"mode order {cycles_hi:.6g} in band {band} exceeds 2^53")
    m_lo = math.ceil(cycles_lo - 1e-9)
    m_hi = math.floor(cycles_hi + 1e-9)
    if m_hi < m_lo:
        raise EmptyBand(f"no resonance of ring with L_rt={length} in band {band}")

    ql, qc = ring.q_loaded, ring.q_coupling
    if not ql > 1.0:
        raise NonPhysical(f"loaded Q {ql:.6g} is not above 1; lines would outgrow their centers")
    # a w^2 + b w = t for each order. A positive group index keeps
    # b + root > 0, and forces a > 0 when b < 0, so neither form divides
    # by zero or subtracts near-equal terms.
    a4, bb, a2 = 4.0 * a, b * b, 2.0 * a
    out = []
    for m in range(m_lo, m_hi + 1):
        t = m * k_step - c0
        disc = t * a4 + bb
        if not disc >= 0.0:  # an order just outside the band, past the vertex: no root
            continue
        root = math.sqrt(disc)
        w0 = (2.0 * t / (b + root) if b >= 0.0 else (root - b) / a2) + s
        if lo <= w0 <= hi:
            # Positional fields: owner, order, omega0, q_loaded, q_coupling.
            out.append(Resonance(owner, m, w0, ql, qc))
    if not out:
        raise EmptyBand(f"no resonance of ring with L_rt={length} in band {band}")
    return out


def device_combs(
    device: DeviceSpec, band: tuple[float, float]
) -> tuple[list[Resonance], list[Resonance]]:
    """Resonance combs of both rings over a common band."""
    comb1 = resonance_comb(device.ring1, device.waveguide, band, owner=1)
    comb2 = resonance_comb(device.ring2, device.waveguide, band, owner=2)
    return comb1, comb2


def fsr(ring: RacetrackSpec, wg: WaveguideParams, omega: float) -> float:
    """Local free spectral range 2*pi*c / (n_g(w) * L_rt) [rad/s].

    Raises
    ------
    NoConvergence
        If the group index at ``omega`` is not positive, as in :func:`resonance_comb`.
    """
    ng = group_index(wg, omega)
    if not ng > 0.0:
        raise NoConvergence(f"group index {ng:.6g} is not positive at {omega:.6g} rad/s")
    return TWO_PI * C_VACUUM / (ng * ring.round_trip_length)


def finesse(ring: RacetrackSpec, wg: WaveguideParams, omega: float) -> float:
    """Finesse FSR / linewidth of the ring at the given frequency."""
    return fsr(ring, wg, omega) * ring.q_loaded / omega
