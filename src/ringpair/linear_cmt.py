"""Linear two-mode physics of the shared directional coupler.

The coupler supports the usual two-guide beat solution: a field fed
into one guide oscillates between the guides with spatial rate |kappa|.
Choosing the coupler length equal to an integer number of half beats,
L = m * pi / |kappa|, returns all linear power to the guide it started
in, so the two racetracks are linearly uncoupled at every frequency
while still sharing the physical cross section where the third-order
nonlinearity acts.

The coupler's cross power has one route, ``kerr_detuned_efficiency``:
a Kerr-induced mismatch delta_beta between the guides degrades the
null by the closed form there, and at delta_beta = 0 it is the linear
cross power that ``isolation_db`` reads.
"""

from __future__ import annotations

import math

from .errors import NonPhysical, common_scale
from .errors import require_finite, require_non_negative, require_positive
from .geometry import WaveguideParams
from .record import Positive, Record

ISOLATION_FLOOR_DB = 200.0


def phase_unit(kappa: complex) -> complex:
    """Unit phasor conj(kappa) / |kappa| of the coupling constant; 1 at kappa = 0."""
    mag = abs(kappa)
    return kappa.conjugate() / mag if mag > 0.0 else 1.0 + 0.0j


class CmtField(Record):
    """Asymptotic coupler field of one port, parameterized along z.

    ``a1`` and ``a2`` refuse a beat phase |kappa| * |z| of 2**53 rad or
    more with :class:`.NonPhysical`, as :func:`kerr_detuned_efficiency` does.

    Attributes
    ----------
    port : str
        "IN" for the field fed through ring 1's bus, "OUT" for the
        field fed through ring 2's bus.
    kappa : complex
        Coupling constant [1/m].
    length : float
        Coupler length the field was solved for [m].
    """

    port: str
    kappa: complex
    length: Positive

    def __post_init__(self) -> None:
        if self.port not in ("IN", "OUT"):
            raise ValueError(f"port must be 'IN' or 'OUT', got {self.port!r}")
        require_finite("kappa", self.kappa)

    def a1(self, z: float) -> complex:
        """Amplitude in guide 1 at position z [dimensionless]."""
        require_finite("z", z)
        phase = _coupler_phase(abs(self.kappa) * z)
        if self.port == "OUT":
            return complex(math.cos(phase))
        return -1j * phase_unit(self.kappa) * math.sin(phase)

    def a2(self, z: float) -> complex:
        """Amplitude in guide 2 at position z [dimensionless]."""
        require_finite("z", z)
        phase = _coupler_phase(abs(self.kappa) * z)
        if self.port == "OUT":
            return 1j * phase_unit(self.kappa) * math.sin(phase)
        return complex(math.cos(phase))


def _coupler_phase(phase: float) -> float:
    """The phase of a coupler sine or cosine, refused from 2**53 rad in magnitude on."""
    if not abs(phase) < 2.0**53:  # doubles are 2 rad apart there
        raise NonPhysical(f"coupler phase {abs(phase):.6g} rad is not below 2**53")
    return phase


def isolation_db(kappa: complex, length: float) -> float:
    """Linear isolation between the rings, -10*log10 of the cross power.

    The cross power is ``kerr_detuned_efficiency(kappa, length, 0.0)``.
    The value is capped at ``ISOLATION_FLOOR_DB`` (200 dB): an exact null
    has zero cross power and infinite nominal isolation, and values
    beyond the cap carry no design information.
    """
    cross_power = kerr_detuned_efficiency(kappa, length, 0.0)
    if cross_power == 0.0:  # math.log10 raises at 0
        return ISOLATION_FLOOR_DB
    return min(-10.0 * math.log10(cross_power), ISOLATION_FLOOR_DB)


def kerr_detuned_efficiency(kappa: complex, length: float, delta_beta: float) -> float:
    """Power-transfer efficiency of the coupler under a Kerr mismatch.

    eta = |kappa|^2 / (|kappa|^2 + delta_beta^2)
          * sin^2(|kappa| * L * sqrt(1 + (delta_beta / (2|kappa|))^2))

    This is the one route to the coupler's cross power: at delta_beta = 0
    it is the linear sin^2(|kappa| L). The prefactor carries the full
    mismatch, the beat-rate correction inside the sine half of it. Both
    are formed from |kappa| and delta_beta scaled by one power of two, so
    no square leaves the float range; a prefactor that rounds to 0 gives 0.0.

    Parameters
    ----------
    kappa : complex
        Coupling constant [1/m].
    length : float
        Coupler length [m].
    delta_beta : float
        Propagation-constant mismatch between the guides [1/m].

    Raises
    ------
    NonPhysical
        If the sine's phase is not below 2**53 rad, where doubles are 2 rad apart.
    """
    require_finite("kappa", kappa)
    require_positive("length", length)
    require_finite("delta_beta", delta_beta)
    mag = abs(complex(kappa))
    a, b, _e = common_scale(delta_beta, mag)
    pref = b**2 / (a**2 + b**2) if mag else 0.0
    if pref == 0.0:
        return 0.0
    ratio = a / (2.0 * b)  # delta_beta / (2|kappa|), bit for bit
    # From 2**511 on, ratio**2 nears overflow and sqrt(1 + ratio**2) is |ratio|.
    phase = mag * length * (math.sqrt(1.0 + ratio**2) if abs(ratio) < 2.0**511 else abs(ratio))
    return pref * math.sin(_coupler_phase(phase)) ** 2


def kerr_delta_beta(wg: WaveguideParams, p_in: float, finesse: float) -> float:
    """Kerr-induced mismatch gamma_nl * P_in * finesse [1/m].

    The finesse converts the injected power to the circulating power
    responsible for the index shift.
    """
    require_non_negative("p_in", p_in)
    require_positive("finesse", finesse)
    return wg.gamma_nl * p_in * finesse


def kerr_validity_metric(
    wg: WaveguideParams, p_in: float, q_loaded: float, wavelength: float
) -> float:
    """Dimensionless smallness parameter of the Kerr perturbation.

    metric = gamma_nl * P_in * wavelength * Q / (4 * n_g)

    Derived from delta_beta * L_dc at the optimum coupler length, where
    the finesse equals wavelength * Q / (4 * pi * n_g * R). Values well
    below one mean the linear null survives the pump power; every Kerr
    check compares it with ``design.KERR_CEILING``, which nothing sets. A
    metric that overflows raises ``NonPhysical``.
    """
    require_non_negative("p_in", p_in)
    require_positive("q_loaded", q_loaded)
    require_positive("wavelength", wavelength)
    metric = wg.gamma_nl * p_in * wavelength * q_loaded / (4.0 * wg.n_g)
    require_finite("Kerr validity metric", metric, NonPhysical)
    return metric
