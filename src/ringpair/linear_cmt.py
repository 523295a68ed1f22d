"""Linear two-mode physics of the shared directional coupler.

The coupler supports the usual two-guide beat solution: a field fed
into one guide oscillates between the guides with spatial rate |kappa|.
Choosing the coupler length equal to an integer number of half beats,
L = m * pi / |kappa|, returns all linear power to the guide it started
in, so the two racetracks are linearly uncoupled at every frequency
while still sharing the physical cross section where the third-order
nonlinearity acts.

This module also carries the self- and cross-phase detuning estimates
for that null: a Kerr-induced mismatch delta_beta between the guides
degrades the null, and the closed-form transfer below quantifies by
how much.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NonPhysical
from .errors import require_finite, require_non_negative, require_positive
from .geometry import WaveguideParams

ISOLATION_FLOOR_DB = 200.0

# Largest magnitude whose square is still a finite double.
_MAX_SQUARABLE = math.sqrt(sys.float_info.max)


def phase_unit(kappa: complex) -> complex:
    """Unit phasor conj(kappa) / |kappa| of the coupling constant; 1 at kappa = 0."""
    mag = abs(kappa)
    return kappa.conjugate() / mag if mag > 0.0 else 1.0 + 0.0j


@dataclass(frozen=True)
class CmtField:
    """Asymptotic coupler field of one port, parameterized along z.

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
    length: float

    def __post_init__(self) -> None:
        if self.port not in ("IN", "OUT"):
            raise ValueError(f"port must be 'IN' or 'OUT', got {self.port!r}")
        require_finite("kappa", self.kappa)
        require_positive("length", self.length)

    @property
    def degenerate(self) -> bool:
        """True when |kappa| is exactly zero; the amplitudes are then constant along z."""
        return abs(self.kappa) == 0.0

    def a1(self, z: float) -> complex:
        """Amplitude in guide 1 at position z [dimensionless]."""
        require_finite("z", z)
        mag = abs(self.kappa)
        if self.port == "OUT":
            return complex(math.cos(mag * z))
        return -1j * phase_unit(self.kappa) * math.sin(mag * z)

    def a2(self, z: float) -> complex:
        """Amplitude in guide 2 at position z [dimensionless]."""
        require_finite("z", z)
        mag = abs(self.kappa)
        if self.port == "OUT":
            return 1j * phase_unit(self.kappa) * math.sin(mag * z)
        return complex(math.cos(mag * z))


@dataclass(frozen=True)
class DcTransfer:
    """End-to-end linear transfer of the coupler.

    ``through`` is the amplitude staying in the fed guide after the
    full length, ``cross`` the amplitude leaking into the other guide.
    ``|through|^2 + |cross|^2 = 1`` (lossless coupler).
    """

    through: complex
    cross: complex
    kappa: complex
    length: float

    @property
    def cross_power(self) -> float:
        return abs(self.cross) ** 2


def solve_dc_fields(kappa: complex, length: float) -> tuple[CmtField, CmtField]:
    """Both asymptotic fields of the coupler.

    Parameters
    ----------
    kappa : complex
        Coupling constant [1/m]. Zero is allowed and returns constant
        (degenerate) fields.
    length : float
        Coupler length [m].

    Returns
    -------
    (CmtField, CmtField)
        The IN-port and OUT-port fields, in that order.
    """
    kappa = complex(kappa)
    return CmtField("IN", kappa, length), CmtField("OUT", kappa, length)


def dc_transfer(kappa: complex, length: float) -> DcTransfer:
    """Linear transfer matrix entries of the coupler at length L.

    These are the OUT field's amplitudes at the coupler's end: ``a1(L)``
    stays in the fed guide and ``a2(L)`` crosses into the other one.
    """
    kappa = complex(kappa)
    field = CmtField("OUT", kappa, length)
    return DcTransfer(field.a1(length), field.a2(length), kappa, length)


def isolation_db(kappa: complex, length: float) -> float:
    """Linear isolation between the rings, -10*log10 of the cross power.

    The value is capped at ``ISOLATION_FLOOR_DB`` (200 dB): an exact null
    has zero cross power and infinite nominal isolation, and values
    beyond the cap carry no design information.
    """
    cross_power = dc_transfer(kappa, length).cross_power
    if cross_power <= 10.0 ** (-ISOLATION_FLOOR_DB / 10.0):
        return ISOLATION_FLOOR_DB
    return min(-10.0 * math.log10(cross_power), ISOLATION_FLOOR_DB)


def kerr_detuned_efficiency(kappa: complex, length: float, delta_beta: float) -> float:
    """Power-transfer efficiency of the coupler under a Kerr mismatch.

    eta = |kappa|^2 / (|kappa|^2 + delta_beta^2)
          * sin^2(|kappa| * L * sqrt(1 + (delta_beta / (2|kappa|))^2))

    Note the asymmetry: the prefactor carries the full mismatch while
    the beat-rate correction inside the sine uses half of it. The
    expression is implemented exactly as written above.

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
        If |kappa|, delta_beta or their ratio is too large to square.
    """
    require_finite("kappa", kappa)
    require_positive("length", length)
    require_finite("delta_beta", delta_beta)
    mag = abs(complex(kappa))
    if mag == 0.0:
        return 0.0
    ratio = delta_beta / (2.0 * mag)
    if not max(mag, abs(delta_beta), abs(ratio)) <= _MAX_SQUARABLE:
        raise NonPhysical(
            f"Kerr crosstalk overflows for |kappa| = {mag:.6g} 1/m, "
            f"delta_beta = {delta_beta:.6g} 1/m"
        )
    pref = mag**2 / (mag**2 + delta_beta**2)
    return pref * math.sin(mag * length * math.sqrt(1.0 + ratio**2)) ** 2


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
    below one mean the linear null survives the pump power; the design
    rules use a configurable ceiling (0.05 by default).
    """
    require_non_negative("p_in", p_in)
    require_positive("q_loaded", q_loaded)
    require_positive("wavelength", wavelength)
    return wg.gamma_nl * p_in * wavelength * q_loaded / (4.0 * wg.n_g)
