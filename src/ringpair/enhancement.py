"""Resonant field enhancement inside the racetracks.

Near any resonance the circulating field exceeds the bus field by a
Lorentzian factor

    f(w) = sqrt(4 Q v_g / (L_rt w0)) * sqrt(Q / Q_c)
           * (dw/2) / ((w - w0) + i dw/2),

with dw = w0 / Q the loaded full width at half maximum. On resonance
the magnitude is the square-root prefactor and the phase is -pi/2 per
factor of the Lorentzian. ``j_quadrature`` multiplies the prefactor,
:func:`peak_amplitude`, by the unit line shape, :func:`lorentzian_response`.

A spectrum over a band is the per-ring sum of the squared magnitudes
of all in-band resonances. Summing intensities (not amplitudes) is a
deliberate simplification: distinct longitudinal modes are spaced by
many linewidths, so their interference terms are negligible where
either factor is appreciable. Mid-band values are therefore tail sums
and carry no resonant-phase information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import kernels
from .deviceio import csv_text
from .errors import NonPhysical, require_finite
from .geometry import DeviceSpec, Resonance, WaveguideParams, RacetrackSpec, device_combs

if TYPE_CHECKING:
    import numpy as np

ENHANCEMENT_WINDOW_LINEWIDTHS = 20.0

# Largest number of samples one spectrum may hold, 100 times the largest
# benchmarked spectrum; a huge count would otherwise fail in allocation.
MAX_SPECTRUM_POINTS = 10**7


def peak_amplitude(res: Resonance, wg: WaveguideParams, ring: RacetrackSpec) -> float:
    """On-resonance magnitude of the enhancement factor (dimensionless).

    Raises ``NonPhysical`` when it or its square, the peak intensity
    enhancement, overflows.
    """
    pref = 4.0 * res.q_loaded * wg.v_g / (ring.round_trip_length * res.omega0)
    amp = math.sqrt(pref) * math.sqrt(res.q_loaded / res.q_coupling)
    require_finite("peak intensity enhancement", amp * amp, NonPhysical)
    return amp


def lorentzian_response(res: Resonance, omega: float) -> complex:
    """Unit-peak complex line shape (dw/2) / ((w - w0) + i dw/2).

    The division is written out as numpy's complex-division algorithm
    (Smith's method with a reciprocal), so it gives the bytes numpy
    gives for the same value.
    """
    require_finite("omega", omega)
    hw = 0.5 * res.linewidth
    x = omega - res.omega0
    if abs(x) >= hw:
        rat = hw / x
        scl = 1.0 / (x + hw * rat)
        # 0.0 - ... keeps numpy's sign of zero where hw / x underflows.
        return complex(hw * scl, (0.0 - hw * rat) * scl)
    rat = x / hw
    scl = 1.0 / (hw + x * rat)
    return complex(hw * rat * scl, -hw * scl)


@dataclass(frozen=True)
class EnhancementProfile:
    """One resonance's contribution to the intensity spectrum."""

    resonance: Resonance
    peak_amplitude: float

    @property
    def peak_intensity(self) -> float:
        return self.peak_amplitude**2

    def intensity(self, omega: float | np.ndarray) -> np.ndarray | float:
        """|f(omega)|^2 for this resonance alone."""
        import numpy as np

        omega = np.asarray(omega, dtype=float)
        if not np.isfinite(omega).all():
            raise ValueError(f"omega must be finite, got {omega}")
        hw = 0.5 * self.resonance.linewidth
        out = self.peak_intensity * hw**2 / ((omega - self.resonance.omega0) ** 2 + hw**2)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SpectrumResult:
    """Sampled intensity spectra of both rings over a band."""

    omega: np.ndarray
    f1_sq: np.ndarray
    f2_sq: np.ndarray
    comb1: tuple[Resonance, ...]
    comb2: tuple[Resonance, ...]


def ring_profiles(
    device: DeviceSpec, comb: list[Resonance] | tuple[Resonance, ...]
) -> list[EnhancementProfile]:
    """Enhancement profiles for every resonance of one comb."""
    out = []
    for res in comb:
        ring = device.ring(res.owner)
        out.append(
            EnhancementProfile(
                resonance=res, peak_amplitude=peak_amplitude(res, device.waveguide, ring)
            )
        )
    return out


def intensity_spectrum(
    device: DeviceSpec, band: tuple[float, float], n_points: int
) -> SpectrumResult:
    """Intensity-enhancement spectra of both rings on a uniform grid.

    Each ring's column is the sum of |f|^2 over that ring's in-band
    resonances only. Raises ``ValueError`` unless ``n_points`` is
    between 2 and ``MAX_SPECTRUM_POINTS``, and
    :class:`ringpair.errors.EmptyBand` (from the comb solver) if either
    ring has no resonance in the band.
    """
    import numpy as np

    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    if n_points > MAX_SPECTRUM_POINTS:
        raise ValueError(f"n_points must be at most {MAX_SPECTRUM_POINTS}, got {n_points}")
    lo, hi = sorted((float(band[0]), float(band[1])))
    comb1, comb2 = device_combs(device, (lo, hi))
    omega = np.linspace(lo, hi, n_points)

    columns = []
    for comb in (comb1, comb2):
        centers = np.array([r.omega0 for r in comb])
        hw = np.array([0.5 * r.linewidth for r in comb])
        peaks = np.array(
            [peak_amplitude(r, device.waveguide, device.ring(r.owner)) ** 2 for r in comb]
        )
        columns.append(kernels.lorentzian_comb(omega, centers, hw, peaks))

    return SpectrumResult(
        omega=omega,
        f1_sq=columns[0],
        f2_sq=columns[1],
        comb1=tuple(comb1),
        comb2=tuple(comb2),
    )


def spectrum_to_csv(result: SpectrumResult) -> str:
    """Render a spectrum as CSV with full round-trip precision.

    Column names are part of the file contract:
    ``omega_rad_s, f1_sq, f2_sq``. Values are printed with 17
    significant digits so that parsing the file reproduces the binary
    doubles exactly.
    """
    columns = (result.omega.tolist(), result.f1_sq.tolist(), result.f2_sq.tolist())
    return csv_text(("omega_rad_s", "f1_sq", "f2_sq"), zip(*columns))
