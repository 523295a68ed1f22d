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
from typing import TYPE_CHECKING

from . import kernels
from .deviceio import csv_columns, csv_text
from .errors import NonPhysical, require_count, require_finite
from .geometry import DeviceSpec, Resonance, WaveguideParams, RacetrackSpec, device_combs
from .record import Record

if TYPE_CHECKING:
    import numpy as np

# Largest number of samples one spectrum may hold, 100 times the largest
# benchmarked spectrum; a huge count would otherwise fail in allocation.
MAX_SPECTRUM_POINTS = 10**7
_HEADER = ("omega_rad_s", "f1_sq", "f2_sq")


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

    At the line centre it is exactly -1j, whatever the width.
    """
    require_finite("omega", omega)
    hw = 0.5 * res.linewidth
    return hw / complex(omega - res.omega0, hw)


class SpectrumResult(Record):
    """Sampled intensity spectra of both rings over a band.

    Two spectra are equal when every array is (``np.array_equal``); like
    its arrays, a spectrum has no hash.
    """

    omega: np.ndarray
    f1_sq: np.ndarray
    f2_sq: np.ndarray

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        import numpy as np

        return all(map(np.array_equal, self._values(), other._values()))


def _band_combs(
    device: DeviceSpec, band: tuple[float, float], n_points: int
) -> tuple[int, float, float, tuple[list[Resonance], list[Resonance]]]:
    """The checked ``n_points``, the band edges in order and both rings' combs."""
    n_points = require_count("n_points", n_points, 2, MAX_SPECTRUM_POINTS)
    lo, hi = sorted((float(band[0]), float(band[1])))
    return n_points, lo, hi, device_combs(device, (lo, hi))


def _line_table(device: DeviceSpec, comb: list[Resonance]) -> tuple[list[float], ...]:
    """Centers, half widths and peak intensities of one comb's lines."""
    return (
        [r.omega0 for r in comb],
        [0.5 * r.linewidth for r in comb],
        [peak_amplitude(r, device.waveguide, device.ring(r.owner)) ** 2 for r in comb],
    )


def _numpy_spectrum(device: DeviceSpec, lo: float, hi: float, n_points: int,
                    combs: tuple[list[Resonance], list[Resonance]]) -> SpectrumResult:
    import numpy as np

    omega = np.linspace(lo, hi, n_points)
    f1_sq, f2_sq = (
        kernels.lorentzian_comb(omega, *map(np.array, _line_table(device, comb)))
        for comb in combs
    )
    return SpectrumResult(omega=omega, f1_sq=f1_sq, f2_sq=f2_sq)


def intensity_spectrum(
    device: DeviceSpec, band: tuple[float, float], n_points: int
) -> SpectrumResult:
    """Intensity-enhancement spectra of both rings on a uniform grid.

    Each ring's column is the sum of |f|^2 over that ring's in-band
    resonances only. Raises ``ValueError`` unless ``n_points`` is a whole
    number (not a bool) between 2 and ``MAX_SPECTRUM_POINTS``, and
    :class:`ringpair.errors.EmptyBand` (from the comb solver) if either
    ring has no resonance in the band.
    """
    n_points, lo, hi, combs = _band_combs(device, band, n_points)
    return _numpy_spectrum(device, lo, hi, n_points, combs)


def linspace_plain(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` for n >= 2 on Python floats, byte for byte.

    numpy's own formula: i * step + lo with step = (hi - lo) / (n - 1),
    or i / (n - 1) * (hi - lo) + lo where that step underflows to zero,
    and the last point set to hi.
    """
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        grid = [i / div * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


# The route budget, in the plain route's cost of one line at one point
# (0.12 us; 2-vCPU Xeon, Python 3.11.7, numpy 2.4.6). Plain costs n_lines + 8
# a point: a term a line, and its CSV row less numpy's (1.4 against 0.5 us).
# numpy costs 470000 for its 55 ms import and 24 a line (2.8 us of ufunc
# calls at any point count). So up to about 47000 points go plain with 2
# lines, 18800 with 17, and 70 with 10**4. In forced fresh processes plain
# still led at 50001 points with 2 lines, and tied at 20001 with 17.
def _plain_is_cheaper(n_points: int, n_lines: int) -> bool:
    return n_points * (n_lines + 8) < 470_000 + 24 * n_lines


def spectrum_csv(device: DeviceSpec, band: tuple[float, float], n_points: int) -> str:
    """The CSV of :func:`intensity_spectrum`, byte for byte, by the cheaper route.

    Validates ``n_points`` and solves both combs once, as
    :func:`intensity_spectrum` does. Both routes add each ring's lines in
    sequence, in comb order, with the same operations, so they give the
    same bytes. A spectrum goes plain while the points times (lines + 8)
    stay under 470000 + 24 per line, numpy's import and per-line cost in
    units of one plain line at one point: few points x lines, or many
    lines over few points. It is summed in plain Python
    (:func:`linspace_plain`, :func:`ringpair.kernels.lorentzian_comb_plain`)
    and written by :func:`ringpair.deviceio.csv_text`, without importing
    numpy; a larger one takes :func:`intensity_spectrum`'s numpy kernel
    and :func:`spectrum_to_csv`.
    """
    n_points, lo, hi, combs = _band_combs(device, band, n_points)
    if not _plain_is_cheaper(n_points, sum(map(len, combs))):
        return spectrum_to_csv(_numpy_spectrum(device, lo, hi, n_points, combs))
    omega = linspace_plain(lo, hi, n_points)
    f1_sq, f2_sq = (kernels.lorentzian_comb_plain(omega, *_line_table(device, comb))
                    for comb in combs)
    return csv_text(_HEADER, zip(omega, f1_sq, f2_sq))


def spectrum_to_csv(result: SpectrumResult) -> str:
    """Render a spectrum as CSV with full round-trip precision.

    Column names are part of the file contract:
    ``omega_rad_s, f1_sq, f2_sq``. Values are printed with 17
    significant digits so that parsing the file reproduces the binary
    doubles exactly: the bytes of ``'%.17g'``, rendered a block of rows
    at a time by :func:`ringpair.deviceio.csv_columns`.
    """
    return csv_columns(_HEADER, (result.omega, result.f1_sq, result.f2_sq))
