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


class SpectrumResult(Record):
    """Sampled intensity spectra of both rings over a band."""

    omega: np.ndarray
    f1_sq: np.ndarray
    f2_sq: np.ndarray


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


# Measured on a 2-vCPU Xeon (Python 3.11.7, numpy 2.4.6), each route
# forced: the plain route costs about 0.12 us a line term (one line at
# one point) and 1.4 us a CSV row, the numpy route 3 ns a term, 2.8 us a
# line (its five ufunc calls, whatever the point count; 2**20 + 300 lines
# at 3 points took 2.9 s) and 0.5 us a row, after an import of about
# 55 ms. A spectrum goes plain where that costs less: up to about 48000
# points with 2 lines and 19000 with 17, just short of the crossings of
# forced fresh processes (medians of 11): with 2 lines plain still led at
# 50001 points (258 against 279 ms), and with 17 the two tied at 20001
# (257 against 256 ms). A comb of many lines over few points goes plain.
_PLAIN_TERM_S = 0.12e-6
_PLAIN_ROW_S = 1.4e-6
_NUMPY_TERM_S = 3e-9
_NUMPY_LINE_S = 2.8e-6
_NUMPY_ROW_S = 0.5e-6
_NUMPY_IMPORT_S = 0.055


def _plain_is_cheaper(n_points: int, n_lines: int) -> bool:
    plain = n_points * (n_lines * _PLAIN_TERM_S + _PLAIN_ROW_S)
    numpy = n_lines * _NUMPY_LINE_S + n_points * (n_lines * _NUMPY_TERM_S + _NUMPY_ROW_S)
    return plain < _NUMPY_IMPORT_S + numpy


def spectrum_csv(device: DeviceSpec, band: tuple[float, float], n_points: int) -> str:
    """The CSV of :func:`intensity_spectrum`, byte for byte, by the cheaper route.

    Validates ``n_points`` and solves both combs once, as
    :func:`intensity_spectrum` does. Both routes add each ring's lines in
    sequence, in comb order, with the same operations, so they give the
    same bytes. A spectrum of few points x lines, or of many lines over
    few points (the numpy kernel costs a few microseconds a line, whatever
    the point count), is summed in plain Python (:func:`linspace_plain`,
    :func:`ringpair.kernels.lorentzian_comb_plain`) and written by
    :func:`ringpair.deviceio.csv_text`, without importing numpy; a larger
    one takes :func:`intensity_spectrum`'s numpy kernel and
    :func:`spectrum_to_csv`.
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
