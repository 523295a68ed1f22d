"""Hot numeric kernels: comb line shapes, the coupler overlap integrand
and the pair-rate spectral kernel.

Each kernel is a vectorized expression over an ndarray of abscissae,
but for ``lorentzian_comb_plain``, its twin on Python floats. The ones
that call numpy functions import numpy in their body, so loading this
module does not load numpy. Only the two comb kernels, which sum the
spectrum, have runtime callers. Both add the lines one at a time, in
the order given, into a sum that starts at 0.0, with the same IEEE
operations in the same order, so they give the same bytes by
construction. ``lorentzian_comb`` runs a few ufunc calls per line over
all points, about 2.8 us a line at few points (24 plain line-points in
:func:`ringpair.enhancement.spectrum_csv`'s route budget), and holds two
vectors of the points whatever the number of lines. The other two are the
tests' reference integrands for closed forms: ``pair_kernel`` for the
exact pair-rate integral in :func:`ringpair.sfwm.pair_rate_integral`,
``dc_overlap_integrand`` for the coupler overlap in
:func:`ringpair.nonlinear.z_overlap_integral`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


def lorentzian_comb(
    omega: np.ndarray,
    centers: np.ndarray,
    half_widths: np.ndarray,
    peaks_sq: np.ndarray,
) -> np.ndarray:
    """Sum of squared-Lorentzian intensity profiles.

    out[i] = sum_j peaks_sq[j] * hw[j]^2 / ((omega[i] - centers[j])^2 + hw[j]^2)

    One line at a time, in the order given: its profile is filled in
    place into one work vector of the points and added to the sum, which
    starts at 0.0 (so an all -0.0 sum is 0.0, as numpy's sum gives).
    """
    import numpy as np

    out = np.zeros(omega.shape[0])
    d = np.empty_like(out)
    hw_sq = half_widths * half_widths
    for c, h, num in zip(centers.tolist(), hw_sq.tolist(), (peaks_sq * hw_sq).tolist()):
        np.subtract(omega, c, out=d)
        np.multiply(d, d, out=d)
        np.add(d, h, out=d)
        np.divide(num, d, out=d)
        np.add(out, d, out=out)
    return out


def lorentzian_comb_plain(
    omega: Sequence[float],
    centers: Sequence[float],
    half_widths: Sequence[float],
    peaks_sq: Sequence[float],
) -> list[float]:
    """:func:`lorentzian_comb` on Python floats, byte for byte, without numpy.

    Each line's term repeats the numpy kernel's operations in its order:
    hw * hw, peaks_sq * hw^2, then the offset, its square, + hw^2, the
    division and the addition to the sum, line after line from 0.0.
    Python float arithmetic is the same IEEE double arithmetic, one
    rounding per operation, so each value has the bytes the numpy kernel
    gives, provided every hw * hw is nonzero, as
    :attr:`ringpair.geometry.Resonance.linewidth` ensures (where numpy
    gives inf or nan, Python raises ``ZeroDivisionError``). It serves the
    spectra whose sum costs less than numpy's import and per-line calls.
    """
    out = [0.0] * len(omega)
    for c, hw, peak in zip(centers, half_widths, peaks_sq):
        hw_sq = hw * hw
        num = peak * hw_sq
        out = [s + num / ((w - c) * (w - c) + hw_sq) for s, w in zip(out, omega)]
    return out


def dc_overlap_integrand(
    z: np.ndarray, kappa_abs: float, kappa_phase: float, delta_k: float
) -> np.ndarray:
    """Coupler-region product of asymptotic field amplitudes.

    For each of the two coupler waveguides N, multiplies the squared
    input-port amplitude by the squared output-port amplitude at
    position z, sums over N and applies the phase-mismatch factor
    exp(i * delta_k * z). The amplitudes are the standard two-mode
    beat solution: cosine in the fed guide, i * exp(-i*phase) * sine in
    the other. The tests integrate it numerically as the reference for the
    closed form in :func:`ringpair.nonlinear.z_overlap_integral`.
    """
    import numpy as np

    s = np.sin(kappa_abs * z)
    c = np.cos(kappa_abs * z)
    unit = np.exp(-1j * kappa_phase)
    a1_in = -1j * unit * s
    a2_in = c.astype(np.complex128)
    a1_out = c.astype(np.complex128)
    a2_out = 1j * unit * s
    total = a1_in * a1_in * a1_out * a1_out + a2_in * a2_in * a2_out * a2_out
    return total * np.exp(1j * delta_k * z)


def pair_kernel(
    u: np.ndarray, delta: float, fwhm: float, omega_s: float, omega_s2: float
) -> np.ndarray:
    """Normalized spectral kernel of the side-band pair-rate integral.

    Product of the two resonance line shapes (full width ``fwhm``, one
    centered at u = 0, the other displaced by ``delta``) times the
    slowly varying factor (2*omega_s - w) * w, normalized by its value
    at the line centers so the integral of the kernel has units of
    rad/s.
    """
    hw = 0.5 * fwhm
    lor1 = hw * hw / (u * u + hw * hw)
    lor2 = hw * hw / ((u + delta) ** 2 + hw * hw)
    w = omega_s2 - u
    omega_p = 2.0 * omega_s - omega_s2 - delta
    slow = (2.0 * omega_s - w) * w / (omega_s2 * omega_p)
    return lor1 * lor2 * slow
