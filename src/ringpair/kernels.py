"""Hot numeric kernels: comb line shapes, the coupler overlap integrand
and the pair-rate spectral kernel.

Each kernel is one vectorized numpy expression over an ndarray of
abscissae, so the adaptive quadrature can evaluate a whole refinement
round in one call.
"""

from __future__ import annotations

import numpy as np


def lorentzian_comb(
    omega: np.ndarray,
    centers: np.ndarray,
    half_widths: np.ndarray,
    peaks_sq: np.ndarray,
) -> np.ndarray:
    """Sum of squared-Lorentzian intensity profiles.

    out[i] = sum_j peaks_sq[j] * hw[j]^2 / ((omega[i] - centers[j])^2 + hw[j]^2)
    """
    d = omega[:, None] - centers[None, :]
    prof = peaks_sq * half_widths**2 / (d * d + half_widths**2)
    return prof.sum(axis=1)


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
