"""Hot numeric kernels: comb line shapes, the coupler overlap integrand
and the pair-rate spectral kernel.

Each kernel is a vectorized expression over an ndarray of abscissae.
The two that call numpy functions import numpy in their body, so loading
this module does not load numpy. Only ``lorentzian_comb``, which sums the spectrum, has a
runtime caller. It evaluates its points x lines matrix in row blocks of
about 2**16 elements, so its memory does not grow with the number of
points, and its bytes equal those of the one-shot sum. The other two are
the tests' reference integrands for closed forms: ``pair_kernel`` for
the exact pair-rate integral in :func:`ringpair.sfwm.pair_rate_integral`,
``dc_overlap_integrand`` for the coupler overlap in
:func:`ringpair.nonlinear.z_overlap_integral`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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

    The sum runs over blocks of about 2**16 elements (at least one row),
    filled in place in one reused buffer. Each row is its own reduction
    with the same element-wise operations, so the result is byte-equal to
    evaluating the whole points x lines matrix at once.
    """
    import numpy as np

    n, m = omega.shape[0], centers.shape[0]
    rows = max(1, 2**16 // max(m, 1))
    hw_sq = half_widths**2
    num = peaks_sq * hw_sq
    out = np.empty(n)
    buf = np.empty((min(rows, n), m))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        d = buf[: e - s]
        np.subtract(omega[s:e, None], centers[None, :], out=d)
        np.multiply(d, d, out=d)
        np.add(d, hw_sq, out=d)
        np.divide(num, d, out=d)
        d.sum(axis=1, out=out[s:e])
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
