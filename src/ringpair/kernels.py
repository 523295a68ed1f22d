"""Hot numeric kernels: comb line shapes, the coupler overlap integrand
and the pair-rate spectral kernel.

Each kernel is a vectorized expression over an ndarray of abscissae,
but for ``lorentzian_comb_plain``, its twin on Python floats. The ones
that call numpy functions import numpy in their body, so loading this
module does not load numpy. Only the two comb kernels, which sum the
spectrum, have runtime callers. ``lorentzian_comb`` evaluates its lines
x points matrix in blocks of about 2**20 elements (2**16 past 256
lines), so its memory does not grow with the number of points, and adds
the lines in numpy's own pairwise order, so its bytes equal those of the
one-shot points x lines sum. That order is written down once, in
``_pairwise_steps``, and ``lorentzian_comb_plain`` follows it too, so
small spectra get the same bytes without numpy. The other two are the
tests' reference integrands for closed forms: ``pair_kernel`` for the
exact pair-rate integral in :func:`ringpair.sfwm.pair_rate_integral`,
``dc_overlap_integrand`` for the coupler overlap in
:func:`ringpair.nonlinear.z_overlap_integral`.
"""

from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


# Elements of lorentzian_comb's one work buffer (8 MB), a block of
# lines x points, whatever the point count. Smaller blocks made 200-line
# spectra slower: 18 against 11 ms on 20001 points with 2**18 elements.
_BLOCK_ELEMS = 2**20
# Most lines that _add_rows adds. With more, one sum(axis=1) over each
# point's lines is long enough to be cheap, and cache-sized blocks of
# points x lines were faster: 17 against 20 ms on 20001 points x 272
# lines, while 100001 x 200 took 54 ms by rows against 74.
_ROW_ADD_LINES = 256
_POINT_BLOCK_ELEMS = 2**16


def lorentzian_comb(
    omega: np.ndarray,
    centers: np.ndarray,
    half_widths: np.ndarray,
    peaks_sq: np.ndarray,
) -> np.ndarray:
    """Sum of squared-Lorentzian intensity profiles.

    out[i] = sum_j peaks_sq[j] * hw[j]^2 / ((omega[i] - centers[j])^2 + hw[j]^2)

    The profiles are filled in place, one line per row, into blocks of
    about 2**20 elements (at least one point) of one reused buffer. The
    rows are then added as ``sum(axis=1)`` adds each point's lines:
    numpy's pairwise order, see :func:`_add_rows`. So the result is
    byte-equal to summing the whole points x lines matrix at once, and
    each addition runs over a block of points instead of one point's lines.
    Past 256 lines the blocks are 2**16 elements of points x lines, and
    ``sum(axis=1)`` itself adds each point's lines.
    """
    import numpy as np

    n, m = omega.shape[0], centers.shape[0]
    if m == 0:
        return np.zeros(n)
    by_point = m > _ROW_ADD_LINES
    cols = max(1, (_POINT_BLOCK_ELEMS if by_point else _BLOCK_ELEMS) // m)
    hw_sq = half_widths[:, None] ** 2
    num = peaks_sq[:, None] * hw_sq
    out = np.empty(n)
    buf = np.empty((min(cols, n), m)).T if by_point else np.empty((m, min(cols, n)))
    for s in range(0, n, cols):
        e = min(s + cols, n)
        d = buf[:, : e - s]
        np.subtract(omega[s:e], centers[:, None], out=d)
        np.multiply(d, d, out=d)
        np.add(d, hw_sq, out=d)
        np.divide(num, d, out=d)
        if by_point:
            d.T.sum(axis=1, out=out[s:e])
        else:
            _add_rows(d, m)
            # np.add.reduce starts from its identity 0.0 (it turns -0.0 into 0.0).
            np.add(d[0], 0.0, out=out[s:e])
    return out


def _pairwise_steps(lo: int, n: int):
    """The order of numpy's pairwise sum over a contiguous axis
    (``pairwise_sum`` in its loops_utils), as additions of rows lo..lo+n-1
    into row lo. Each step (dst, src, count, stride) adds rows src + k *
    stride into rows dst + k * stride, for k below count.

    Fewer than 8 rows are added in sequence (numpy starts from 0.0, which
    changes only an all -0.0 sum; the callers' final + 0.0 does the
    same); up to 128 rows in eight accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    sequence; more rows as two halves split at n // 2 rounded down to a
    multiple of 8. The order was read from and checked against numpy
    2.4.6; the one-shot byte oracle in tests/test_kernels.py fails if a
    numpy release changes it."""
    if n < 8:
        for i in range(lo + 1, lo + n):
            yield lo, i, 1, 1
    elif n <= 128:
        whole = lo + n - n % 8
        for i in range(lo + 8, whole, 8):
            yield lo, i, 8, 1
        yield lo, lo + 1, 4, 2
        yield lo, lo + 2, 2, 4
        yield lo, lo + 4, 1, 1
        for i in range(whole, lo + n):
            yield lo, i, 1, 1
    else:
        half = n // 2 - n // 2 % 8
        yield from _pairwise_steps(lo, half)
        yield from _pairwise_steps(lo + half, n - half)
        yield lo, lo + half, 1, 1


def _add_rows(b: np.ndarray, n: int) -> None:
    """Add rows 0..n-1 of ``b`` into row 0, in place, in the order of
    :func:`_pairwise_steps`, a block of points per addition."""
    import numpy as np

    for dst, src, count, stride in _pairwise_steps(0, n):
        end = count * stride
        np.add(b[dst : dst + end : stride], b[src : src + end : stride],
               out=b[dst : dst + end : stride])


def lorentzian_comb_plain(
    omega: Sequence[float],
    centers: Sequence[float],
    half_widths: Sequence[float],
    peaks_sq: Sequence[float],
) -> list[float]:
    """:func:`lorentzian_comb` on Python floats, byte for byte, without numpy.

    Each line's profile is one row of the points, computed with the numpy
    kernel's operations in its order: hw * hw (numpy's square),
    peaks_sq * hw^2, then the offset, its square, + hw^2 and the division.
    The rows are added in :func:`_pairwise_steps`' order and the sum gets
    the same final + 0.0. Python float arithmetic is the same IEEE double
    arithmetic, one rounding per operation, so each value has the bytes
    the numpy kernel gives, provided every hw * hw is nonzero, as
    :attr:`ringpair.geometry.Resonance.linewidth` ensures (where numpy
    gives inf or nan, Python raises ``ZeroDivisionError``). It holds every
    row at once, about 32 bytes a term, so it suits the small spectra
    where numpy's import costs more than the sum.
    """
    rows = []
    for c, hw, peak in zip(centers, half_widths, peaks_sq):
        hw_sq = hw * hw
        num = peak * hw_sq
        rows.append([num / ((w - c) * (w - c) + hw_sq) for w in omega])
    if not rows:
        return [0.0] * len(omega)
    for dst, src, count, stride in _pairwise_steps(0, len(rows)):
        for k in range(0, count * stride, stride):
            rows[dst + k] = list(map(add, rows[dst + k], rows[src + k]))
    return [x + 0.0 for x in rows[0]]


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
