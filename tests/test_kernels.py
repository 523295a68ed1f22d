"""Numeric kernels against plain loops and closed forms."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringpair import device_combs, intensity_spectrum, kernels, load_device

from conftest import REPO, TWO_PI, lorentzian_sum_oracle

RNG = np.random.default_rng(20240817)
# Line counts where numpy's pairwise sum, which the in-order sum is
# checked against, changes shape: fewer than 8 terms, 8 accumulators up
# to 128, halves above; and the line counts of the benchmark's 100 THz
# spectra.
PAIRWISE_EDGES = [7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 272, 305]
# A comb of many lines, each added over few points.
MANY_LINES = 2**16 + 300


@st.composite
def comb_inputs(draw):
    """Comb inputs of up to 2**20 profile terms.

    Line counts span no line, one line, numpy's pairwise edges, up to
    700 lines, and MANY_LINES; point counts span no point, one point and
    up to the term budget.
    """
    m = draw(st.sampled_from([0, 1, *PAIRWISE_EDGES, MANY_LINES]) | st.integers(2, 700))
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 2**20 // max(m, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    omega = rng.uniform(0.9e15, 1.1e15, size=n)
    centers = np.sort(rng.uniform(0.95e15, 1.05e15, size=m))
    hw = rng.uniform(1e9, 5e10, size=m)
    peaks = rng.uniform(10.0, 1e4, size=m)
    return omega, centers, hw, peaks


def test_lorentzian_comb_against_plain_loop():
    omega = RNG.uniform(0.9e15, 1.1e15, size=257)
    centers = np.sort(RNG.uniform(0.95e15, 1.05e15, size=6))
    hw = RNG.uniform(1e9, 5e10, size=6)
    peaks = RNG.uniform(10.0, 1e4, size=6)
    got = kernels.lorentzian_comb(omega, centers, hw, peaks)
    for i in range(omega.size):
        expected = sum(
            peaks[j] * hw[j] ** 2 / ((omega[i] - centers[j]) ** 2 + hw[j] ** 2)
            for j in range(centers.size)
        )
        assert got[i] == pytest.approx(expected, rel=1e-13)


def assert_matches_the_sum_oracles(got, omega, centers, hw, peaks):
    """``got`` has the bytes of the in-order oracle, and is within
    (m + ceil(log2 m)) * 2**-53 relative of numpy's own pairwise sum of the
    profile matrix: the two sums' error bounds for m positive terms."""
    expected = lorentzian_sum_oracle(omega, centers, hw, peaks)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    m = centers.size
    d = omega[:, None] - centers[None, :]
    pairwise = (peaks * hw**2 / (d * d + hw**2)).sum(axis=1)
    bound = (m + math.ceil(math.log2(max(m, 1)))) * 2.0**-53
    assert np.all(np.abs(got - pairwise) <= bound * pairwise)


@settings(max_examples=120, deadline=None)
@given(comb_inputs())
def test_lorentzian_comb_blocks_match_one_shot_sum_bytes(args):
    assert_matches_the_sum_oracles(kernels.lorentzian_comb(*args), *args)


@pytest.mark.parametrize("m", PAIRWISE_EDGES)
def test_lorentzian_comb_matches_one_shot_sum_at_pairwise_edges(m):
    # At every edge of numpy's pairwise order, over the README's 4001 points.
    rng = np.random.default_rng(m)
    omega = rng.uniform(0.9e15, 1.1e15, size=4001)
    centers = np.sort(rng.uniform(0.95e15, 1.05e15, size=m))
    hw = rng.uniform(1e9, 5e10, size=m)
    peaks = rng.uniform(10.0, 1e4, size=m)
    got = kernels.lorentzian_comb(omega, centers, hw, peaks)
    assert_matches_the_sum_oracles(got, omega, centers, hw, peaks)


def test_lorentzian_comb_keeps_numpy_sign_of_zero():
    # A row of -0.0 profiles: the sum starts at 0.0, as np.add.reduce does.
    for m in (1, 7, 8, 129, 257):
        args = (np.array([1e15, 2e15]), np.full(m, 1e15), np.ones(m), np.full(m, -0.0))
        got = kernels.lorentzian_comb(*args)
        assert got.tobytes() == lorentzian_sum_oracle(*args).tobytes()
        assert got.tobytes() == np.full((2, m), -0.0).sum(axis=1).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 127, 128]) | st.integers(1, 128)
    | st.sampled_from([129, 255, 256, 257, 300]),
    n=st.sampled_from([0, 1, 2]) | st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_plain_comb_equals_numpy_comb_bytes(m, n, seed):
    # The plain-Python kernel repeats the numpy kernel's operations and
    # line order; a numpy release that changes either fails here.
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.9e15, 1.1e15, size=n)
    centers = np.sort(rng.uniform(0.95e15, 1.05e15, size=m))
    hw = rng.uniform(1e9, 5e10, size=m)
    peaks = rng.uniform(10.0, 1e4, size=m)
    got = kernels.lorentzian_comb_plain(*(a.tolist() for a in (omega, centers, hw, peaks)))
    expected = kernels.lorentzian_comb(omega, centers, hw, peaks)
    assert np.array(got, dtype=np.float64).tobytes() == expected.tobytes()


def test_plain_comb_keeps_numpy_sign_of_zero():
    for m in (1, 7, 8, 129, 257):
        args = ([1e15, 2e15], [1e15] * m, [1.0] * m, [-0.0] * m)
        expected = kernels.lorentzian_comb(*map(np.array, args))
        assert np.array(kernels.lorentzian_comb_plain(*args)).tobytes() == expected.tobytes()


def test_wide_spectrum_memory_does_not_grow_with_the_matrix():
    # 100001 points x 113 lines: the one-shot matrix and its
    # temporaries peaked at 146 MB. The in-order sum holds 4 vectors of
    # 100001 doubles, 0.8 MB each: the three output columns plus one work
    # vector, 3.2 MB.
    device = load_device(REPO / "clibench" / "device.json")
    band = (TWO_PI * 185e12, TWO_PI * 205e12)
    tracemalloc.start()
    try:
        result = intensity_spectrum(device, band, 100001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.omega.size == 100001
    assert sum(len(comb) for comb in device_combs(device, band)) > 100
    assert peak < 6e6


def test_dc_overlap_integrand_closed_form():
    # Summing the squared-amplitude products over both guides collapses
    # to -exp(-2i*phase) * sin^2(2|kappa|z) / 2 times the mismatch phase.
    kappa_abs = 6.67e4
    for phase in (0.0, 0.35, -1.2):
        for delta_k in (0.0, 137.0):
            z = RNG.uniform(0.0, 5e-5, size=401)
            got = kernels.dc_overlap_integrand(z, kappa_abs, phase, delta_k)
            expected = (
                -np.exp(-2j * phase)
                * np.sin(2.0 * kappa_abs * z) ** 2
                / 2.0
                * np.exp(1j * delta_k * z)
            )
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_dc_overlap_vanishes_where_either_field_is_empty():
    # At z = 0 the IN field has nothing in its own guide yet and the
    # OUT field nothing in the other; the product is exactly zero.
    kappa_abs = 6.67e4
    quarter = math.pi / (4.0 * kappa_abs)  # sin(2kz) peaks at pi/4
    got = kernels.dc_overlap_integrand(
        np.array([0.0, quarter]), kappa_abs, 0.0, 0.0
    )
    assert got[0] == 0.0
    assert got[1] == pytest.approx(-0.5, rel=1e-12)


def test_pair_kernel_against_direct_formula():
    fwhm = 2.4e10
    omega_s = 1.2e15
    for delta, omega_s2 in [(0.0, omega_s), (3.1e10, omega_s + 2.1e12)]:
        u = RNG.uniform(-60.0 * fwhm, 60.0 * fwhm, size=301)
        got = kernels.pair_kernel(u, delta, fwhm, omega_s, omega_s2)
        hw = 0.5 * fwhm
        w = omega_s2 - u
        omega_p = 2.0 * omega_s - omega_s2 - delta
        expected = (
            hw**2 / (u**2 + hw**2)
            * hw**2 / ((u + delta) ** 2 + hw**2)
            * (2.0 * omega_s - w) * w / (omega_s2 * omega_p)
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_pair_kernel_peaks_at_line_centers():
    fwhm = 2.4e10
    omega_s = 1.2e15
    got = kernels.pair_kernel(np.array([0.0]), 0.0, fwhm, omega_s, omega_s)
    assert got[0] == pytest.approx(1.0, rel=1e-12)

