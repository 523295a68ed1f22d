"""Shared fixtures and device builders.

``make_device`` constructs a racetrack pair sitting at an exact coupler
null: the coupling model's reference strength is chosen so that the
device gap reproduces |kappa| * L = order * pi to the last bit. Tests
that need an off-null device perturb the gap or the length explicitly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings
from scipy.constants import c as C_VACUUM

from ringpair import (
    CouplingModel,
    DeviceSpec,
    RacetrackSpec,
    WaveguideParams,
    device_to_dict,
    load_device,
    write_text_atomic,
)

REPO = Path(__file__).resolve().parent.parent
DEVICE_JSON = REPO / "devices" / "silicon_racetrack.json"

# The README's example command of each subcommand, without its output
# flags. The golden hashes pin the artifacts of these command lines, and
# test_golden checks that README.md shows exactly them.
_DEV = str(DEVICE_JSON)
_BAND = ["--band", "192THz", "195THz"]
README_COMMANDS = {
    "spectrum": ["spectrum", "--device", _DEV, *_BAND, "--points", "4001"],
    "overlap": ["overlap", "--device", _DEV, "--band", "1567nm:1543nm", "--method", "quadrature"],
    "rates": ["rates", "--device", _DEV, *_BAND, "--photons", "5e4", "--pulse", "1e-9"],
    "suppression": ["suppression", "--device", _DEV, *_BAND, "--points", "121",
                    "--max-detuning", "60"],
    "kerr-check": ["kerr-check", "--device", _DEV, "--power", "0.005"],
    "optimize": ["optimize", "--device", _DEV, "--signal", "1550nm", "--suppression", "1e-3"],
    "sweep": ["sweep", "--device", _DEV, "--param", "dc.gap_m", "--values", "2.8e-7", "3.2e-7",
              "41", "--report", "isolation"],
}

TWO_PI = 2.0 * math.pi

# Property tests draw the same examples on every run and keep no example
# database, so the suite's verdict repeats. Hypothesis still writes its
# caches under .hypothesis/ in the working directory (gitignored).
settings.register_profile("ringpair", derandomize=True, database=None)
# Every phase but shrinking: a failure reports its first failing example
# instead of stalling while Hypothesis shrinks it. The profile "mutate" uses
# it for tools/mutate.py (--hypothesis-profile=mutate), and a property whose
# examples are slow to shrink uses it under the default profile too.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)
settings.register_profile("mutate", settings.get_profile("ringpair"), phases=NO_SHRINK)
settings.load_profile("ringpair")


def make_device(
    l2_scale: float = 1.12,
    q_i: float = 1e5,
    q_c: float = 1e5,
    radius: float = 1.5e-5,
    n_g: float = 4.2,
    n_eff: float = 2.4,
    lambda_ref: float = 1.55e-6,
    gamma: float = 100.0,
    chi3: float = 2.5e-19,
    n_bar: float = 3.48,
    area: float = 5e-13,
    kappa_order: int = 1,
    gap: float = 3e-7,
    gvd: float = 0.0,
    kappa_phase: float = 0.0,
    heater1: float = 0.0,
    heater2: float = 0.0,
) -> DeviceSpec:
    """Racetrack pair at the bend-limited geometry with an exact null.

    Ring 1 sits at the optimum (straight = pi * R, round trip 4 pi R);
    ring 2's round trip is ``l2_scale`` times ring 1's. The coupler
    spans ring 1's full straight.
    """
    straight1 = math.pi * radius
    straight2 = l2_scale * 2.0 * math.pi * radius - math.pi * radius
    wg = WaveguideParams(
        n_eff_ref=n_eff,
        n_g=n_g,
        omega_ref=TWO_PI * C_VACUUM / lambda_ref,
        gvd=gvd,
        gamma_nl=gamma,
        chi3_bar=chi3,
        n_bar=n_bar,
        area_eff=area,
    )
    ring1 = RacetrackSpec(
        straight_len=straight1,
        bend_radius=radius,
        q_intrinsic=q_i,
        q_coupling=q_c,
        heater_shift=heater1,
    )
    ring2 = RacetrackSpec(
        straight_len=straight2,
        bend_radius=radius,
        q_intrinsic=q_i,
        q_coupling=q_c,
        heater_shift=heater2,
    )
    coupling = CouplingModel(
        kappa0=kappa_order * math.pi / straight1,
        gap_ref=gap,
        decay_len=1.5e-7,
        phase=kappa_phase,
    )
    return DeviceSpec(
        waveguide=wg,
        ring1=ring1,
        ring2=ring2,
        dc_length=straight1,
        dc_gap=gap,
        coupling=coupling,
    )


def write_device(device: DeviceSpec, path) -> None:
    """Write ``device`` as a device file, its keys in file order like the shipped one."""
    write_text_atomic(path, json.dumps(device_to_dict(device), indent=2) + "\n")


def process_band(device: DeviceSpec, n_spacings: float = 4.2) -> tuple[float, float]:
    """Band around the reference wide enough for a dual-pump setup."""
    w = device.waveguide.omega_ref
    span = n_spacings * TWO_PI * C_VACUUM / (
        device.waveguide.n_g * device.ring1.round_trip_length
    )
    return (w - span, w + span)


def lorentzian_sum_oracle(omega, centers, half_widths, peaks_sq):
    """Sum over the lines of peak^2 * hw^2 / ((omega - omega0)^2 + hw^2), in numpy.

    The whole points x lines matrix at once, its columns then added in
    line order to a sum that starts at 0.0: the oracle of the spectrum
    kernel, byte for byte, and of each spectrum column. ``omega`` is a
    flat array, the line table 1-d arrays.
    """
    d = omega[:, None] - centers[None, :]
    prof = peaks_sq * half_widths**2 / (d * d + half_widths**2)
    total = np.zeros(omega.shape[0])
    for column in prof.T:
        total += column
    return total


def null_overlap_oracle(device: DeviceSpec, cfg) -> float:
    """|J| of a configuration at a linear null with perfect phase matching.

    Written out from the model, not from ``ringpair``: each field's peak
    amplitude sqrt(4 Q v_g / (L_rt w0)) * sqrt(Q / Q_c) (its unit line
    shape at the centre has magnitude 1), the material factor
    chi3 / (n_bar^4 * A), and the coupler integral's magnitude L/4 there.
    """
    wg = device.waveguide
    v_g = C_VACUUM / wg.n_g
    product = 1.0
    for res in (cfg.res_p1, cfg.res_p2, cfg.res_s, cfg.res_s):
        ring = device.ring1 if res.owner == 1 else device.ring2
        q = res.q_loaded
        product *= math.sqrt(4.0 * q * v_g / (ring.round_trip_length * res.omega0) * q
                             / res.q_coupling)
    return product * abs(wg.chi3_bar) / (wg.n_bar**4 * wg.area_eff) * device.dc_length / 4.0


@pytest.fixture(scope="session")
def sample_device() -> DeviceSpec:
    return load_device(DEVICE_JSON)
