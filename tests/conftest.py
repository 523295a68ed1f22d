"""Shared fixtures and device builders.

``make_device`` constructs a racetrack pair sitting at an exact coupler
null: the coupling model's reference strength is chosen so that the
device gap reproduces |kappa| * L = order * pi to the last bit. Tests
that need an off-null device perturb the gap or the length explicitly.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import settings
from scipy.constants import c as C_VACUUM

from ringpair import (
    CouplingModel,
    DeviceSpec,
    RacetrackSpec,
    WaveguideParams,
    load_device,
)

REPO = Path(__file__).resolve().parent.parent
DEVICE_JSON = REPO / "devices" / "silicon_racetrack.json"

TWO_PI = 2.0 * math.pi

# Property tests draw the same examples on every run and keep no example
# database, so the suite's verdict repeats. Hypothesis still writes its
# caches under .hypothesis/ in the working directory (gitignored).
settings.register_profile("ringpair", derandomize=True, database=None)
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


def process_band(device: DeviceSpec, n_spacings: float = 4.2) -> tuple[float, float]:
    """Band around the reference wide enough for a dual-pump setup."""
    w = device.waveguide.omega_ref
    span = n_spacings * TWO_PI * C_VACUUM / (
        device.waveguide.n_g * device.ring1.round_trip_length
    )
    return (w - span, w + span)


@pytest.fixture(scope="session")
def sample_device() -> DeviceSpec:
    return load_device(DEVICE_JSON)
