"""Every float field of every public value type rejects NaN and infinities.

The walk goes over ``dataclasses.fields`` of each type, so a field added
later is covered without touching this file.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from ringpair import (
    CmtField,
    DesignGoal,
    PumpDrive,
    Resonance,
    resonant_config,
)

from conftest import make_device, process_band

NON_FINITE = (math.nan, math.inf, -math.inf)


def _instances():
    dev = make_device()
    return (
        dev.waveguide,
        dev.ring1,
        dev.coupling,
        dev,
        Resonance(owner=1, order=100, omega0=1.2e15, q_loaded=5e4, q_coupling=1e5),
        CmtField(port="IN", kappa=6.6e4 + 1e3j, length=4.7e-5),
        resonant_config(dev, process_band(dev)),
        DesignGoal(signal_wavelength=1.55e-6),
        PumpDrive(photon_number=1.0, pulse_duration=1e-9, self_coupling=0.9),
    )


def _float_fields():
    cases = []
    for obj in _instances():
        for f in dataclasses.fields(obj):
            kind = type(obj).__name__
            if f.type in ("float", "complex", "float | None"):
                cases.append(pytest.param(obj, f.name, None, id=f"{kind}.{f.name}"))
            elif f.type == "tuple[float, float]":
                for i in (0, 1):
                    cases.append(pytest.param(obj, f.name, i, id=f"{kind}.{f.name}[{i}]"))
    return cases


@pytest.mark.parametrize("obj, name, index", _float_fields())
@pytest.mark.parametrize("bad", NON_FINITE, ids=("nan", "+inf", "-inf"))
def test_non_finite_field_rejected(obj, name, index, bad):
    value = bad
    if index is not None:
        pair = list(getattr(obj, name))
        pair[index] = bad
        value = tuple(pair)
    with pytest.raises(ValueError):
        dataclasses.replace(obj, **{name: value})


def test_walk_covers_every_listed_type():
    walked = {p.values[0].__class__.__name__ for p in _float_fields()}
    assert walked == {
        "WaveguideParams",
        "RacetrackSpec",
        "CouplingModel",
        "DeviceSpec",
        "Resonance",
        "CmtField",
        "ProcessConfig",
        "DesignGoal",
        "PumpDrive",
    }
