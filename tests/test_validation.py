"""Every float field of every public value type, and every float
argument of every public function, rejects NaN and infinities.

The field walk goes over ``dataclasses.fields`` of each type, so a field
added later is covered without touching this file. The argument table is
checked against the signatures of ``ringpair.__all__``, so a float
parameter added later fails the walk until the table covers it.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

import ringpair as rp
from ringpair import (
    CmtField,
    DesignGoal,
    NonPhysical,
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


def _argument_calls():
    """(function.parameter, call with one bad value, documented error class)."""
    dev = make_device()
    wg, ring, length = dev.waveguide, dev.ring1, dev.dc_length
    band = process_band(dev)
    lo, hi = band
    cfg = resonant_config(dev, band)
    res = cfg.res_s
    field, _ = rp.solve_dc_fields(dev.kappa, length)
    profile = rp.ring_profiles(dev, [res])[0]
    pulse = PumpDrive(photon_number=1.0, pulse_duration=1e-9)
    drive = rp.resolve_drive(dev, pulse, cfg)
    report = rp.noise_budget(dev, pulse, cfg, band=band)
    goal = DesignGoal(signal_wavelength=1.55e-6)
    budget = (5e-8, 1e-6)
    calls = {
        "CmtField.a1.z": lambda x: field.a1(x),
        "CmtField.a2.z": lambda x: field.a2(x),
        "CouplingModel.kappa_abs.gap": lambda x: dev.coupling.kappa_abs(x),
        "CouplingModel.kappa.gap": lambda x: dev.coupling.kappa(x),
        "EnhancementProfile.intensity.omega": lambda x: profile.intensity(x),
        "PairRateReport.per_second.beta_sq": lambda x: report.per_second(x),
        "PumpDrive.power.omega": lambda x: drive.power(x),
        "calibrate_kcal.target_rate": lambda x: rp.calibrate_kcal(dev, x, 1e-3, cfg),
        "calibrate_kcal.pump_power": lambda x: rp.calibrate_kcal(dev, 1e3, x, cfg),
        "dc_transfer.kappa": lambda x: rp.dc_transfer(x, length),
        "dc_transfer.length": lambda x: rp.dc_transfer(dev.kappa, x),
        "device_combs.band[0]": lambda x: rp.device_combs(dev, (x, hi)),
        "device_combs.band[1]": lambda x: rp.device_combs(dev, (lo, x)),
        "effective_index.omega": lambda x: rp.effective_index(wg, x),
        "finesse.omega": lambda x: rp.finesse(ring, wg, x),
        "fsr.omega": lambda x: rp.fsr(ring, wg, x),
        "group_index.omega": lambda x: rp.group_index(wg, x),
        "integrate_adaptive.lo": lambda x: rp.integrate_adaptive(np.exp, x, 1.0, 1e-9),
        "integrate_adaptive.hi": lambda x: rp.integrate_adaptive(np.exp, 0.0, x, 1e-9),
        "integrate_adaptive.abs_tol": lambda x: rp.integrate_adaptive(np.exp, 0.0, 1.0, x),
        "intensity_spectrum.band[0]": lambda x: rp.intensity_spectrum(dev, (x, hi), 11),
        "intensity_spectrum.band[1]": lambda x: rp.intensity_spectrum(dev, (lo, x), 11),
        "isolation_db.kappa": lambda x: rp.isolation_db(x, length),
        "isolation_db.length": lambda x: rp.isolation_db(dev.kappa, x),
        "kerr_delta_beta.p_in": lambda x: rp.kerr_delta_beta(wg, x, 100.0),
        "kerr_delta_beta.finesse": lambda x: rp.kerr_delta_beta(wg, 1e-3, x),
        "kerr_detuned_efficiency.kappa": lambda x: rp.kerr_detuned_efficiency(x, length, 0.0),
        "kerr_detuned_efficiency.length": lambda x: rp.kerr_detuned_efficiency(dev.kappa, x, 0.0),
        "kerr_detuned_efficiency.delta_beta":
            lambda x: rp.kerr_detuned_efficiency(dev.kappa, length, x),
        "kerr_validity_metric.p_in": lambda x: rp.kerr_validity_metric(wg, x, 5e4, 1.55e-6),
        "kerr_validity_metric.q_loaded": lambda x: rp.kerr_validity_metric(wg, 1e-3, x, 1.55e-6),
        "kerr_validity_metric.wavelength": lambda x: rp.kerr_validity_metric(wg, 1e-3, 5e4, x),
        "lorentzian_response.omega": lambda x: rp.lorentzian_response(res, x),
        "noise_budget.kcal": lambda x: rp.noise_budget(dev, pulse, cfg, band=band, kcal=x),
        "noise_budget.band[0]": lambda x: rp.noise_budget(dev, pulse, cfg, band=(x, hi)),
        "noise_budget.band[1]": lambda x: rp.noise_budget(dev, pulse, cfg, band=(lo, x)),
        "null_kerr_metric.pump_power": lambda x: rp.null_kerr_metric(dev, x),
        "optimal_dc_length.bend_radius": lambda x: rp.optimal_dc_length(x),
        "q_loaded.q_intrinsic": lambda x: rp.q_loaded(x, 1e5),
        "q_loaded.q_coupling": lambda x: rp.q_loaded(1e5, x),
        "required_detuning.linewidth": lambda x: rp.required_detuning(goal, x),
        "resonance_comb.band[0]": lambda x: rp.resonance_comb(ring, wg, (x, hi)),
        "resonance_comb.band[1]": lambda x: rp.resonance_comb(ring, wg, (lo, x)),
        "resonant_config.band[0]": lambda x: rp.resonant_config(dev, (x, hi)),
        "resonant_config.band[1]": lambda x: rp.resonant_config(dev, (lo, x)),
        "round_trip_phase.omega": lambda x: rp.round_trip_phase(wg, ring, x),
        "sigma_from_finesse.fin": lambda x: rp.sigma_from_finesse(x),
        "solve_dc_fields.kappa": lambda x: rp.solve_dc_fields(x, length),
        "solve_dc_fields.length": lambda x: rp.solve_dc_fields(dev.kappa, x),
        "solve_gap_for_uncoupling.length":
            lambda x: rp.solve_gap_for_uncoupling(dev.coupling, x, 1),
        "solve_gap_for_uncoupling.gap_budget[0]":
            lambda x: rp.solve_gap_for_uncoupling(dev.coupling, length, 1, (x, budget[1])),
        "solve_gap_for_uncoupling.gap_budget[1]":
            lambda x: rp.solve_gap_for_uncoupling(dev.coupling, length, 1, (budget[0], x)),
        "suppression_factor.delta": lambda x: rp.suppression_factor(x, 1e9),
        "suppression_factor.linewidth": lambda x: rp.suppression_factor(1e9, x),
        "wavevector.omega": lambda x: rp.wavevector(wg, x),
        "xpm_spm_compensation.pump_power": lambda x: rp.xpm_spm_compensation(dev, x),
        "xpm_spm_compensation.max_kerr_metric": lambda x: rp.xpm_spm_compensation(dev, 1e-3, x),
        "z_overlap_integral.kappa": lambda x: rp.z_overlap_integral(x, length),
        "z_overlap_integral.length": lambda x: rp.z_overlap_integral(dev.kappa, x),
        "z_overlap_integral.delta_k": lambda x: rp.z_overlap_integral(dev.kappa, length, x),
    }
    for name in ("pair_rate_closed_form", "pair_rate_integral"):
        route = getattr(rp, name)
        calls[f"{name}.delta"] = lambda x, f=route: f(drive, res, x, 1.0, wg.v_g)
        calls[f"{name}.kcal"] = lambda x, f=route: f(drive, res, 0.0, x, wg.v_g)
        calls[f"{name}.v_g"] = lambda x, f=route: f(drive, res, 0.0, 1.0, x)
        calls[f"{name}.omega_s2"] = lambda x, f=route: f(drive, res, 0.0, 1.0, wg.v_g, x)
    # A calibration constant, a calibration target or a finesse out of
    # range is a numeric-domain error; every other bad argument is input.
    non_physical = {
        "calibrate_kcal.target_rate", "calibrate_kcal.pump_power", "noise_budget.kcal",
        "pair_rate_closed_form.kcal", "pair_rate_closed_form.omega_s2",
        "pair_rate_integral.kcal", "pair_rate_integral.omega_s2", "sigma_from_finesse.fin",
    }
    return {
        key: (call, NonPhysical if key in non_physical else ValueError)
        for key, call in calls.items()
    }


ARGUMENT_CALLS = _argument_calls()


@pytest.mark.parametrize("key", ARGUMENT_CALLS)
@pytest.mark.parametrize("bad", NON_FINITE, ids=("nan", "+inf", "-inf"))
def test_non_finite_argument_rejected(key, bad):
    call, error = ARGUMENT_CALLS[key]
    with pytest.raises(error, match="must be finite"):
        call(bad)


def _public_float_parameters():
    """function.parameter for each float or complex parameter of ringpair.__all__."""
    keys = set()
    for name in rp.__all__:
        obj = getattr(rp, name)
        if inspect.isfunction(obj):
            functions = [(name, obj)]
        elif inspect.isclass(obj):
            functions = [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                         if inspect.isfunction(f) and not attr.startswith("_")]
        else:
            continue
        for qualname, function in functions:
            for param in inspect.signature(function).parameters.values():
                kind = str(param.annotation)
                if kind.startswith("tuple[float, float]"):
                    keys |= {f"{qualname}.{param.name}[0]", f"{qualname}.{param.name}[1]"}
                elif "float" in kind or "complex" in kind:
                    keys.add(f"{qualname}.{param.name}")
    return keys


def test_argument_table_covers_every_public_float_parameter():
    assert set(ARGUMENT_CALLS) == _public_float_parameters()
