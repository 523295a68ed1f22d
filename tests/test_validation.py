"""Every float field of every public value type, and every float
argument of every public function, rejects NaN and infinities; every
count is a whole number in its range.

The field walk goes over the annotations of each record type, so a
field added later is covered without touching this file. The argument table is
checked against the signatures of ``ringpair.__all__``, so a float
parameter added later fails the walk until the table covers it.
"""

from __future__ import annotations

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
from ringpair.cli import MAX_ROWS
from ringpair.enhancement import MAX_SPECTRUM_POINTS, spectrum_csv
from ringpair.errors import require_count
from ringpair.nonlinear import pump_pair
from ringpair.quadrature import integrate_adaptive
from ringpair.record import replace

from conftest import make_device, process_band

NON_FINITE = (math.nan, math.inf, -math.inf)
# The domain markers of ringpair.record: a float field annotated with one
# is checked by the generated constructor.
DOMAINS = ("Positive", "NonNegative", "Finite")


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
        for name, annotation in type(obj).__annotations__.items():
            kind = type(obj).__name__
            if annotation in ("float", "complex", "float | None", *DOMAINS):
                cases.append(pytest.param(obj, name, None, id=f"{kind}.{name}"))
            elif annotation == "tuple[float, float]":
                for i in (0, 1):
                    cases.append(pytest.param(obj, name, i, id=f"{kind}.{name}[{i}]"))
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
        replace(obj, **{name: value})


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
    comb2 = rp.resonance_comb(dev.ring2, wg, band, owner=2)
    res = cfg.res_s
    field = CmtField("IN", dev.kappa, length)
    pulse = PumpDrive(photon_number=1.0, pulse_duration=1e-9)
    drive = rp.resolve_drive(dev, pulse, cfg)
    goal = DesignGoal(signal_wavelength=1.55e-6)
    budget = (5e-8, 1e-6)
    calls = {
        "CmtField.a1.z": lambda x: field.a1(x),
        "CmtField.a2.z": lambda x: field.a2(x),
        "CouplingModel.kappa_abs.gap": lambda x: dev.coupling.kappa_abs(x),
        "CouplingModel.kappa.gap": lambda x: dev.coupling.kappa(x),
        "PumpDrive.power.omega": lambda x: drive.power(x),
        "calibrate_kcal.target_rate": lambda x: rp.calibrate_kcal(dev, x, 1e-3, cfg),
        "calibrate_kcal.pump_power": lambda x: rp.calibrate_kcal(dev, 1e3, x, cfg),
        "device_combs.band[0]": lambda x: rp.device_combs(dev, (x, hi)),
        "device_combs.band[1]": lambda x: rp.device_combs(dev, (lo, x)),
        "finesse.omega": lambda x: rp.finesse(ring, wg, x),
        "fsr.omega": lambda x: rp.fsr(ring, wg, x),
        "group_index.omega": lambda x: rp.group_index(wg, x),
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
        "required_detuning.linewidth": lambda x: rp.required_detuning(goal, x),
        "resonance_comb.band[0]": lambda x: rp.resonance_comb(ring, wg, (x, hi)),
        "resonance_comb.band[1]": lambda x: rp.resonance_comb(ring, wg, (lo, x)),
        "resonant_config.band[0]": lambda x: rp.resonant_config(dev, (x, hi)),
        "resonant_config.band[1]": lambda x: rp.resonant_config(dev, (lo, x)),
        "sideband_pair.band[0]": lambda x: rp.sideband_pair(comb2, cfg, (x, hi)),
        "sideband_pair.band[1]": lambda x: rp.sideband_pair(comb2, cfg, (lo, x)),
        "sigma_from_finesse.fin": lambda x: rp.sigma_from_finesse(x),
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
        "z_overlap_integral.kappa": lambda x: rp.z_overlap_integral(x, length),
        "z_overlap_integral.length": lambda x: rp.z_overlap_integral(dev.kappa, x),
        "z_overlap_integral.delta_k": lambda x: rp.z_overlap_integral(dev.kappa, length, x),
    }
    for name in ("pair_rate_closed_form", "pair_rate_integral"):
        route = getattr(rp, name)
        calls[f"{name}.delta"] = lambda x, f=route: f(drive, res, x, 1.0, wg.v_g)
        calls[f"{name}.kcal"] = lambda x, f=route: f(drive, res, 0.0, x, wg.v_g)
        calls[f"{name}.v_g"] = lambda x, f=route: f(drive, res, 0.0, 1.0, x)
    calls["pair_rate_integral.omega_s2"] = lambda x: rp.pair_rate_integral(
        drive, res, 0.0, 1.0, wg.v_g, x
    )
    # A calibration constant, a calibration target or a finesse out of
    # range is a numeric-domain error; every other bad argument is input.
    non_physical = {
        "calibrate_kcal.target_rate", "calibrate_kcal.pump_power", "noise_budget.kcal",
        "pair_rate_closed_form.kcal", "pair_rate_integral.kcal", "pair_rate_integral.omega_s2",
        "sigma_from_finesse.fin",
    }
    return {
        key: (call, NonPhysical if key in non_physical else ValueError)
        for key, call in calls.items()
    }


ARGUMENT_CALLS = _argument_calls()

# The loaded Q is a property of RacetrackSpec, so it has no signature for the
# table above to cover; a non-finite Q must still never reach the parallel sum.
_RING = make_device().ring1
PROPERTY_CALLS = {
    "q_loaded.q_intrinsic": (lambda x: replace(_RING, q_intrinsic=x).q_loaded, ValueError),
    "q_loaded.q_coupling": (lambda x: replace(_RING, q_coupling=x).q_loaded, ValueError),
}
# integrate_adaptive left ringpair.__all__, so the table above does not
# cover it; the tests' reference integrator still refuses non-finite input.
MODULE_CALLS = {
    f"integrate_adaptive.{name}": (call, ValueError) for name, call in (
        ("lo", lambda x: integrate_adaptive(np.exp, x, 1.0, 1e-9)),
        ("hi", lambda x: integrate_adaptive(np.exp, 0.0, x, 1e-9)),
        ("abs_tol", lambda x: integrate_adaptive(np.exp, 0.0, 1.0, x)),
    )
}
# effective_index and dc_transfer left the package; their routes, k c / w
# and the OUT field at the coupler's end, still refuse non-finite input.
_DEV = make_device()
_WG = _DEV.waveguide
REMOVED_CALLS = {
    "effective_index.omega": (lambda x: rp.wavevector(_WG, x) * rp.geometry.C_VACUUM / x,
                              ValueError),
    "dc_transfer.kappa": (lambda x: CmtField("OUT", x, _DEV.dc_length).a2(_DEV.dc_length),
                          ValueError),
    "dc_transfer.length": (lambda x: CmtField("OUT", _DEV.kappa, x).a2(x), ValueError),
}
CHECKED_CALLS = {**ARGUMENT_CALLS, **PROPERTY_CALLS, **MODULE_CALLS, **REMOVED_CALLS}


@pytest.mark.parametrize("key", CHECKED_CALLS)
@pytest.mark.parametrize("bad", NON_FINITE, ids=("nan", "+inf", "-inf"))
def test_non_finite_argument_rejected(key, bad):
    call, error = CHECKED_CALLS[key]
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


# Not counts, though operator.index takes True and int() takes "2" and 2.0.
BAD_COUNTS = (1.5, 2.0, True, np.True_, "2", np.array([2]))


@pytest.mark.parametrize("bad", [
    1000.0, 1000.5, math.nan, "1000", True, None, 1.5, 2.0, "2",
    pytest.param(np.True_, id="np.True_"), pytest.param(np.array([2]), id="array([2])"),
])
def test_spectrum_point_count_must_be_an_int(bad):
    # A float, a string or a bool is refused as input, not left to numpy.
    dev = make_device()
    with pytest.raises(ValueError, match="n_points"):
        rp.intensity_spectrum(dev, process_band(dev), bad)


_DEV = make_device()
# name -> (call taking the count, a valid count): each public count but
# DesignGoal.pump_separation, whose refusals TestDesignGoal lists.
COUNT_CALLS = {
    "solve_gap_for_uncoupling.m_order": (
        lambda n: rp.solve_gap_for_uncoupling(_DEV.coupling, _DEV.dc_length, n), 2),
    "resonant_config.pump_separation": (
        lambda n: resonant_config(_DEV, process_band(_DEV), pump_separation=n), 2),
    "spectrum_csv.n_points": (lambda n: spectrum_csv(_DEV, process_band(_DEV), n), 101),
    "pump_pair.separation": (
        lambda n: pump_pair(rp.device_combs(_DEV, process_band(_DEV))[0], 1.2e15, n), 2),
}


@pytest.mark.parametrize("key", COUNT_CALLS)
@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
def test_count_must_be_a_whole_number(key, bad):
    # m_order = 1.5 used to give the gap where |kappa| L = 1.5 pi, which
    # isolates 0 dB; pump_separation = 2.0 failed later with a TypeError.
    call, _ = COUNT_CALLS[key]
    with pytest.raises(ValueError, match=f"{key.split('.')[1]} must be an integer"):
        call(bad)


INT_CALLS = {
    **COUNT_CALLS,
    "DesignGoal.pump_separation": (
        lambda n: DesignGoal(signal_wavelength=1.55e-6, pump_separation=n).pump_separation, 4),
}


@pytest.mark.parametrize("key", INT_CALLS)
def test_numpy_integer_count_gives_the_int_result(key):
    call, good = INT_CALLS[key]
    got = call(np.int64(good))
    assert got == call(good) and type(got) is type(call(good))


@pytest.mark.parametrize(
    "name, lo, hi",
    [("--points", 2, MAX_ROWS), ("n_points", 2, MAX_SPECTRUM_POINTS), ("m_order", 1, math.inf)],
)
def test_count_range_is_closed(name, lo, hi):
    assert require_count(name, np.int64(lo), lo, hi) == lo
    bounds = f"at least {lo}" if hi == math.inf else f"between {lo} and {hi}"
    with pytest.raises(ValueError, match=f"^{name} must be {bounds}, got {lo - 1}$"):
        require_count(name, lo - 1, lo, hi)
    if hi == math.inf:
        assert require_count(name, 2**64, lo, hi) == 2**64
    else:
        assert require_count(name, hi, lo, hi) == hi
        with pytest.raises(ValueError, match=f"^{name} must be {bounds}, got {hi + 1}$"):
            require_count(name, hi + 1, lo, hi)
