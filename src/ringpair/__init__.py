"""Frequency-domain design tools for a linearly uncoupled racetrack pair.

Two racetrack resonators share one directional coupler whose length is
set to a multiple of the full beat period, so no light crosses between
the rings linearly, while the third-order nonlinearity of the shared
section still couples them parametrically. This package models the
linear transfer, the resonant field enhancement, the nonlinear overlap
figure, the photon-pair rates with their parasitic side-band
suppression, and the design rules that tie it all together.

The public names resolve lazily (PEP 562): ``_NAMES`` maps each module
to the names it provides, and the first access to a name imports its
module and binds the value here. ``dir()`` and ``import *`` list every
name in ``__all__``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# No command imports quadrature, yet the benchmark's tracer patches
# ringpair.quadrature.integrate_adaptive right after ``import ringpair.cli``,
# so the package keeps loading it.
from . import quadrature

_NAMES = {
    "design": (
        "CompensationResult", "DesignGoal", "DesignReport", "RuleCheck", "TuneResult",
        "evaluate_design", "null_kerr_metric", "optimal_dc_length", "optimize_device",
        "required_detuning", "solve_gap_for_uncoupling", "tune_for_energy_conservation",
        "xpm_spm_compensation",
    ),
    "deviceio": (
        "SCHEMA_VERSION", "device_from_dict", "device_to_dict", "load_device", "save_device",
        "write_text_atomic",
    ),
    "enhancement": (
        "EnhancementProfile", "SpectrumResult", "intensity_spectrum", "lorentzian_response",
        "peak_amplitude", "ring_profiles", "spectrum_to_csv",
    ),
    "errors": (
        "EmptyBand", "Infeasible", "MissingResonance", "NoConvergence", "NonPhysical",
        "OutOfRange", "RingpairError", "ValidityExceeded",
    ),
    "geometry": (
        "CouplingModel", "DeviceSpec", "RacetrackSpec", "Resonance", "WaveguideParams",
        "device_combs", "effective_index", "finesse", "fsr", "group_index", "resonance_comb",
        "round_trip_phase", "wavevector",
    ),
    "kernels": (),
    "linear_cmt": (
        "CmtField", "DcTransfer", "dc_transfer", "isolation_db", "kerr_delta_beta",
        "kerr_detuned_efficiency", "kerr_validity_metric",
    ),
    "nonlinear": (
        "OverlapResult", "ProcessConfig", "j_quadrature", "j_single_ring_baseline",
        "j_single_ring_ratio", "resonant_config", "z_overlap_integral",
    ),
    "quadrature": ("integrate_adaptive",),
    "record": (),
    "sfwm": (
        "PairRateReport", "PumpDrive", "calibrate_kcal", "noise_budget",
        "pair_rate_closed_form", "pair_rate_integral", "resolve_drive", "sideband_pair",
        "sigma_from_finesse", "suppression_factor",
    ),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_NAMES, *_OWNER]


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it here; a name is bound by hand.
    value = _import_module(f"{__name__}.{module}")
    if name in _OWNER:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
