"""The public names of ``ringpair``: a name joins or leaves only on purpose.

A change that adds or drops a public name edits ``PUBLIC`` in the same
change. ``REMOVED`` holds names that went, each with the route that
replaces it, so that none of them comes back as a second entry point.
"""

from __future__ import annotations

import importlib

import pytest

import ringpair

PUBLIC = (
    "CmtField", "CompensationResult", "CouplingModel", "DcTransfer", "DesignGoal",
    "DesignReport", "DeviceSpec", "EmptyBand", "EnhancementProfile", "Infeasible",
    "MissingResonance", "NoConvergence", "NonPhysical", "OutOfRange", "OverlapResult",
    "PairRateReport", "ProcessConfig", "PumpDrive", "RacetrackSpec",
    "Resonance", "RingpairError", "RuleCheck", "SCHEMA_VERSION", "SpectrumResult",
    "TuneResult", "ValidityExceeded", "WaveguideParams",
    "calibrate_kcal", "dc_transfer", "device_combs", "device_from_dict", "device_to_dict",
    "effective_index", "evaluate_design", "finesse", "fsr", "group_index",
    "integrate_adaptive", "intensity_spectrum", "isolation_db", "j_quadrature",
    "j_single_ring_baseline", "j_single_ring_ratio", "kerr_delta_beta",
    "kerr_detuned_efficiency", "kerr_validity_metric", "load_device", "lorentzian_response",
    "noise_budget", "null_kerr_metric", "optimal_dc_length", "optimize_device",
    "pair_rate_closed_form", "pair_rate_integral", "peak_amplitude",
    "required_detuning", "resolve_drive", "resonance_comb", "resonant_config",
    "ring_profiles", "round_trip_phase", "save_device", "sideband_pair",
    "sigma_from_finesse", "solve_gap_for_uncoupling", "spectrum_to_csv",
    "suppression_factor", "tune_for_energy_conservation", "wavevector",
    "write_text_atomic", "xpm_spm_compensation", "z_overlap_integral",
    # The modules themselves.
    "design", "deviceio", "enhancement", "errors", "geometry", "kernels", "linear_cmt",
    "nonlinear", "quadrature", "record", "sfwm",
)

# Removed name -> the route that computes the same quantity.
REMOVED = {
    "sideband_detuning": "sideband_pair(comb, cfg, band)[0], both pumps' detunings",
    "solve_dc_fields": "CmtField('IN', kappa, length) and CmtField('OUT', kappa, length)",
    "enhancement_factor": "j_quadrature(device, cfg).enhancement_product",
    "PairRateReport.per_second": "ringpair.sfwm.per_second(beta_sq, report.pulse_duration)",
    "DeviceSpec.kappa_abs": "abs(device.kappa)",
    "SpectrumResult.comb1": "device_combs(device, band)[0]",
    "SpectrumResult.comb2": "device_combs(device, band)[1]",
    "QuadratureFailure": "NoConvergence, which integrate_adaptive raises",
    "CmtField.degenerate": "abs(field.kappa) == 0",
    "q_loaded": "RacetrackSpec(...).q_loaded",
}

MODULES = ("cli", "design", "deviceio", "enhancement", "errors", "geometry", "kernels",
           "linear_cmt", "nonlinear", "quadrature", "record", "sfwm")


def test_public_names_are_the_listed_ones():
    assert sorted(ringpair.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("dotted", sorted(REMOVED))
def test_removed_name_is_defined_nowhere(dotted):
    owner, _, name = dotted.rpartition(".")
    for module in (ringpair, *(importlib.import_module(f"ringpair.{m}") for m in MODULES)):
        holder = getattr(module, owner, None) if owner else module
        assert not hasattr(holder, name), f"{dotted} is back in {module.__name__}"
