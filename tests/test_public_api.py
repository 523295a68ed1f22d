"""The public names of ``ringpair``: a name joins or leaves only on purpose.

A change that adds or drops a public name edits ``PUBLIC`` in the same
change. ``REMOVED`` holds names that went, each with the route that
replaces it, so that none of them comes back as a second entry point.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import ringpair

from conftest import REPO

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


def _fresh(code: str):
    """JSON printed by ``code`` run in a new interpreter on this checkout."""
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] in ('ringpair', 'numpy'))"


class TestLazyNames:
    """``import ringpair`` loads a module on the first use of one of its names."""

    def test_import_loads_errors_and_quadrature_only(self):
        assert _fresh(f"import json, sys, ringpair; print(json.dumps({_LOADED}))") == [
            "ringpair", "ringpair.errors", "ringpair.quadrature"]

    def test_one_name_loads_only_its_modules_imports(self):
        loaded = _fresh("import json, sys, ringpair; ringpair.resonance_comb; "
                        f"print(json.dumps({_LOADED}))")
        assert loaded == ["ringpair", "ringpair.errors", "ringpair.geometry",
                          "ringpair.quadrature", "ringpair.record"]

    def test_every_name_is_its_modules_object(self):
        # A module name gives the module; any other name gives the object
        # its module holds, the same one the module's own code calls.
        code = (
            "import inspect, json, sys, ringpair\n"
            "wrong = []\n"
            "for name in ringpair.__all__:\n"
            "    obj = getattr(ringpair, name)\n"
            "    if inspect.ismodule(obj):\n"
            "        ok = obj is sys.modules[f'ringpair.{name}']\n"
            "    elif inspect.isfunction(obj) or inspect.isclass(obj):\n"
            "        ok = getattr(sys.modules[obj.__module__], name) is obj\n"
            "    else:\n"
            "        ok = [vars(m).get(name) is obj for n, m in sys.modules.items()\n"
            "              if n.startswith('ringpair.') and name in vars(m)] == [True]\n"
            "    if not ok or vars(ringpair)[name] is not obj:\n"
            "        wrong.append(name)\n"
            "print(json.dumps(wrong))"
        )
        assert _fresh(code) == []

    def test_dir_and_star_import_list_every_name(self):
        code = (
            "import json, ringpair\n"
            "listed = set(dir(ringpair))\n"
            "ns = {}\n"
            "exec('from ringpair import *', ns)\n"
            "names = ringpair.__all__\n"
            "print(json.dumps([sorted(set(names) - listed),\n"
            "                  [n for n in names if ns.get(n) is not getattr(ringpair, n)],\n"
            "                  sorted(set(ns) - set(names) - {'__builtins__'})]))"
        )
        assert _fresh(code) == [[], [], []]

    def test_unknown_name_raises_attribute_error(self):
        code = (
            "import json, ringpair\n"
            "out = [hasattr(ringpair, 'no_such_name'), hasattr(ringpair, 'cli')]\n"
            "try:\n"
            "    ringpair.no_such_name\n"
            "except AttributeError as exc:\n"
            "    out.append(str(exc))\n"
            "try:\n"
            "    from ringpair import no_such_name\n"
            "except ImportError as exc:\n"
            "    out.append(type(exc).__name__)\n"
            "print(json.dumps(out))"
        )
        assert _fresh(code) == [
            False, False, "module 'ringpair' has no attribute 'no_such_name'", "ImportError"]
