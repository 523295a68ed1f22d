"""Command line behavior: artifacts, exit codes, and unit parsing."""

from __future__ import annotations

import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c as c0

from ringpair import (
    DesignGoal,
    PumpDrive,
    cli,
    deviceio,
    load_device,
    noise_budget,
    resonant_config,
    xpm_spm_compensation,
)
from ringpair.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_ROWS,
    SWEEP_REPORTS,
    main,
    parse_frequency,
)
from ringpair.design import KERR_CEILING, _tune_diagnostics
from ringpair.deviceio import FILE_FORMAT
from ringpair.geometry import C_VACUUM, TWO_PI
from ringpair.nonlinear import j_quadrature

from conftest import DEVICE_JSON, README_COMMANDS, REPO, make_device, write_device

DEV = str(DEVICE_JSON)
BAND = ["192THz", "195THz"]


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def load_json(text):
    """Parse JSON, refusing NaN, Infinity and -Infinity, which
    ``json.dumps`` writes for a non-finite float: every artifact, error
    object and device file read here must hold finite numbers only."""
    return json.loads(text, parse_constant=_refuse_constant)


# Every (section, file key, record field) of the device-file format.
FORMAT_ROWS = [
    (section, key, field)
    for section, rows in FILE_FORMAT.items()
    for key, field, _, _ in rows
]
# A valid value off the shipped device for each key where scaling the
# shipped value does not do; every other key is swept to 1.001 times it.
OFF_SHIPPED = {"gvd_s2_per_m": 1e-25, "heater_shift_hz": 1e9, "phase_rad": 0.1,
               "length_m": 4.7e-5}


# Artifact keys: the fields of the library's result record plus the
# numbers the command derives from it.
RATES_KEYS = {
    "beta_sq_signal", "beta_sq_parasitic", "suppression", "snr_improvement", "detuning_delta",
    "kcal", "sigma", "pulse_duration", "notes", "rate_signal_per_s", "rate_parasitic_per_s",
}
KERR_KEYS = {
    "induced_shift", "compensation", "kerr_metric", "delta_beta", "notes", "metric_limit",
    "crosstalk_at_null", "isolation_db_cold",
}
REPORT_KEYS = {
    "passed", "rules", "j_abs", "j_ratio", "isolation_db", "uncoupling_order", "suppression",
    "detuning", "kerr_metric", "notes",
}
RULE_KEYS = {"name", "passed", "value", "limit", "detail"}

# (section, key, scale, command, message phrase): device leaves whose
# scaled value used to end in a traceback (exit 1), a non-finite
# artifact or, for n_g, a misleading exit 2 after an overflow, and a
# phrase of the NonPhysical message each now gives.
SIGNAL = ["--signal", "1550nm", "--suppression", "1e-3"]
RANGE_CASES = {
    "n-bar-tiny-overlap": ("waveguide", "n_bar", 1e-200, ["overlap", "--band", *BAND], "n_bar^4"),
    "n-bar-tiny-optimize": ("waveguide", "n_bar", 1e-200, ["optimize", *SIGNAL], "n_bar^4"),
    "n-bar-huge-overlap": ("waveguide", "n_bar", 1e200, ["overlap", "--band", *BAND], "n_bar^4"),
    "n-bar-huge-optimize": ("waveguide", "n_bar", 1e200, ["optimize", *SIGNAL], "n_bar^4"),
    "ring1-qc-tiny-optimize": ("ring1", "q_coupling", 1e-200, ["optimize", *SIGNAL],
                               "loaded Q"),
    "ring1-qi-tiny-optimize": ("ring1", "q_intrinsic", 1e-200, ["optimize", *SIGNAL],
                               "loaded Q"),
    "kappa0-huge-kerr-check": ("coupling_model", "kappa0_per_m", 1e200,
                               ["kerr-check", "--power", "0.005"], "2**53"),
    "ring2-qi-tiny-suppression": ("ring2", "q_intrinsic", 1e-200,
                                  ["suppression", "--band", *BAND], "loaded Q"),
    "ring2-qc-tiny-suppression": ("ring2", "q_coupling", 1e-200,
                                  ["suppression", "--band", *BAND], "loaded Q"),
    "freq-ref-tiny-optimize": ("waveguide", "freq_ref_hz", 1e-200, ["optimize", *SIGNAL],
                               "2^53"),
    "ring1-qi-tiny-spectrum": ("ring1", "q_intrinsic", 1e-200,
                               ["spectrum", "--band", *BAND, "--points", "101"], "loaded Q"),
    "ring1-qc-tiny-spectrum": ("ring1", "q_coupling", 1e-200,
                               ["spectrum", "--band", *BAND, "--points", "101"], "loaded Q"),
    "ring2-qi-tiny-spectrum": ("ring2", "q_intrinsic", 1e-200,
                               ["spectrum", "--band", *BAND, "--points", "101"], "loaded Q"),
    "ring2-qc-tiny-spectrum": ("ring2", "q_coupling", 1e-200,
                               ["spectrum", "--band", *BAND, "--points", "101"], "loaded Q"),
    # At n_g x 1e300, a w + b cancels to 0.0 at w_ref, so the comb finds
    # no positive round-trip phase; the group index itself is finite.
    "n-g-huge-optimize": ("waveguide", "n_g", 1e300, ["optimize", *SIGNAL],
                          "round-trip phase"),
}


# (kappa0_per_m, command, exit code): the coupler's cross power at the
# float range's edges. A coupler with no coupling has no crosstalk: at
# 1e-170 1/m the cold check divided |kappa|^2, rounded to 0, by itself (a
# ZeroDivisionError traceback), and at 1e-200 times the shipped value the
# Kerr check refused the mismatch's square (exit 4). At 1e200 times it,
# the isolation sweep wrote a number read from a phase of 3e200 rad.
KAPPA0 = load_json(DEVICE_JSON.read_text())["coupling_model"]["kappa0_per_m"]
COUPLER_CASES = {
    "kappa0-1e-170-kerr-check-cold": (1e-170, ["kerr-check", "--power", "0"], EXIT_OK),
    "kappa0-tiny-kerr-check": (KAPPA0 * 1e-200, ["kerr-check", "--power", "0.005"], EXIT_OK),
    "kappa0-huge-sweep-isolation": (KAPPA0 * 1e200, ["sweep", "--param", "dc.gap_m", "--list",
                                                     "3e-7", "--report", "isolation"],
                                    EXIT_NUMERICAL),
}


# Stands for the shipped device with gamma_nl 0, whose Kerr validity
# metric is 0 at every drive (see kerr_free): the drives that reach the
# float range's edges are far past the Kerr ceiling, where the rate
# commands would refuse them before any rate is formed.
KERR_FREE = "{kerr-free device}"
NO_KERR = ("waveguide", "gamma_nl_w_m", 0.0)


def kerr_free(argv, tmp_path):
    """``argv`` with KERR_FREE replaced by the path of that device, written in ``tmp_path``."""
    data = load_json(DEVICE_JSON.read_text())
    data["waveguide"]["gamma_nl_w_m"] = 0.0
    path = tmp_path / "kerr_free.json"
    path.write_text(json.dumps(data))
    return [str(path) if a == KERR_FREE else a for a in argv]


def both_q(*rings, scale):
    """Edits scaling the intrinsic and the coupling Q of each ring."""
    return tuple((ring, key, scale) for ring in rings for key in ("q_intrinsic", "q_coupling"))


# (edits, command, message phrase): devices with leaves scaled by
# (section, key, scale) edits. Scaled loaded Qs used to end in a
# ZeroDivisionError traceback or a nan artifact. n_g = 10 with
# n_eff_ref = 1.5 makes n_eff negative below about 0.82 f_ref, where the
# comb returned mode orders <= 0; n_g x 1e300 makes it negative at the
# shipped band, which exited 2 on the band's width in mode orders.
NEGATIVE_INDEX = (("waveguide", "n_g", 10.0 / 4.2), ("waveguide", "n_eff_ref", 0.625))
SPECTRUM = ["spectrum", "--band", *BAND, "--points", "101"]
MULTI_RANGE_CASES = {
    **{
        f"ring2-q-{scale:.0e}-{argv[0]}": (both_q("ring2", scale=scale), argv, "underflows")
        for scale in (1e200, 1e250, 1e300)
        for argv in (["rates", "--band", *BAND, "--photons", "5e4"],
                     ["suppression", "--band", *BAND])
    },
    **{
        f"{ring}-q-1e+300-{argv[0]}": (both_q(ring, scale=1e300), argv, "underflows")
        for ring in ("ring1", "ring2")
        for argv in (SPECTRUM, ["overlap", "--band", *BAND])
    },
    "both-rings-q-1e+160-overlap": (both_q("ring1", "ring2", scale=1e160),
                                    ["overlap", "--band", *BAND], "J must be finite"),
    # J itself overflows: about 1.4e309 for overlap, 1.2e309 for optimize.
    # At chi3 x 4e208, one decade down, J is in range and is reported
    # (TestOverlap.test_j_in_range_is_reported).
    **{
        f"both-rings-q-1e+55-chi3-4e+209-{argv[0]}": (
            (*both_q("ring1", "ring2", scale=1e55), ("waveguide", "chi3_m2_v2", 4e209)),
            argv, "J must be finite")
        for argv in (["overlap", "--band", *BAND, "--method", "quadrature"],
                     ["optimize", *SIGNAL])
    },
    # J underflows to 0: overlap wrote "j_abs": 0.0, and optimize's J
    # ratio would divide by it.
    **{
        f"ring1-qc-1e+200-chi3-1e-150-{argv[0]}": (
            (("ring1", "q_coupling", 1e200), ("waveguide", "chi3_m2_v2", 1e-150)),
            argv, "J underflows")
        for argv in (["overlap", "--band", *BAND], ["optimize", *SIGNAL])
    },
    # The derived self-coupling 1 - pi/finesse rounded to 1.0, which
    # PumpDrive refused as bad input (exit 2). Without gamma_nl, the ring-1
    # Q puts no Kerr metric past the ceiling first.
    **{
        f"both-rings-q-1e+100-{argv[0]}": ((*both_q("ring1", "ring2", scale=1e100), NO_KERR),
                                           argv, "rounds to 1")
        for argv in (["rates", "--band", *BAND], ["suppression", "--band", *BAND])
    },
    "negative-index-spectrum": (NEGATIVE_INDEX,
                                ["spectrum", "--band", "115THz", "117THz", "--points", "101"],
                                "round-trip phase"),
    "negative-index-overlap": (NEGATIVE_INDEX, ["overlap", "--band", "110THz", "120THz"],
                               "round-trip phase"),
    "n-g-huge-spectrum": ((("waveguide", "n_g", 1e300),), SPECTRUM, "round-trip phase"),
}


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def run_json(argv, capsys):
    """Run one command to stdout; its exit code and parsed JSON payload."""
    rc = main(argv)
    return rc, load_json(capsys.readouterr().out)


def read_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestParseFrequency:
    def test_units(self):
        assert parse_frequency("1e15") == pytest.approx(2e15 * math.pi, rel=1e-15)
        assert parse_frequency("193.4THz") == pytest.approx(
            2.0 * math.pi * 193.4e12, rel=1e-15
        )
        assert parse_frequency("250GHz") == pytest.approx(
            2.0 * math.pi * 250e9, rel=1e-15
        )
        assert parse_frequency("1550nm") == pytest.approx(
            2.0 * math.pi * c0 / 1.55e-6, rel=1e-15
        )
        assert parse_frequency("1.55um") == pytest.approx(
            parse_frequency("1550nm"), rel=1e-15
        )
        assert parse_frequency(" 5 GHz ") == parse_frequency("5GHz")

    def test_rejects(self):
        for bad in ("", "fast", "1.5parsec", "-3GHz", "0Hz", "-0Hz", "0nm", "1..2GHz",
                    "1e400THz", "1e400", "1e300THz", "1e400nm", "1e-320nm"):
            with pytest.raises(ValueError):
                parse_frequency(bad)


class TestArtifacts:
    def test_spectrum_csv_and_meta_sidecar(self, tmp_path):
        out = tmp_path / "spec.csv"
        argv = ["spectrum", "--device", DEV, "--band", *BAND, "--points", "101",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        header, rows = read_csv(out.read_text())
        assert header == ["omega_rad_s", "f1_sq", "f2_sq"]
        assert len(rows) == 101
        meta = load_json((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["tool"] == "ringpair 0.1.0"
        assert meta["argv"] == argv
        assert isinstance(meta["created_unix"], float)

    @pytest.mark.parametrize("argv", README_COMMANDS.values(), ids=README_COMMANDS.keys())
    def test_artifacts_are_deterministic(self, argv, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            rc = main([*argv, "--out", str(out)])
            assert rc == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["rates", "optimize"])
    def test_strict_changes_nothing_without_unknown_keys(self, name, tmp_path, capsys):
        # optimize writes its device to --out and its report to stdout.
        outs, stdouts = [tmp_path / "lenient", tmp_path / "strict"], []
        for out, strict in zip(outs, ([], ["--strict"])):
            rc = main([*README_COMMANDS[name], *strict, "--out", str(out)])
            assert rc == EXIT_OK
            stdouts.append(capsys.readouterr().out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert stdouts[0] == stdouts[1]

    @pytest.mark.parametrize("umask", [0o022, 0o007], ids=["umask-022", "umask-007"])
    def test_artifact_and_sidecar_modes_follow_the_umask(self, umask, tmp_path, capsys):
        # Both used to be 0600 whatever the umask: the temp file behind the
        # atomic write kept mkstemp's mode through the rename.
        out = tmp_path / "k.json"
        old = os.umask(umask)
        try:
            rc = main([*README_COMMANDS["kerr-check"], "--out", str(out)])
        finally:
            os.umask(old)
        assert rc == EXIT_OK
        for path in (out, tmp_path / "k.json.meta.json"):
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")] == []

    def test_band_spellings_agree(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
        for out, band in zip(
            outs, (["192THz", "195THz"], ["192THz:195THz"], ["195THz", "192THz"])
        ):
            rc = main(["spectrum", "--device", DEV, "--band", *band,
                       "--points", "51", "--out", str(out)])
            assert rc == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() == outs[2].read_bytes()



class TestQuietSuccess:
    @pytest.mark.parametrize("argv", README_COMMANDS.values(), ids=README_COMMANDS.keys())
    def test_success_writes_nothing_to_stderr(self, argv, tmp_path):
        # A fresh interpreter with Python's default warning filters: a
        # model-assumption note goes into the artifact, never to stderr.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ringpair.cli", *argv, "--out", str(tmp_path / "artifact")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""


# The flags more than one command or sweep report reads, per subcommand.
DRIVE_FLAGS = ["--photons", "--pulse", "--kcal", "--self-coupling"]
SHARED_FLAGS = {
    "spectrum": ["--band"],
    "overlap": ["--band", "--separation"],
    "rates": ["--band", "--separation", *DRIVE_FLAGS],
    "suppression": ["--band", "--separation", *DRIVE_FLAGS],
    "kerr-check": ["--power"],
    "optimize": ["--separation", "--photons", "--pulse"],
    "sweep": ["--band", "--separation", *DRIVE_FLAGS, "--power"],
}


class TestHelp:
    @pytest.mark.parametrize("sub", SHARED_FLAGS)
    def test_help_lists_each_flag_once(self, sub, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([sub, "--help"])
        assert exit_info.value.code == EXIT_OK
        text = capsys.readouterr().out
        # Option headings are indented two spaces; wrapped help text further.
        headings = re.findall(r"^  (--[\w-]+)", text, re.MULTILINE)
        assert len(headings) == len(set(headings))
        shared = set().union(*SHARED_FLAGS.values())
        assert [h for h in headings if h in shared] == SHARED_FLAGS[sub]
        assert {"--device", "--out", "--strict"} <= set(headings)

    def test_sweep_report_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "--report {isolation,kerr,suppression,rates}" in capsys.readouterr().out

    def test_defaults_come_from_the_library(self):
        # Every default a command applies is read from its owner in the
        # library: the design goal, the pump separation and the uncalibrated
        # K. The Kerr ceiling is no default: no command takes a flag for it.
        parser = cli.build_parser()
        dev = ["--device", DEV]
        opt = parser.parse_args(["optimize", *dev, "--signal", "1550nm"])
        goal = DesignGoal(signal_wavelength=1.55e-6)
        assert (opt.separation, opt.suppression, opt.min_isolation,
                (opt.gap_min, opt.gap_max)) == (goal.pump_separation,
                                                goal.min_parasitic_suppression,
                                                goal.min_isolation_db, goal.gap_budget)
        rates = parser.parse_args(["rates", *dev, "--band", *BAND])
        assert rates.separation == _default(resonant_config, "pump_separation")
        assert rates.kcal == _default(noise_budget, "kcal")


class TestOverlap:
    def test_json_shape(self, capsys):
        rc = main(["overlap", "--device", DEV, "--band", *BAND])
        assert rc == EXIT_OK
        payload = load_json(capsys.readouterr().out)
        assert set(payload) == {
            "j_abs", "j_phase", "z_factor_abs", "enh_abs", "method", "warnings",
        }
        assert payload["method"] == "quadrature"
        assert payload["j_abs"] > 0.0
        assert isinstance(payload["warnings"], list)

    def test_strict_mode_on_clean_device(self, tmp_path, capsys):
        # --strict only rejects unknown device-file keys; a file with
        # none gives the artifact, with no note.
        path = tmp_path / "aligned.json"
        write_device(make_device(l2_scale=1.0, n_eff=4.2), path)
        rc = main(["overlap", "--device", str(path), "--band", *BAND, "--strict"])
        assert rc == EXIT_OK
        payload = load_json(capsys.readouterr().out)
        assert payload["warnings"] == []

    def test_closed_form_method_is_gone(self, capsys):
        # quadrature is the one J; the flag stays for the command lines
        # that name it.
        with pytest.raises(SystemExit) as exit_info:
            main(["overlap", "--device", DEV, "--band", *BAND, "--method", "closed-form"])
        assert exit_info.value.code == EXIT_VALIDATION
        assert "invalid choice: 'closed-form'" in capsys.readouterr().err

    def test_method_flag_changes_nothing(self, tmp_path):
        outs = [tmp_path / "flag.json", tmp_path / "bare.json"]
        assert main([*README_COMMANDS["overlap"], "--out", str(outs[0])]) == EXIT_OK
        bare = [a for a in README_COMMANDS["overlap"] if a not in ("--method", "quadrature")]
        assert main([*bare, "--out", str(outs[1])]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_readme_enhancement_product_is_one(self, tmp_path):
        # Every field sits on its line centre, where the unit line shape is
        # exactly -1j, so the product of the four has magnitude exactly 1.
        out = tmp_path / "overlap.json"
        assert main([*README_COMMANDS["overlap"], "--out", str(out)]) == EXIT_OK
        assert load_json(out.read_text())["enh_abs"] == 1.0

    @pytest.mark.parametrize(
        "q_scale, chi3_scale, j_scales",
        [(1e160, 1e-100, (1e220,)), (1e55, 4e208, (1e110, 4e208))],
        ids=["both-rings-q-1e+160-chi3-1e-100", "both-rings-q-1e+55-chi3-4e+208"],
    )
    def test_j_in_range_is_reported(self, q_scale, chi3_scale, j_scales, tmp_path, capsys):
        # Each field grows as sqrt(Q), so J grows as Q^2 * chi3. The
        # running product used to overflow to inf, and inf * 0 gave
        # J = nan+nanj: exit 4 on a J inside the float range.
        data = load_json(DEVICE_JSON.read_text())
        for section, key, scale in (*both_q("ring1", "ring2", scale=q_scale),
                                    ("waveguide", "chi3_m2_v2", chi3_scale)):
            data[section][key] *= scale
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data))
        assert main(["overlap", "--device", DEV, "--band", *BAND]) == EXIT_OK
        want = load_json(capsys.readouterr().out)["j_abs"]
        for scale in j_scales:
            want *= scale
        assert main(["overlap", "--device", str(path), "--band", *BAND]) == EXIT_OK
        assert load_json(capsys.readouterr().out)["j_abs"] == pytest.approx(want, rel=1e-13)


class TestRates:
    def test_rates_payload(self, capsys):
        rc = main(["rates", "--device", DEV, "--band", *BAND, "--photons", "5e4"])
        assert rc == EXIT_OK
        payload = load_json(capsys.readouterr().out)
        assert payload["beta_sq_signal"] > 0.0
        assert payload["rate_signal_per_s"] == pytest.approx(
            payload["beta_sq_signal"] / payload["pulse_duration"], rel=1e-12
        )
        assert len(payload["beta_sq_parasitic"]) == 2
        assert len(payload["suppression"]) == 2
        for s, g in zip(payload["suppression"], payload["snr_improvement"]):
            assert g == pytest.approx(1.0 / s, rel=1e-12)
        assert 0.0 < payload["sigma"] < 1.0

    def test_suppression_csv(self, capsys):
        rc = main(["suppression", "--device", DEV, "--band", *BAND,
                   "--points", "5", "--max-detuning", "2"])
        assert rc == EXIT_OK
        header, rows = read_csv(capsys.readouterr().out)
        assert header == [
            "delta_over_linewidth", "suppression", "signal_rate", "parasitic_rate",
        ]
        assert [r[0] for r in rows] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
        for x, sup, _signal, _par in rows:
            assert sup == pytest.approx(1.0 / (1.0 + x * x), rel=1e-12)
        base = rows[0][3]
        for x, sup, _signal, par in rows:
            # The parasitic rate tracks the suppression law; the tiny
            # slack covers the slowly varying frequency factor.
            assert par / base == pytest.approx(sup, rel=1e-3)

    def test_far_negative_detuning_writes_finite_rates(self, capsys):
        # delta**2 overflows 1e200 linewidths below the line, and the closed
        # form refused the finite rate there with exit 4. Far out the rate
        # falls as fwhm^2 / delta^2 * |delta| / omega_s, so it halves as
        # the detuning doubles.
        rc = main(["suppression", "--device", DEV, "--band", *BAND,
                   "--points", "3", "--max-detuning", "-1e200"])
        assert rc == EXIT_OK
        _header, rows = read_csv(capsys.readouterr().out)
        assert [r[1] for r in rows] == [1.0, 0.0, 0.0]
        (_, _, signal, _), (_, _, _, half_way), (_, _, _, far) = rows
        assert all(r[2] == signal for r in rows)
        assert far == pytest.approx(9.43e-185, rel=1e-3)
        assert far / half_way == pytest.approx(0.5, rel=1e-14)

    def test_negative_sweep_end_writes_no_minus_zero(self, capsys):
        # A negative end sweeps the detuning below zero; its first row is 0.
        rc = main(["suppression", "--device", DEV, "--band", *BAND,
                   "--points", "3", "--max-detuning", "-60"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("0,")
        assert [r[0] for r in read_csv("\n".join(lines))[1]] == [0.0, -30.0, -60.0]


    RATES = ["rates", "--device", DEV, "--band", *BAND, "--pulse", "1e-9"]

    def test_tiny_kcal_scales_the_rates(self, capsys):
        # At --kcal 1e-300 the prefactor underflowed on the way, and rates
        # wrote beta_sq_signal 0.0 with exit 0. Rates are linear in kcal.
        _rc, unit = run_json([*self.RATES, "--photons", "5e4"], capsys)
        rc, tiny = run_json([*self.RATES, "--photons", "5e4", "--kcal", "1e-300"], capsys)
        assert rc == EXIT_OK
        for key in ("beta_sq_signal", "rate_signal_per_s"):
            assert tiny[key] == pytest.approx(1e-300 * unit[key], rel=1e-14, abs=0.0)
        for key in ("beta_sq_parasitic", "rate_parasitic_per_s"):
            assert tiny[key] == pytest.approx([1e-300 * b for b in unit[key]], rel=1e-14,
                                              abs=0.0)

    def test_tiny_kcal_scales_the_suppression_rates(self, capsys):
        # suppression wrote 0 in both rate columns at --kcal 1e-300.
        argv = ["suppression", "--device", DEV, "--band", *BAND, "--photons", "5e4",
                "--points", "3"]
        assert main(argv) == EXIT_OK
        _header, unit = read_csv(capsys.readouterr().out)
        assert main([*argv, "--kcal", "1e-300"]) == EXIT_OK
        _header, tiny = read_csv(capsys.readouterr().out)
        for row_unit, row_tiny in zip(unit, tiny):
            assert row_tiny[:2] == row_unit[:2]
            assert row_tiny[2:] == pytest.approx([1e-300 * r for r in row_unit[2:]], rel=1e-14,
                                                 abs=0.0)

    def test_huge_photons_with_tiny_kcal_report_the_rate(self, tmp_path, capsys):
        # --photons 1e160 --kcal 1e-100 exited 4: photons**2 overflowed
        # though the rate, about 9.91e229, is that of 1e150 and 1e-80.
        rates = kerr_free([KERR_FREE if a == DEV else a for a in self.RATES], tmp_path)
        rc, huge = run_json([*rates, "--photons", "1e160", "--kcal", "1e-100"], capsys)
        assert rc == EXIT_OK
        _rc, ref = run_json([*rates, "--photons", "1e150", "--kcal", "1e-80"], capsys)
        assert huge["beta_sq_signal"] == pytest.approx(9.91e229, rel=1e-3)
        assert huge["beta_sq_signal"] == pytest.approx(ref["beta_sq_signal"], rel=1e-14)
        assert huge["beta_sq_parasitic"] == pytest.approx(ref["beta_sq_parasitic"], rel=1e-14)


class TestSidebandPartner:
    """The side-band partner is the nearest ring-2 line, never only the
    nearest line inside the band typed."""

    NARROW = ["--band", "192.5THz", "194.5THz"]
    SHIFT = ["--param", "ring2.heater_shift_hz", "--list", "6e10"]

    @staticmethod
    def shifted_device(tmp_path):
        data = load_json(DEVICE_JSON.read_text())
        data["ring2"]["heater_shift_hz"] = 6e10
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("report", ["rates", "sweep-rates", "sweep-suppression"])
    def test_band_short_of_the_nearest_partner_is_refused(self, report, tmp_path, capsys):
        # Pump 2's nearest partner is at 192.496 THz, 4 GHz below the band;
        # the nearest line inside the band is 2.1e12 rad/s farther off.
        if report == "rates":
            argv = ["rates", "--device", self.shifted_device(tmp_path), "--photons", "5e4"]
        else:
            argv = ["sweep", "--device", DEV, *self.SHIFT, "--report", report[6:]]
        out = tmp_path / "out"
        assert main([*argv, *self.NARROW, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "MissingResonance"
        assert "side-band point" in err["message"]

    def test_band_that_reaches_the_partner_finds_it(self, tmp_path, capsys):
        rc, payload = run_json(["rates", "--device", self.shifted_device(tmp_path),
                                "--band", *BAND, "--photons", "5e4"], capsys)
        assert rc == EXIT_OK
        assert payload["detuning_delta"][1] == 1040861181908.75


class TestKerrCheck:
    @pytest.fixture()
    def si_device(self, tmp_path):
        path = tmp_path / "si.json"
        write_device(
            make_device(gamma=200.0, n_g=3.0, n_eff=2.4, lambda_ref=1.5e-6), path
        )
        return str(path)

    def test_metric_value(self, si_device, capsys):
        rc = main(["kerr-check", "--device", si_device, "--power", "0.005"])
        assert rc == EXIT_OK
        payload = load_json(capsys.readouterr().out)
        assert payload["kerr_metric"] == pytest.approx(0.00625, rel=1e-9)
        assert payload["metric_limit"] == KERR_CEILING
        assert payload["isolation_db_cold"] == 200.0
        assert 0.0 <= payload["crosstalk_at_null"] < 1e-4
        assert payload["induced_shift"][1] == 0.0

    def test_budget_overrun_is_infeasible(self, si_device, capsys):
        # 0.05 W gives a metric of 0.0625, past the ceiling 0.05.
        rc = main(["kerr-check", "--device", si_device, "--power", "0.05"])
        assert rc == EXIT_INFEASIBLE
        err = load_json(capsys.readouterr().err)
        assert err["code"] == EXIT_INFEASIBLE
        assert err["context"]["error"] == "ValidityExceeded"
        assert err["message"] == "Kerr validity metric 0.0625 exceeds the ceiling 0.05"

    @pytest.mark.parametrize("argv", [
        ["kerr-check", "--device", DEV, "--power", "0.005", "--max-metric", "0.1"],
        ["optimize", "--device", DEV, "--signal", "1550nm", "--max-kerr", "0.1"],
    ], ids=["kerr-check", "optimize"])
    def test_the_ceiling_takes_no_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_VALIDATION
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


class TestOptimize:
    def test_stdout_payload_and_device_file(self, tmp_path, capsys):
        out = tmp_path / "tuned.json"
        rc = main(["optimize", "--device", DEV, "--signal", "1550nm",
                   "--suppression", "1e-3", "--out", str(out)])
        assert rc == EXIT_OK
        payload = load_json(capsys.readouterr().out)
        assert set(payload) == {"device", "report"}
        assert payload["report"]["passed"] is True
        assert payload["report"]["isolation_db"] == 200.0
        assert payload["report"]["uncoupling_order"] == 1
        assert (tmp_path / "tuned.json.meta.json").exists()
        # The emitted device is a plain device file, usable directly.
        rc = main(["overlap", "--device", str(out), "--band", *BAND])
        assert rc == EXIT_OK

    def test_seed_ring2_length_does_not_decide_the_design(self, tmp_path, capsys):
        # The refit replaces the seed's ring 2, so the 200 and 600 um seeds
        # exited 3 against their own FSR/2 while the shipped one passed.
        data = load_json(DEVICE_JSON.read_text())
        outs = []
        for straight in (data["ring2"]["straight_len_m"], 2e-4, 6e-4):
            data["ring2"]["straight_len_m"] = straight
            seed, out = tmp_path / f"seed-{straight}.json", tmp_path / f"tuned-{straight}.json"
            seed.write_text(json.dumps(data))
            rc = main(["optimize", "--device", str(seed), "--signal", "1550nm",
                       "--suppression", "1e-3", "--out", str(out)])
            assert rc == EXIT_OK
            assert load_json(capsys.readouterr().out)["report"]["passed"] is True
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_goal_past_the_built_rings_frontier_exits_3(self, tmp_path, capsys):
        # 3e-4 needs about 1.4e12 rad/s. The shipped seed's R2 = 15 um is
        # past R1(M - 1)/M = 7.5 um, so the refit builds the longer ring,
        # whose frontier M*F1/(2M + 1) is 9.5e11; it exited 0 with a failed
        # rule. With R2 = 7.5 um the shorter ring (1.59e12) holds the coupler.
        rc = main(["optimize", "--device", DEV, "--signal", "1550nm", "--suppression", "3e-4"])
        assert rc == EXIT_INFEASIBLE
        message = load_json(capsys.readouterr().err)["message"]
        assert "M*F1/(2M + 1) = 9.51506e+11 rad/s" in message
        assert "R2 <= 7.50006e-06 m (R1(M - 1)/M" in message and "R2 is 1.5e-05 m" in message
        data = load_json(DEVICE_JSON.read_text())
        data["ring2"]["bend_radius_m"] = 7.5e-6
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(data))
        rc, payload = run_json(["optimize", "--device", str(seed), "--signal", "1550nm",
                                "--suppression", "3e-4"], capsys)
        assert rc == EXIT_OK
        assert payload["report"]["passed"] is True
        assert max(payload["report"]["suppression"]) <= 3e-4

    @pytest.mark.parametrize("pulse", ["nan", "-1", "inf", "2e-9"])
    def test_pulse_without_photons_is_refused(self, pulse, tmp_path, capsys):
        # No drive is built without --photons, so --pulse was dropped unread.
        report = tmp_path / "r.json"
        rc = main(["optimize", "--device", DEV, "--signal", "1550nm", "--suppression", "1e-3",
                   "--pulse", pulse, "--report", str(report)])
        assert rc == EXIT_VALIDATION
        assert not report.exists()
        message = load_json(capsys.readouterr().err)["message"]
        assert "--pulse" in message and "--photons" in message

    def test_pulse_with_photons_is_read(self, capsys):
        rc = main(["optimize", "--device", DEV, "--signal", "1550nm", "--suppression", "1e-3",
                   "--photons", "1e4", "--pulse", "nan"])
        assert rc == EXIT_VALIDATION
        assert "pulse_duration" in load_json(capsys.readouterr().err)["message"]
        runs = [run_json(["optimize", "--device", DEV, "--signal", "1550nm",
                          "--suppression", "1e-3", "--photons", "1e4", *pulse], capsys)
                for pulse in ([], ["--pulse", "1e-9"], ["--pulse", "2e-9"])]
        assert [rc for rc, _ in runs] == [EXIT_OK] * 3
        # The default is the rates default, and a given pulse reaches the drive.
        assert runs[0][1] == runs[1][1] != runs[2][1]

    def test_huge_pump_coupling_q_reports_j(self, tmp_path, capsys):
        # Ring-1 coupling Q x 1e200 exited 4: sqrt(q_c1 * q_c2) overflowed
        # and the closed form's quality-factor prefactor divided down to 0.
        # The reported J multiplies the fields j_quadrature multiplies.
        data = load_json(DEVICE_JSON.read_text())
        data["ring1"]["q_coupling"] *= 1e200
        path, tuned = tmp_path / "device.json", tmp_path / "tuned.json"
        path.write_text(json.dumps(data))
        rc, payload = run_json(["optimize", "--device", str(path), *SIGNAL,
                                "--out", str(tuned)], capsys)
        assert rc == EXIT_OK
        dev = load_device(tuned)
        goal = DesignGoal(signal_wavelength=TWO_PI * C_VACUUM / parse_frequency("1550nm"),
                          min_parasitic_suppression=1e-3)
        *_, cfg = _tune_diagnostics(dev, goal)
        jq = j_quadrature(dev, cfg)
        fields = abs(jq.j_value / jq.z_factor)
        assert 0.0 < payload["report"]["j_abs"] == pytest.approx(
            fields * dev.dc_length / 4.0, rel=4e-15)

    def test_infeasible_goal(self, capsys):
        rc = main(["optimize", "--device", DEV, "--signal", "1550nm",
                   "--suppression", "1e-6"])
        assert rc == EXIT_INFEASIBLE
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "Infeasible"

    def test_reported_kerr_metric_is_the_gated_one(self, tmp_path, capsys):
        # The report, the compensation gate, kerr-check and the kerr sweep
        # all evaluate the metric at the drive's power at the upper pump line
        # of the process on the written device, as the rate commands do.
        out = tmp_path / "tuned.json"
        rc, payload = run_json(["optimize", "--device", DEV, "--signal", "1545nm",
                                "--suppression", "1e-3", "--photons", "3e6",
                                "--out", str(out)], capsys)
        assert rc == EXIT_OK
        goal = DesignGoal(signal_wavelength=2.0 * math.pi * c0 / parse_frequency("1545nm"),
                          min_parasitic_suppression=1e-3)
        cfg = _tune_diagnostics(load_device(out), goal)[3]
        drive = PumpDrive(photon_number=3e6, pulse_duration=1e-9)
        power = max(drive.power(cfg.res_p1.omega0), drive.power(cfg.res_p2.omega0))
        assert power > drive.power(goal.signal_omega)
        gated = xpm_spm_compensation(load_device(out), power).kerr_metric
        report = payload["report"]
        assert report["kerr_metric"] == gated
        assert [r["value"] for r in report["rules"] if r["name"] == "kerr_budget"] == [gated]
        rc, kerr = run_json(["kerr-check", "--device", str(out), "--power", repr(power)], capsys)
        assert rc == EXIT_OK
        assert kerr["kerr_metric"] == gated
        gamma = load_json(out.read_text())["waveguide"]["gamma_nl_w_m"]
        rc = main(["sweep", "--device", str(out), "--param", "waveguide.gamma_nl_w_m",
                   "--list", repr(gamma), "--report", "kerr", "--power", repr(power)])
        assert rc == EXIT_OK
        assert read_csv(capsys.readouterr().out)[1] == [[gamma, gated]]


class TestSweep:
    def test_isolation_over_gap(self, capsys):
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m",
                   "--values", "2.8e-7", "3.2e-7", "5"])
        assert rc == EXIT_OK
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["param_value", "isolation_db"]
        assert len(rows) == 5
        mid = rows[2]
        assert mid[0] == pytest.approx(3e-7, rel=1e-12)
        assert mid[1] == 200.0
        assert all(r[1] < 200.0 for i, r in enumerate(rows) if i != 2)

    def test_field_name_alias(self, capsys):
        texts = []
        for param in ("dc.dc_length", "dc.length_m"):
            rc = main(["sweep", "--device", DEV, "--param", param,
                       "--list", "4.5e-5,4.6e-5,4.71238898038469e-5"])
            assert rc == EXIT_OK
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_suffix_fallback(self, capsys):
        texts = []
        for param in ("ring1.straight_len", "ring1.straight_len_m"):
            rc = main(["sweep", "--device", DEV, "--param", param,
                       "--list", "4.71238898038469e-5"])
            assert rc == EXIT_OK
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        header, rows = read_csv(texts[0])
        assert len(rows) == 1

    @pytest.mark.parametrize(
        "section, key, field", FORMAT_ROWS, ids=[f"{s}.{f}" for s, _, f in FORMAT_ROWS]
    )
    def test_key_and_field_spellings_agree(self, section, key, field, capsys):
        shipped = load_json(DEVICE_JSON.read_text())[section][key]
        value = repr(OFF_SHIPPED.get(key, 1.001 * shipped))
        texts = []
        for leaf in (field, key):
            # --strict rejects unknown keys, so the field spelling must
            # land on the file key rather than add an entry of its own.
            rc = main(["sweep", "--device", DEV, "--strict", "--param", f"{section}.{leaf}",
                       "--list", value, "--report", "kerr", "--power", "0.005"])
            assert rc == EXIT_OK
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert read_csv(texts[0])[1][0][0] == float(value)

    @pytest.mark.parametrize("param", ["dc.gap", "dc.length", "waveguide.freq_ref",
                                       "waveguide.chi3"])
    def test_suffix_stripped_spellings_rejected(self, param, capsys):
        rc = main(["sweep", "--device", DEV, "--param", param, "--list", "3e-7"])
        assert rc == EXIT_VALIDATION
        message = load_json(capsys.readouterr().err)["message"]
        assert param in message
        section = param.split(".")[0]
        assert all(key in message for key, _, _, _ in FILE_FORMAT[section])

    def test_unknown_section(self, capsys):
        rc = main(["sweep", "--device", DEV, "--param", "schema", "--list", "2"])
        assert rc == EXIT_VALIDATION
        message = load_json(capsys.readouterr().err)["message"]
        assert "'schema'" in message
        assert all(section in message for section in FILE_FORMAT)

    def test_unknown_parameter(self, capsys):
        rc = main(["sweep", "--device", DEV, "--param", "dc.bogus",
                   "--list", "1e-7"])
        assert rc == EXIT_VALIDATION
        err = load_json(capsys.readouterr().err)
        assert "dc.bogus" in err["message"]

    def test_comb_report_needs_band(self, capsys):
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m",
                   "--list", "3e-7", "--report", "rates"])
        assert rc == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize(
        "report, flags, named",
        [
            ("isolation", ["--kcal", "-5", "--photons", "-3", "--power", "-1"],
             ["--kcal", "--photons", "--power"]),
            ("isolation", ["--pulse", "1e-9"], ["--pulse"]),
            ("kerr", ["--power", "0.005", "--self-coupling", "0.99"], ["--self-coupling"]),
            ("suppression", ["--band", *BAND, "--photons", "1.0"], ["--photons"]),
            ("suppression", ["--band", *BAND, "--power", "0"], ["--power"]),
            ("rates", ["--band", *BAND, "--power", "0.005"], ["--power"]),
            ("isolation", ["--band", *BAND, "--separation", "5"], ["--band", "--separation"]),
            ("kerr", ["--band", *BAND, "--separation", "5"], ["--band", "--separation"]),
            ("kerr", ["--separation", "5", "--power", "0.005"], ["--separation"]),
        ],
        ids=["isolation-all", "isolation-pulse", "kerr-self-coupling", "suppression-photons",
             "suppression-power", "rates-power", "isolation-band-separation",
             "kerr-band-separation", "kerr-separation"],
    )
    def test_report_refuses_flags_it_does_not_read(self, report, flags, named, tmp_path,
                                                   capsys):
        # Each used to exit 0 and drop the flag without a word.
        out = tmp_path / "artifact"
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m", "--list", "3e-7",
                   "--report", report, *flags, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        message = load_json(capsys.readouterr().err)["message"]
        assert f"--report {report}" in message
        assert all(flag in message for flag in named)
        assert all(flag not in message for flag in flags
                   if flag.startswith("--") and flag not in named)

    @pytest.mark.parametrize(
        "report, flags",
        [
            ("isolation", []),
            ("kerr", []),
            ("kerr", ["--power", "0.005"]),
            ("suppression", ["--band", *BAND]),
            ("rates", ["--band", *BAND]),
            ("rates", ["--band", *BAND, "--photons", "5e4", "--pulse", "2e-9", "--kcal", "2.5",
                       "--self-coupling", "0.99"]),
        ],
        ids=["isolation", "kerr", "kerr-power", "suppression", "rates", "rates-drive"],
    )
    def test_report_accepts_its_own_flags(self, report, flags, capsys):
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m", "--list", "3e-7",
                   "--report", report, *flags])
        assert rc == EXIT_OK
        assert len(read_csv(capsys.readouterr().out)[1]) == 1

    def test_omitted_flags_take_their_defaults(self, capsys):
        # Leaving a flag out of sweep reads the same value rates and
        # kerr-check use by default or are given.
        base = ["sweep", "--device", DEV, "--param", "dc.gap_m", "--list", "3e-7", "--report"]
        for report, defaults in (("rates", ["--photons", "1", "--pulse", "1e-9", "--kcal", "1"]),
                                 ("kerr", ["--power", "0"])):
            band = ["--band", *BAND] if report == "rates" else []
            texts = []
            for flags in ([], defaults):
                assert main([*base, report, *band, *flags]) == EXIT_OK
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1]

    def test_negative_values_sweep_through_zero(self, capsys):
        # -1e9 is a value, not an option, in --values and in --list.
        base = ["sweep", "--device", DEV, "--param", "ring2.heater_shift_hz",
                "--report", "suppression", "--band", *BAND]
        assert main([*base, "--values", "-1e9", "1e9", "5"]) == EXIT_OK
        ranged = capsys.readouterr().out
        assert main([*base, "--list", "-1e9,-5e8,0,5e8,1e9"]) == EXIT_OK
        assert capsys.readouterr().out == ranged
        _header, rows = read_csv(ranged)
        assert [r[0] for r in rows] == [-1e9, -5e8, 0.0, 5e8, 1e9]
        # The heater moves the signal line and both partner lines rigidly,
        # so each detuning 2 w_P - w_S - w_partner falls by twice the shift.
        step = 2.0 * math.pi * 5e8
        for a, b in zip(rows, rows[1:]):
            assert b[2] - a[2] == pytest.approx(-2.0 * step, rel=1e-3)
            assert b[3] - a[3] == pytest.approx(-2.0 * step, rel=1e-3)
        assert main([*base, "--list", "0"]) == EXIT_OK
        assert read_csv(capsys.readouterr().out)[1][0] == rows[2]

    @pytest.mark.parametrize(
        "param, value, values",
        [
            ("dc.gap_m", None, ["2.8e-7", "3.2e-7", "5"]),
            ("dc.gap_m", -1, ["2.8e-7", "3.2e-7", "5"]),
            ("ring2.heater_shift_hz", None, ["0", "1e9", "3"]),
        ],
        ids=["required-key-missing", "invalid-file-value", "optional-key-missing"],
    )
    def test_file_value_at_the_swept_key_is_never_read(self, param, value, values, tmp_path,
                                                        capsys):
        section, key = param.split(".")
        data = load_json(DEVICE_JSON.read_text())
        if value is None:
            del data[section][key]
        else:
            data[section][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data), encoding="utf-8")
        texts = []
        for device in (DEV, str(edited)):
            rc = main(["sweep", "--device", device, "--param", param, "--values", *values,
                       "--report", "rates", "--band", *BAND])
            assert rc == EXIT_OK
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_device_file_is_parsed_once_per_sweep(self, monkeypatch, capsys):
        calls = []
        parse = deviceio.device_from_dict

        def counted(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        # Count at the defining module and at any binding the CLI imports.
        for module in (deviceio, cli):
            monkeypatch.setattr(module, "device_from_dict", counted, raising=False)
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m", "--values", "2.8e-7",
                   "3.2e-7", "401", "--report", "rates", "--band", *BAND])
        assert rc == EXIT_OK
        assert len(read_csv(capsys.readouterr().out)[1]) == 401
        assert len(calls) == 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "values, flag, quoted",
        [
            (["--values", "2.8e-7", "3.2e-7", "1e3"], "--values N", "'1e3'"),
            (["--values", "1", "2", "2.5"], "--values N", "'2.5'"),
            (["--values", "2.8e-7", "abc", "5"], "--values HI", "'abc'"),
            (["--list", "2.8e-7,x"], "--list", "'x'"),
            (["--values", "-1e308", "1e308", "3"], "--values", "'-1e308' '1e308'"),
        ],
        ids=["n-exponent", "n-fraction", "hi-text", "list-text", "span-overflow"],
    )
    def test_bad_sweep_values_name_the_flag(self, values, flag, quoted, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m", *values, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert os.listdir(tmp_path) == []
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert flag in err["message"] and quoted in err["message"]
        assert "device file" not in err["message"]

    def test_missing_device_file(self, capsys):
        rc = main(["spectrum", "--device", "/nonexistent/dev.json",
                   "--band", *BAND])
        assert rc == EXIT_VALIDATION
        err = load_json(capsys.readouterr().err)
        assert err["code"] == EXIT_VALIDATION

    def test_malformed_device_leaves_no_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--device", str(bad), "--band", *BAND,
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        capsys.readouterr()

    def test_malformed_device_file_in_sweep(self, tmp_path, capsys):
        # sweep reads the file through the same reader as every other command.
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--device", str(bad), "--param", "dc.gap_m", "--list", "3e-7",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert err["message"].startswith("device file: invalid JSON")

    def test_bad_band(self, capsys):
        rc = main(["spectrum", "--device", DEV, "--band", "192THz"])
        assert rc == EXIT_VALIDATION
        capsys.readouterr()

    def test_non_finite_band_edge(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--device", DEV, "--band", "190THz", "1e400THz",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["code"] == EXIT_VALIDATION
        assert err["context"]["error"] == "ValueError"
        assert "1e400THz" in err["message"]

    @pytest.mark.parametrize("edge", ["1.2.3THz", "."])
    def test_malformed_band_edge_is_named(self, edge, tmp_path, capsys):
        # Refused by the edge pattern itself, with the message every
        # malformed edge gets, which names the edge and its unit.
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--device", DEV, "--band", "190THz", edge, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert os.listdir(tmp_path) == []
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert err["message"] == f"cannot parse frequency {edge!r}"

    @pytest.mark.parametrize(
        "target, error",
        [(Path("missing", "rates.json"), "FileNotFoundError"), (Path(), "IsADirectoryError")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out_names_the_path(self, target, error, tmp_path, capsys):
        # The message names the requested path, never the random temp
        # file beside it, and no temp file is left behind.
        out = tmp_path / target
        rc = main([*README_COMMANDS["rates"], "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert os.listdir(tmp_path) == []
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == error
        assert err["message"].endswith(f": {str(out)!r}")
        assert ".tmp-" not in err["message"]

    def test_spectrum_points_above_ceiling(self, tmp_path, capsys):
        # A trillion samples used to fail in numpy's allocation with a
        # traceback; the count is refused before anything is allocated.
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--device", DEV, "--band", *BAND,
                   "--points", "1000000000000", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert "n_points" in err["message"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["suppression", "--device", DEV, "--band", *BAND, "--points", "100000000"],
             "--points"),
            (["sweep", "--device", DEV, "--param", "dc.gap_m", "--values", "2.8e-7", "3.2e-7",
              "100000000", "--report", "isolation"], "--values N"),
        ],
        ids=["suppression", "sweep"],
    )
    def test_row_count_above_ceiling(self, argv, flag, tmp_path, capsys):
        # 10^8 rows used to end in a MemoryError traceback under a memory
        # cap; the count is refused before anything is computed.
        out = tmp_path / "rows.csv"
        rc = main([*argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert err["message"] == f"{flag} must be between 2 and {MAX_ROWS}, got 100000000"

    @pytest.mark.parametrize(
        "argv",
        [
            ["kerr-check", "--device", DEV, "--power", "nan"],
            ["suppression", "--device", DEV, "--band", *BAND, "--max-detuning", "nan"],
            ["sweep", "--device", DEV, "--param", "dc.gap_m", "--list", "3e-7",
             "--report", "kerr", "--power", "nan"],
        ],
        ids=["kerr-power", "suppression-max-detuning", "sweep-kerr-power"],
    )
    def test_non_finite_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "artifact"
        rc = main([*argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert "nan" in err["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_max_detuning_names_the_flag(self, value, tmp_path, capsys):
        # "=" keeps argparse from reading -inf as an option.
        out = tmp_path / "rows.csv"
        rc = main(["suppression", "--device", DEV, "--band", *BAND,
                   f"--max-detuning={value}", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert err["message"] == f"--max-detuning must be finite, got {value}"

    @pytest.mark.parametrize(
        "key, scale, argv",
        [
            ("gap_ref_m", 1e9, ["overlap", "--band", "1567nm:1543nm"]),
            ("gap_ref_m", 1e9, ["kerr-check", "--power", "0.005"]),
            ("gap_ref_m", 1e9, ["optimize", "--signal", "1550nm", "--suppression", "1e-3"]),
            ("decay_len_m", 1e-9, ["optimize", "--signal", "1550nm", "--suppression", "1e-3"]),
        ],
        ids=["gap-ref-overlap", "gap-ref-kerr-check", "gap-ref-optimize",
             "decay-len-optimize"],
    )
    def test_coupling_overflow_is_non_physical(self, key, scale, argv, tmp_path, capsys):
        # exp(-(gap - gap_ref) / decay_len) overflows a double at these
        # scalings; it used to escape as an OverflowError traceback.
        data = load_json(DEVICE_JSON.read_text())
        data["coupling_model"][key] *= scale
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", str(path), *argv[1:], "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"
        assert "overflows" in err["message"]

    def test_numerical_failure_from_broad_lines(self, tmp_path, capsys):
        # Finesse below pi: the self-coupling estimate has no physical
        # solution, which is a numeric-domain failure, not bad input.
        path = tmp_path / "lossy.json"
        write_device(make_device(q_i=200.0, q_c=200.0), path)
        rc = main(["rates", "--device", str(path), "--band", *BAND])
        assert rc == EXIT_NUMERICAL
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"

    @pytest.mark.parametrize(
        "argv",
        [["optimize", "--signal", "1300nm", "--suppression", "1e-3"],
         ["rates", "--band", "230THz", "233THz"]],
        ids=["optimize", "rates"],
    )
    def test_non_positive_group_index_is_no_convergence(self, argv, tmp_path, capsys):
        # n_g = 0.5 turns the group index negative near 1300 nm. The FSR
        # that optimize takes there exited 2 with a ValueError, while the
        # comb solver that rates runs exited 4: one cause, one error class.
        data = load_json(DEVICE_JSON.read_text())
        data["waveguide"]["n_g"] = 0.5
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", str(path), *argv[1:], "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NoConvergence"
        assert "group index" in err["message"] and "not positive" in err["message"]

    def test_huge_but_finite_group_index_is_checked(self, tmp_path, capsys):
        # n_g x 1e300: the group index at the Kerr check's frequency is
        # finite, so the check reports. It used to exit 4 on an overflow
        # of an intermediate product, not of the group index.
        data = load_json(DEVICE_JSON.read_text())
        data["waveguide"]["n_g"] *= 1e300
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "artifact"
        rc = main(["kerr-check", "--device", str(path), "--power", "0.005", "--out", str(out)])
        assert rc == EXIT_OK
        payload = load_json(out.read_text())
        assert set(payload) == KERR_KEYS
        numbers = [payload[key] for key in ("kerr_metric", "delta_beta", "crosstalk_at_null",
                                            "isolation_db_cold", "metric_limit")]
        numbers += [*payload["induced_shift"], *payload["compensation"]]
        assert all(math.isfinite(x) for x in numbers)
        assert 0.0 < payload["delta_beta"] < 1e-290
        capsys.readouterr()

    @pytest.mark.parametrize("case", RANGE_CASES.values(), ids=RANGE_CASES.keys())
    def test_out_of_range_device_is_non_physical(self, case, tmp_path, capsys):
        # Each used to end in an OverflowError, ZeroDivisionError or
        # TypeError traceback, or in a spectrum holding nan and inf.
        section, key, scale, argv, phrase = case
        data = load_json(DEVICE_JSON.read_text())
        data[section][key] *= scale
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", str(path), *argv[1:], "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"
        assert phrase in err["message"]

    @pytest.mark.parametrize("case", COUPLER_CASES.values(), ids=COUPLER_CASES.keys())
    def test_coupler_cross_power_at_the_float_edges(self, case, tmp_path, capsys):
        kappa0, argv, code = case
        data = load_json(DEVICE_JSON.read_text())
        data["coupling_model"]["kappa0_per_m"] = kappa0
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", str(path), *argv[1:], "--out", str(out)])
        assert rc == code
        if code == EXIT_OK:
            payload = load_json(out.read_text())
            assert (payload["crosstalk_at_null"], payload["isolation_db_cold"]) == (0.0, 200.0)
        else:
            assert not out.exists()
            err = load_json(capsys.readouterr().err)
            assert err["context"]["error"] == "NonPhysical"
            assert "phase" in err["message"] and "2**53" in err["message"]

    @pytest.mark.parametrize("case", MULTI_RANGE_CASES.values(), ids=MULTI_RANGE_CASES.keys())
    def test_out_of_range_leaves_are_non_physical(self, case, tmp_path, capsys):
        edits, argv, phrase = case
        data = load_json(DEVICE_JSON.read_text())
        for section, key, scale in edits:
            data[section][key] *= scale
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", str(path), *argv[1:], "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"
        assert phrase in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--device", KERR_FREE, "--band", *BAND, "--photons", "1e150"],
            ["rates", "--device", KERR_FREE, "--band", *BAND, "--photons", "1e200"],
            ["suppression", "--device", KERR_FREE, "--band", *BAND, "--photons", "1e150"],
            ["suppression", "--device", KERR_FREE, "--band", *BAND, "--photons", "1e200"],
            ["suppression", "--device", DEV, "--band", *BAND, "--max-detuning", "1e200"],
            ["suppression", "--device", DEV, "--band", *BAND, "--max-detuning", "1e300"],
            ["suppression", "--device", DEV, "--band", *BAND, "--max-detuning", "-1e300"],
            ["rates", "--device", KERR_FREE, "--band", *BAND, "--pulse", "1e-160"],
            ["suppression", "--device", KERR_FREE, "--band", *BAND, "--pulse", "1e-160"],
            ["sweep", "--device", KERR_FREE, "--param", "dc.gap_m", "--values", "2.8e-7",
             "3.2e-7", "3", "--report", "rates", "--band", *BAND, "--pulse", "1e-160"],
        ],
        ids=["rates-inf", "rates-overflow", "suppression-inf", "suppression-overflow",
             "suppression-huge-detuning", "suppression-overflowing-detuning",
             "suppression-overflowing-negative-detuning",
             "rates-per-second", "suppression-per-second", "sweep-rates-per-second"],
    )
    def test_overflowing_pair_rate_is_non_physical(self, argv, tmp_path, capsys):
        # The rate used to be written as Infinity, or pn**2 or delta**2
        # overflowed into an OverflowError traceback. A detuning past the
        # signal line leaves no positive pump frequency. A detuning of
        # 1e300 linewidths overflows to inf, which exited 2 as bad input.
        # A rate per pulse divided by a 1e-160 s pulse overflows per
        # second, which rates, suppression and sweep wrote as inf.
        out = tmp_path / "artifact"
        assert main([*kerr_free(argv, tmp_path), "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        assert load_json(capsys.readouterr().err)["context"]["error"] == "NonPhysical"

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--device", DEV, "--band", *BAND, "--photons", "5e4"],
            ["suppression", "--device", DEV, "--band", *BAND],
            ["sweep", "--device", DEV, "--param", "dc.gap_m", "--values", "2.8e-7", "3.2e-7",
             "3", "--report", "rates", "--band", *BAND],
        ],
        ids=["rates", "suppression", "sweep-rates"],
    )
    def test_underflowing_rate_per_second_is_non_physical(self, argv, tmp_path, capsys):
        # A rate per pulse of about 2.5e-290 divided by a 1e300 s pulse
        # underflows to 0, which the three commands wrote as a 0.0 rate
        # per second beside the nonzero rate per pulse.
        out = tmp_path / "artifact"
        assert main([*argv, "--pulse", "1e300", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"
        assert "underflows to 0" in err["message"]

    @pytest.mark.parametrize("photons, code", [("1e9", EXIT_INFEASIBLE), ("8e8", EXIT_OK)])
    @pytest.mark.parametrize("argv", [
        ["rates", "--band", *BAND],
        ["suppression", "--band", *BAND],
        ["sweep", "--param", "dc.gap_m", "--values", "2.8e-7", "3.2e-7", "3", "--report", "rates",
         "--band", *BAND],
    ], ids=["rates", "suppression", "sweep-rates"])
    def test_drive_past_the_kerr_ceiling_is_refused(self, argv, photons, code, monkeypatch,
                                                      tmp_path, capsys):
        # 1e9 photons per 1 ns pulse drive pump 1 at 0.128 W, where kerr-check
        # exits 3; the rate commands wrote their rates with exit 0. They refuse
        # it before any rate is formed. The ceiling lies near 8.44e8 photons.
        if code != EXIT_OK:
            def refuse(*args, **kwargs):
                raise AssertionError("a rate was formed past the Kerr ceiling")

            for name in ("pair_rate_closed_form", "noise_budget"):
                monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", DEV, *argv[1:], "--photons", photons, "--pulse", "1e-9",
                   "--out", str(out)])
        assert rc == code
        if code == EXIT_OK:
            assert out.exists()
            return
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValidityExceeded"
        assert err["message"] == "Kerr validity metric 0.0593 exceeds the ceiling 0.05"


    @pytest.mark.parametrize("argv", [
        ["rates", "--band", *BAND],
        ["suppression", "--band", *BAND],
        ["sweep", "--param", "dc.gap_m", "--list", "3e-7", "--report", "rates", "--band", *BAND],
        ["optimize", *SIGNAL],
    ], ids=["rates", "suppression", "sweep-rates", "optimize"])
    def test_overflowing_pump_power_is_non_physical(self, argv, tmp_path, capsys):
        # 1e300 photons per 1e-300 s pulse: the mean power overflows. The Kerr
        # check would refuse the infinite power as bad input (exit 2, as
        # optimize --photons did), though both flags are valid numbers.
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", DEV, *argv[1:], "--photons", "1e300", "--pulse", "1e-300",
                   "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"
        assert "pump power" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--param", "dc.gap_m", "--list", "3e-7", "--report", "kerr"],
        ["kerr-check"],
    ], ids=["sweep-kerr", "kerr-check"])
    def test_overflowing_kerr_metric_is_non_physical(self, argv, tmp_path, capsys):
        # 1e308 W is a finite power whose metric overflows: the kerr sweep
        # wrote inf with exit 0, and kerr-check refused inf past the ceiling.
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", DEV, *argv[1:], "--power", "1e308", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"
        assert err["message"] == "Kerr validity metric must be finite, got inf"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--param", "dc.gap_m", "--list", "3e-7", "--report", "kerr"],
        ["kerr-check"],
    ], ids=["sweep-kerr", "kerr-check"])
    def test_negative_kerr_power_gives_one_message(self, argv, tmp_path, capsys):
        # The kerr sweep named p_in, the argument of kerr_validity_metric,
        # where kerr-check named pump_power.
        out = tmp_path / "artifact"
        rc = main([argv[0], "--device", DEV, *argv[1:], "--power=-1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = load_json(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert err["message"] == "pump_power must be finite and non-negative, got -1.0"

class TestExactPairRates:
    def test_rates_run_without_adaptive_quadrature(self, monkeypatch, tmp_path):
        # Every rate and overlap is a closed form: neither the adaptive
        # integrator nor the tests' reference integrands run in any README
        # command or any sweep report.
        def refuse(*args, **kwargs):
            raise AssertionError("a test oracle ran")

        monkeypatch.setattr("ringpair.quadrature.integrate_adaptive", refuse)
        monkeypatch.setattr("ringpair.kernels.pair_kernel", refuse)
        monkeypatch.setattr("ringpair.kernels.dc_overlap_integrand", refuse)
        sweeps = {
            f"sweep-{report}": ["sweep", "--device", DEV, "--param", "dc.gap_m", "--values",
                                "2.8e-7", "3.2e-7", "5", "--report", report,
                                *(["--band", *BAND] if "band" in flags else []),
                                *(["--power", "0.005"] if "power" in flags else [])]
            for report, (_, flags, _) in SWEEP_REPORTS.items()
        }
        for name, argv in {**README_COMMANDS, **sweeps}.items():
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == EXIT_OK, name
            assert out.exists(), name


class TestArtifactSchema:
    """Each JSON artifact holds exactly its record's fields plus the
    derived numbers, so a field added to a result type shows here."""

    def test_rates_keys(self, capsys):
        rc, payload = run_json(README_COMMANDS["rates"], capsys)
        assert rc == EXIT_OK
        assert set(payload) == RATES_KEYS

    def test_kerr_check_keys(self, capsys):
        rc, payload = run_json(README_COMMANDS["kerr-check"], capsys)
        assert rc == EXIT_OK
        assert set(payload) == KERR_KEYS
        # delta_beta is the mismatch behind the ring-1 pull.
        wg = load_json(DEVICE_JSON.read_text())["waveguide"]
        assert payload["induced_shift"][0] == pytest.approx(
            -c0 / wg["n_g"] * payload["delta_beta"], rel=1e-12
        )

    def test_kerr_check_ring2_compensation_is_positive_zero(self, capsys):
        # Ring 2 is not pulled; its compensation used to be written as -0.0.
        rc, payload = run_json(README_COMMANDS["kerr-check"], capsys)
        assert rc == EXIT_OK
        assert math.copysign(1.0, payload["compensation"][1]) == 1.0

    def test_report_keys(self, capsys):
        rc, payload = run_json(README_COMMANDS["optimize"], capsys)
        assert rc == EXIT_OK
        assert set(payload) == {"device", "report"}
        assert set(payload["report"]) == REPORT_KEYS
        assert [set(rule) for rule in payload["report"]["rules"]] == [RULE_KEYS] * 4


class TestSweepMatchesRates:
    """A sweep row and the single-point command agree on the same device."""

    @settings(max_examples=25, deadline=None)
    @given(shift_hz=st.floats(-3e11, 3e11))
    def test_suppression_row_matches_rates(self, shift_hz):
        with tempfile.TemporaryDirectory() as tmp:
            data = load_json(DEVICE_JSON.read_text())
            data["ring2"]["heater_shift_hz"] = shift_hz
            path = Path(tmp) / "device.json"
            path.write_text(json.dumps(data))
            rates_out, sweep_out = Path(tmp) / "rates.json", Path(tmp) / "sweep.csv"
            rc = main(["rates", "--device", str(path), "--band", *BAND,
                       "--out", str(rates_out)])
            assert rc == EXIT_OK
            rc = main(["sweep", "--device", DEV, "--param", "ring2.heater_shift_hz",
                       "--list", repr(shift_hz), "--report", "suppression", "--band", *BAND,
                       "--out", str(sweep_out)])
            assert rc == EXIT_OK
            rates = load_json(rates_out.read_text())
            _header, rows = read_csv(sweep_out.read_text())
        assert rows == [[shift_hz, max(rates["suppression"]), *rates["detuning_delta"]]]

    @pytest.mark.parametrize("drive", [[], ["--self-coupling", "0.99"], ["--kcal", "2.5"]],
                             ids=["derived-sigma", "pinned-sigma", "kcal"])
    def test_rates_row_matches_rates(self, drive, capsys):
        # The sweep used to drop --self-coupling and derive sigma anyway.
        rc, rates = run_json(["rates", "--device", DEV, "--band", *BAND, *drive], capsys)
        assert rc == EXIT_OK
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m", "--list", "3e-7",
                   "--report", "rates", "--band", *BAND, *drive])
        assert rc == EXIT_OK
        _header, rows = read_csv(capsys.readouterr().out)
        assert rows == [[3e-7, rates["rate_signal_per_s"], max(rates["rate_parasitic_per_s"])]]


# Every numeric leaf of the shipped device, as (section, file key).
SHIPPED = load_json(DEVICE_JSON.read_text())
LEAVES = [(section, key) for section, rows in FILE_FORMAT.items() for key, _, _, _ in rows]
# The six other README commands, made cheap, and sweep with each report.
# "{gap}" stands for the generated coupler gap and 1.01 times it.
FUZZ_COMMANDS = {
    "spectrum": ["spectrum", "--band", *BAND, "--points", "101"],
    "overlap": ["overlap", "--band", "1567nm:1543nm"],
    "rates": ["rates", "--band", *BAND, "--photons", "5e4"],
    "suppression": ["suppression", "--band", *BAND, "--points", "11"],
    "kerr-check": ["kerr-check", "--power", "0.005"],
    "optimize": ["optimize", *SIGNAL, "--photons", "1e5"],
    **{
        f"sweep-{report}": ["sweep", "--param", "dc.gap_m", "--list", "{gap}", "--report",
                            report,
                            *(["--band", *BAND] if report in ("suppression", "rates") else []),
                            *(["--power", "0.005"] if report == "kerr" else [])]
        for report in ("isolation", "kerr", "suppression", "rates")
    },
}


class TestGeneratedDevices:
    """No traceback and no non-finite artifact on generated devices."""

    @settings(max_examples=300, deadline=None)
    @given(
        scales=st.dictionaries(
            st.sampled_from(LEAVES),
            st.tuples(st.one_of(st.floats(-12.0, 12.0), st.floats(-300.0, 300.0)),
                      st.sampled_from((1.0, 1.0, 1.0, -1.0))),
            max_size=4,
        ),
        name=st.sampled_from(sorted(FUZZ_COMMANDS)),
    )
    def test_exit_code_and_artifacts(self, scales, name):
        data = load_json(json.dumps(SHIPPED))
        for (section, key), (exponent, sign) in scales.items():
            data[section][key] *= sign * 10.0**exponent
        with tempfile.TemporaryDirectory() as tmp:
            path, out, report = (Path(tmp) / n for n in ("device.json", "out", "report"))
            path.write_text(json.dumps(data))
            gaps = f"{data['dc']['gap_m']!r},{1.01 * data['dc']['gap_m']!r}"
            argv = [arg.replace("{gap}", gaps) for arg in FUZZ_COMMANDS[name]]
            extra = ["--report", str(report)] if name == "optimize" else []
            rc = main([argv[0], "--device", str(path), *argv[1:], "--out", str(out), *extra])
            assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE, EXIT_NUMERICAL)
            if rc != EXIT_OK:
                assert [p.name for p in Path(tmp).iterdir()] == ["device.json"]
                return
            text = out.read_text()
            if argv[0] in ("spectrum", "suppression", "sweep"):
                assert all(math.isfinite(v) for row in read_csv(text)[1] for v in row)
            else:
                load_json(text)
            if name == "optimize":
                load_json(report.read_text())


# Commands whose JSON artifacts hold a rate or J, with the flags each
# reads from the drawn drive.
STRICT_COMMANDS = {
    "rates": lambda photons, pulse: ["rates", "--band", *BAND, "--photons", photons,
                                     "--pulse", pulse],
    "overlap": lambda photons, pulse: ["overlap", "--band", *BAND, "--method", "quadrature"],
    "optimize": lambda photons, pulse: ["optimize", *SIGNAL, "--report", "report"],
}


class TestStrictArtifacts:
    """A drive or device scaled towards the float range's edges exits
    non-zero or writes an artifact of finite numbers only."""

    @pytest.mark.parametrize("name", STRICT_COMMANDS)
    @settings(max_examples=100, deadline=None)
    @given(photon_exp=st.integers(0, 200), pulse_exp=st.integers(-200, -9),
           q_exp=st.integers(0, 80), chi3_exp=st.integers(0, 300))
    def test_exit_or_finite_artifact(self, name, photon_exp, pulse_exp, q_exp, chi3_exp):
        data = load_json(DEVICE_JSON.read_text())
        for ring in ("ring1", "ring2"):
            for key in ("q_intrinsic", "q_coupling"):
                data[ring][key] *= 10.0**q_exp
        data["waveguide"]["chi3_m2_v2"] *= 10.0**chi3_exp
        # Without gamma_nl no drive passes the Kerr ceiling, so rates forms
        # its rates at every drawn drive; no other command here reads it.
        data["waveguide"]["gamma_nl_w_m"] = 0.0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "device.json"
            path.write_text(json.dumps(data))
            argv = [str(Path(tmp) / a) if a == "report" else a
                    for a in STRICT_COMMANDS[name](f"1e{photon_exp}", f"1e{pulse_exp}")]
            rc = main([argv[0], "--device", str(path), *argv[1:], "--out", f"{tmp}/out"])
            if rc == EXIT_OK:
                # The artifacts, their sidecars and the device file.
                for written in Path(tmp).iterdir():
                    load_json(written.read_text())
