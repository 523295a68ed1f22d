"""Command line behavior: artifacts, exit codes, and unit parsing."""

from __future__ import annotations

import json
import math

import pytest
from scipy.constants import c as c0

from ringpair import save_device
from ringpair.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_frequency,
)

from conftest import DEVICE_JSON, make_device

DEV = str(DEVICE_JSON)
BAND = ["192THz", "195THz"]


# The README's example command of each subcommand, without --out.
README_COMMANDS = {
    "spectrum": ["spectrum", "--device", DEV, "--band", *BAND, "--points", "4001"],
    "overlap": ["overlap", "--device", DEV, "--band", "1567nm:1543nm", "--method", "quadrature"],
    "rates": ["rates", "--device", DEV, "--band", *BAND, "--photons", "5e4", "--pulse", "1e-9"],
    "suppression": ["suppression", "--device", DEV, "--band", *BAND, "--points", "121",
                    "--max-detuning", "60"],
    "kerr-check": ["kerr-check", "--device", DEV, "--power", "0.005"],
    "optimize": ["optimize", "--device", DEV, "--signal", "1550nm", "--suppression", "1e-3"],
    "sweep": ["sweep", "--device", DEV, "--param", "dc.gap_m", "--values", "2.8e-7", "3.2e-7",
              "41", "--report", "isolation"],
}


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
        for bad in ("", "fast", "1.5parsec", "-3GHz", "0Hz", "1..2GHz",
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
        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
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


class TestOverlap:
    def test_json_shape(self, capsys):
        rc = main(["overlap", "--device", DEV, "--band", *BAND])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "j_abs", "j_phase", "z_factor_abs", "enh_abs", "method", "warnings",
        }
        assert payload["method"] == "quadrature"
        assert payload["j_abs"] > 0.0
        assert isinstance(payload["warnings"], list)

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("quadrature", "closed-form"):
            rc = main(["overlap", "--device", DEV, "--band", *BAND,
                       "--method", method])
            assert rc == EXIT_OK
            values[method] = json.loads(capsys.readouterr().out)
        q, c = values["quadrature"], values["closed-form"]
        assert q["j_abs"] == pytest.approx(c["j_abs"], rel=0.01)
        assert q["z_factor_abs"] == pytest.approx(c["z_factor_abs"], rel=0.01)

    def test_strict_mode_on_clean_device(self, tmp_path, capsys):
        # Identical rings: both combs align, nothing to warn about even
        # with warnings escalated.
        path = tmp_path / "aligned.json"
        save_device(make_device(l2_scale=1.0, n_eff=4.2), path)
        rc = main(["overlap", "--device", str(path), "--band", *BAND, "--strict"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"] == []


class TestRates:
    def test_rates_payload(self, capsys):
        rc = main(["rates", "--device", DEV, "--band", *BAND, "--photons", "5e4"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
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


class TestKerrCheck:
    @pytest.fixture()
    def si_device(self, tmp_path):
        path = tmp_path / "si.json"
        save_device(
            make_device(gamma=200.0, n_g=3.0, n_eff=2.4, lambda_ref=1.5e-6), path
        )
        return str(path)

    def test_metric_value(self, si_device, capsys):
        rc = main(["kerr-check", "--device", si_device, "--power", "0.005"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kerr_metric"] == pytest.approx(0.00625, rel=1e-9)
        assert payload["isolation_db_cold"] == 200.0
        assert 0.0 <= payload["crosstalk_at_null"] < 1e-4
        assert payload["induced_shift"][1] == 0.0

    def test_budget_overrun_is_infeasible(self, si_device, capsys):
        rc = main(["kerr-check", "--device", si_device, "--power", "0.005",
                   "--max-metric", "0.001"])
        assert rc == EXIT_INFEASIBLE
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == EXIT_INFEASIBLE
        assert err["context"]["error"] == "ValidityExceeded"


class TestOptimize:
    def test_stdout_payload_and_device_file(self, tmp_path, capsys):
        out = tmp_path / "tuned.json"
        rc = main(["optimize", "--device", DEV, "--signal", "1550nm",
                   "--suppression", "1e-3", "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"device", "report"}
        assert payload["report"]["passed"] is True
        assert payload["report"]["isolation_db"] == 200.0
        assert payload["report"]["uncoupling_order"] == 1
        assert (tmp_path / "tuned.json.meta.json").exists()
        # The emitted device is a plain device file, usable directly.
        rc = main(["overlap", "--device", str(out), "--band", *BAND])
        assert rc == EXIT_OK

    def test_infeasible_goal(self, capsys):
        rc = main(["optimize", "--device", DEV, "--signal", "1550nm",
                   "--suppression", "1e-6"])
        assert rc == EXIT_INFEASIBLE
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error"] == "Infeasible"


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

    def test_unknown_parameter(self, capsys):
        rc = main(["sweep", "--device", DEV, "--param", "dc.bogus",
                   "--list", "1e-7"])
        assert rc == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert "dc.bogus" in err["message"]

    def test_comb_report_needs_band(self, capsys):
        rc = main(["sweep", "--device", DEV, "--param", "dc.gap_m",
                   "--list", "3e-7", "--report", "rates"])
        assert rc == EXIT_VALIDATION
        capsys.readouterr()


class TestExitCodes:
    def test_missing_device_file(self, capsys):
        rc = main(["spectrum", "--device", "/nonexistent/dev.json",
                   "--band", *BAND])
        assert rc == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
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
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == EXIT_VALIDATION
        assert err["context"]["error"] == "ValueError"
        assert "1e400THz" in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["kerr-check", "--device", DEV, "--power", "nan"],
            ["kerr-check", "--device", DEV, "--power", "0.005", "--max-metric", "nan"],
            ["suppression", "--device", DEV, "--band", *BAND, "--max-detuning", "nan"],
            ["sweep", "--device", DEV, "--param", "dc.gap_m", "--list", "3e-7",
             "--report", "kerr", "--power", "nan"],
        ],
        ids=["kerr-power", "kerr-max-metric", "suppression-max-detuning", "sweep-kerr-power"],
    )
    def test_non_finite_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "artifact"
        rc = main([*argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error"] == "ValueError"
        assert "nan" in err["message"]

    def test_numerical_failure_from_broad_lines(self, tmp_path, capsys):
        # Finesse below pi: the self-coupling estimate has no physical
        # solution, which is a numeric-domain failure, not bad input.
        path = tmp_path / "lossy.json"
        save_device(make_device(q_i=200.0, q_c=200.0), path)
        rc = main(["rates", "--device", str(path), "--band", *BAND])
        assert rc == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error"] == "NonPhysical"
