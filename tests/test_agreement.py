"""Every number that two artifacts share agrees.

Each row of ``ROWS`` names one quantity that two routes report: two
commands' artifacts, or an artifact and the library function that
computes it. It returns (left, right) pairs, and every pair holds at
``==``. A row that needs a looser tolerance states why beside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ringpair import DesignGoal, PumpDrive, j_single_ring_ratio, load_device, resonant_config
from ringpair.cli import EXIT_OK, main, parse_frequency
from ringpair.design import _tune_diagnostics
from ringpair.geometry import C_VACUUM, TWO_PI
from ringpair.linear_cmt import ISOLATION_FLOOR_DB
from ringpair.record import replace

from conftest import DEVICE_JSON, README_COMMANDS, write_device

DEV = str(DEVICE_JSON)
GAP = load_device(DEVICE_JSON).dc_gap
# 2.9e-7 m is off the shipped null, so the isolation is not capped at 200 dB.
OFF_NULL_GAP = 2.9e-7


def _run(argv, out):
    """Run one command with ``--out out``; the artifact's text."""
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return out.read_text()


def _outcome(argv, out):
    """Exit code and error message (None on success) of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", str(out)])
    return rc, json.loads(err.getvalue())["message"] if rc else None


def _csv_row(text):
    """The one data row of a sweep's CSV, as {column: value}."""
    header, row = text.strip().split("\n")
    return dict(zip(header.split(","), map(float, row.split(","))))


def _gap_sweep(device, gap, report, tmp_path, *extra):
    argv = ["sweep", "--device", device, "--param", "dc.gap_m", "--list", repr(gap),
            "--report", report, *extra]
    return _csv_row(_run(argv, tmp_path / "sweep.csv"))


def rates_suppression(tmp_path):
    # rates and sweep --report suppression at the file's own gap, over one band.
    argv = README_COMMANDS["rates"]
    rates = json.loads(_run(argv, tmp_path / "rates.json"))
    row = _gap_sweep(DEV, GAP, "suppression", tmp_path, *argv[argv.index("--band"):][:3])
    return [
        (max(rates["suppression"]), row["suppression"]),
        (rates["detuning_delta"], [row["detuning_1"], row["detuning_2"]]),
    ]


def kerr_check_isolation(tmp_path):
    # kerr-check's cold isolation and sweep --report isolation, on the shipped
    # device at its null and on a copy at an off-null gap.
    off_null = tmp_path / "off_null.json"
    write_device(replace(load_device(DEVICE_JSON), dc_gap=OFF_NULL_GAP), off_null)
    pairs = []
    for device, gap in ((DEV, GAP), (str(off_null), OFF_NULL_GAP)):
        kerr = json.loads(_run(["kerr-check", "--device", device, "--power", "0.005"],
                               tmp_path / "kerr.json"))
        row = _gap_sweep(device, gap, "isolation", tmp_path)
        pairs.append((kerr["isolation_db_cold"], row["isolation_db"]))
    return pairs


def kerr_check_cold_crosstalk(tmp_path):
    # kerr-check --power 0: the cold isolation is the capped -10 log10 of
    # the crosstalk at the null, on devices whose coupling constant has a
    # phase, at the file's null gap and at two gaps off it.
    shipped = load_device(DEVICE_JSON)
    path = tmp_path / "phased.json"
    pairs = []
    for phase, gap in ((1.1, GAP), (1.1, OFF_NULL_GAP), (3.0, 3.1e-7)):
        write_device(replace(shipped, dc_gap=gap, coupling=replace(shipped.coupling, phase=phase)),
                     path)
        kerr = json.loads(_run(["kerr-check", "--device", str(path), "--power", "0"],
                               tmp_path / "kerr.json"))
        cross = kerr["crosstalk_at_null"]
        capped = min(-10.0 * math.log10(cross), ISOLATION_FLOOR_DB) if cross else ISOLATION_FLOOR_DB
        pairs.append((kerr["isolation_db_cold"], capped))
    return pairs


def optimize_report(tmp_path):
    # optimize --report against its own --out device, and its j_ratio against
    # j_single_ring_ratio on that device and the report's configuration.
    argv = README_COMMANDS["optimize"]
    out, report_path = tmp_path / "tuned.json", tmp_path / "report.json"
    assert main([*argv, "--out", str(out), "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    device = load_device(out)
    goal = DesignGoal(
        signal_wavelength=TWO_PI * C_VACUUM / parse_frequency(argv[argv.index("--signal") + 1]),
        min_parasitic_suppression=float(argv[argv.index("--suppression") + 1]),
    )
    cfg = _tune_diagnostics(device, goal)[3]
    return [
        (report["device"], json.loads(out.read_text())),
        (report["report"]["j_ratio"], j_single_ring_ratio(device, cfg)),
    ]


def kerr_check_sweep(tmp_path):
    # kerr-check's Kerr metric and sweep --report kerr at the file's gap, at
    # one power.
    argv = README_COMMANDS["kerr-check"]
    kerr = json.loads(_run(argv, tmp_path / "kerr.json"))
    row = _gap_sweep(DEV, GAP, "kerr", tmp_path, *argv[argv.index("--power"):][:2])
    return [(kerr["kerr_metric"], row["kerr_metric"])]


def _upper_pump_power(drive, cfg):
    # The larger of the drive's powers at the two pump lines of a process.
    return max(drive.power(cfg.res_p1.omega0), drive.power(cfg.res_p2.omega0))


def optimize_kerr(tmp_path):
    # optimize --photons N --report's Kerr metric, and kerr-check on the written
    # device at the mean power of N photons per 1 ns pulse at the upper pump
    # line of the process the report measured on that device.
    pairs = []
    for photons, signal in (("1e6", "1550nm"), ("3e7", "1552nm")):
        out, report_path = tmp_path / "tuned.json", tmp_path / "report.json"
        argv = ["optimize", "--device", DEV, "--signal", signal, "--suppression", "1e-3",
                "--photons", photons, "--out", str(out), "--report", str(report_path)]
        assert main(argv) == EXIT_OK
        goal = DesignGoal(signal_wavelength=TWO_PI * C_VACUUM / parse_frequency(signal))
        cfg = _tune_diagnostics(load_device(out), goal)[3]
        power = _upper_pump_power(PumpDrive(float(photons), 1e-9), cfg)
        kerr = json.loads(_run(["kerr-check", "--device", str(out), "--power", repr(power)],
                               tmp_path / "kerr.json"))
        pairs.append((json.loads(report_path.read_text())["report"]["kerr_metric"],
                      kerr["kerr_metric"]))
    return pairs


def rates_kerr_refusal(tmp_path):
    # rates refuses a drive exactly when kerr-check refuses the larger of the
    # drive's powers at the two pump lines, with the same message. The
    # ceiling lies near 8.44e8 photons per 1 ns pulse.
    argv = README_COMMANDS["rates"][:6]  # rates --device DEV --band LO HI
    band = tuple(parse_frequency(edge) for edge in argv[4:6])
    cfg = resonant_config(load_device(DEVICE_JSON), band)
    pairs = []

    @settings(max_examples=40, deadline=None)
    @given(photons_exp=st.floats(8.0, math.log10(3e9)), pulse_exp=st.floats(-10.0, -8.0))
    @example(photons_exp=9.0, pulse_exp=-9.0)
    @example(photons_exp=math.log10(8e8), pulse_exp=-9.0)
    def draw(photons_exp, pulse_exp):
        photons, pulse = 10.0**photons_exp, 10.0**pulse_exp
        power = _upper_pump_power(PumpDrive(photons, pulse), cfg)
        rates = _outcome([*argv, "--photons", repr(photons), "--pulse", repr(pulse)],
                         tmp_path / "rates.json")
        kerr = _outcome(["kerr-check", "--device", DEV, "--power", repr(power)],
                        tmp_path / "kerr.json")
        pairs.append((rates, kerr))
        assert rates == kerr

    draw()
    return pairs


def optimize_rates_kerr_refusal(tmp_path):
    # optimize --photons N (the README goal) refuses a drive exactly when rates
    # --photons N over 1540nm:1560nm on the device it writes does, with the
    # same message: both read the drive's power at the upper pump line, and
    # the two processes share their pump lines. The drive does not move the
    # written device, so the drive-free run writes it once.
    optimize = README_COMMANDS["optimize"]
    tuned = tmp_path / "tuned.json"
    _run(optimize, tuned)
    rates = ["rates", "--device", str(tuned), "--band", "1540nm:1560nm"]
    device = load_device(tuned)
    goal = DesignGoal(signal_wavelength=TWO_PI * C_VACUUM / parse_frequency("1550nm"))
    pumps = [(c.res_p1.omega0, c.res_p2.omega0) for c in (
        _tune_diagnostics(device, goal)[3],
        resonant_config(device, (parse_frequency("1560nm"), parse_frequency("1540nm"))))]
    assert pumps[0] == pumps[1]
    pairs = []

    @settings(max_examples=30, deadline=None)
    @given(photons=st.floats(8e8, 9e8))
    @example(photons=8.44793e8)
    @example(photons=8.4e8)
    def draw(photons):
        flags = ["--photons", repr(photons)]
        out = tmp_path / "opt.json"
        opt = _outcome([*optimize, *flags, "--report", str(tmp_path / "report.json")], out)
        if opt[0] == EXIT_OK:
            assert out.read_text() == tuned.read_text()
        pairs.append((opt, _outcome([*rates, *flags], tmp_path / "rates.json")))
        assert pairs[-1][0] == pairs[-1][1]

    draw()
    return pairs


ROWS = {f.__name__: f for f in (rates_suppression, kerr_check_isolation, optimize_report,
                                kerr_check_sweep, optimize_kerr, kerr_check_cold_crosstalk,
                                rates_kerr_refusal, optimize_rates_kerr_refusal)}


@pytest.mark.parametrize("name", ROWS)
def test_shared_numbers_agree(name, tmp_path):
    pairs = ROWS[name](tmp_path)
    assert pairs
    for left, right in pairs:
        assert left == right
