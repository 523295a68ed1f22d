"""Command line front end.

Every operation reads a device description from JSON and writes either
CSV or JSON. Outputs are deterministic: identical inputs produce
byte-identical files, so artifacts can be diffed across runs. Anything
time-dependent (timestamps, the exact command line) goes into a
``<out>.meta.json`` sidecar, never into the artifact itself.

JSON artifacts are the library's result records written with
:func:`.record.asdict`: ``rates`` writes a ``PairRateReport``,
``kerr-check`` a ``CompensationResult`` and ``optimize --report`` a
``DesignReport`` under ``report``, with the tuned device in device-file
form under ``device``. The CLI adds only the numbers the record does
not hold, such as per-second rates.

Two tables build the arguments. ``_FLAGS`` holds the one argparse
specification of each flag that more than one command or report reads.
``SWEEP_REPORTS`` gives each ``sweep --report`` its CSV columns, the
flags it reads and its row; from it come the ``--report`` choices and
the refusal of any flag the chosen report does not read.

Exit codes: 0 success, 2 input or validation trouble, 3 a stated goal
is unreachable, 4 a numeric procedure failed. On failure a single JSON
object describing the error is written to stderr; an artifact that
cannot be written to stdout whole is such a failure, with exit 2.
:func:`main` returns the code; :func:`run`, the ``ringpair`` script and
``python -m ringpair.cli``, exits with it without tearing the
interpreter down.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import io
import json
import math
import os
import re
import sys
import time
from typing import Any, Callable, NoReturn, Sequence

from . import __version__
from .design import KERR_CEILING, DesignGoal, null_kerr_metric, optimize_device
from .design import require_kerr_validity, xpm_spm_compensation
from .deviceio import (
    csv_text,
    device_to_dict,
    load_device,
    read_device_json,
    swept_devices,
    write_text_atomic,
)
from .enhancement import spectrum_csv
from .errors import (
    EmptyBand,
    Infeasible,
    MissingResonance,
    NoConvergence,
    NonPhysical,
    OutOfRange,
    ValidityExceeded,
    require_count,
    require_finite,
)
from .geometry import C_VACUUM, TWO_PI, resonance_comb
from .linear_cmt import isolation_db, kerr_detuned_efficiency
from .nonlinear import PUMP_SEPARATION, j_quadrature, resonant_config
from .record import asdict
from .sfwm import (
    UNCALIBRATED_KCAL,
    PumpDrive,
    noise_budget,
    pair_rate_closed_form,
    per_second,
    resolve_drive,
    sideband_pair,
    suppression_factor,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# Most rows a suppression or sweep CSV may hold. A million suppression
# rows take seconds and hundreds of MB; a larger count is refused before
# anything is computed.
MAX_ROWS = 10**6

_INFEASIBLE_ERRORS = (Infeasible, OutOfRange, ValidityExceeded)
_NUMERICAL_ERRORS = (NoConvergence, NonPhysical)
_VALIDATION_ERRORS = (ValueError, OSError, EmptyBand, MissingResonance)

# argparse reads only -1 or -0.5 as negative values and takes -1e9 for an
# option; no option of this CLI starts with a digit or a dot.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

_WAVELENGTH_UNITS = {"m": 1.0, "um": 1e-6, "nm": 1e-9}
_FREQUENCY_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}


def parse_frequency(text: str) -> float:
    """One band edge to angular frequency [rad/s].

    Bare numbers are Hz; suffixes Hz/kHz/MHz/GHz/THz select frequency
    units and m/um/nm wavelength units (converted through c).
    """
    number = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    m = re.fullmatch(rf"\s*({number})\s*([a-zA-Z]*)\s*", text)
    if m is None:
        raise ValueError(f"cannot parse frequency {text!r}")
    value = float(m.group(1))
    unit = m.group(2).lower()
    if unit in ("", "hz") or unit in _FREQUENCY_UNITS:
        omega = TWO_PI * value * _FREQUENCY_UNITS.get(unit, 1.0)
    elif unit in _WAVELENGTH_UNITS:
        wavelength = value * _WAVELENGTH_UNITS[unit]
        if wavelength <= 0.0:
            raise ValueError(f"wavelength must be positive, got {text!r}")
        omega = TWO_PI * C_VACUUM / wavelength
    else:
        raise ValueError(f"unknown unit {m.group(2)!r} in {text!r}")
    # A frequency of at most 0 comes out at most 0, overflowing literals
    # (1e400) and conversions (1e300THz) infinite, and an overflowing
    # wavelength (1e400nm) zero.
    if not 0.0 < omega < math.inf:
        raise ValueError(f"frequency must be finite and positive, got {text!r}")
    return omega


def _band_pair(edges: Sequence[str]) -> tuple[float, float]:
    if len(edges) == 1 and ":" in edges[0]:
        edges = edges[0].split(":")
    if len(edges) != 2:
        raise ValueError("band needs two edges, either 'LO HI' or 'LO:HI'")
    lo, hi = (parse_frequency(edges[0]), parse_frequency(edges[1]))
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        raise ValueError("band edges must differ")
    return (lo, hi)


def _json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to stdout, or raise ``OSError``.

    The bytes go to stdout's file descriptor, written again from where a
    short write stopped, so a reader that closes early raises
    ``BrokenPipeError`` here instead of getting a cut artifact and exit 0,
    and nothing is left in Python's buffer for the exit to flush again. A
    stdout closed at start (``sys.stdout`` is None) raises too. A stdout
    without a descriptor, such as a test's capture, is written and flushed.
    """
    stream = sys.stdout
    if stream is None:
        raise OSError(errno.EBADF, "stdout is closed")
    stream.flush()
    try:
        fd = stream.fileno()
    except io.UnsupportedOperation:
        stream.write(text)
        stream.flush()
        return
    data = memoryview(text.encode(stream.encoding or "utf-8"))
    while data:
        data = data[os.write(fd, data):]


def _emit(out: str | None, text: str, argv: Sequence[str]) -> None:
    if out is None:
        _write_stdout(text)
        return
    write_text_atomic(out, text)
    meta = {
        "tool": f"ringpair {__version__}",
        "created_unix": time.time(),
        "argv": list(argv),
    }
    write_text_atomic(str(out) + ".meta.json", _json_text(meta))


# Every flag that more than one command or sweep report reads: its one
# argparse specification, keyed by dest. A command overrides a setting
# only where its value differs: kerr-check requires --power, and
# optimize leaves --photons and --pulse unset unless given, since only
# its Kerr rules read them.
_FLAGS: dict[str, dict[str, Any]] = {
    "band": dict(nargs="+", required=True, metavar="EDGE", help="band edges 'LO HI' or "
                 "'LO:HI'; bare numbers are Hz, suffixes nm/um/GHz/THz supported"),
    "separation": dict(type=int, default=PUMP_SEPARATION, help="pump separation in ring-1 orders"),
    "photons": dict(type=float, default=1.0, help="pump photons per pulse"),
    "pulse": dict(type=float, default=1e-9, help="pulse duration [s]"),
    "kcal": dict(type=float, default=UNCALIBRATED_KCAL, help="hardware calibration constant"),
    "self_coupling": dict(type=float, default=None,
                          help="bus self-coupling sigma (derived from finesse when omitted)"),
    "power": dict(type=float, default=0.0, help="per-pump input power [W]"),
}
_DRIVE = ("photons", "pulse", "kcal", "self_coupling")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _drive(args: argparse.Namespace) -> PumpDrive:
    sigma = getattr(args, "self_coupling", None)  # optimize takes no --self-coupling
    return PumpDrive(photon_number=args.photons, pulse_duration=args.pulse, self_coupling=sigma)


def _valid_drive(device, args: argparse.Namespace, cfg) -> PumpDrive:
    """The drive, refused past the Kerr ceiling at its per-pump power on ``cfg``."""
    drive = _drive(args)
    require_kerr_validity(device, drive.per_pump_power(cfg))
    return drive


def _process(args: argparse.Namespace) -> tuple:
    """Device, band and dual-pump process of a command that reads --band and --separation."""
    device = load_device(args.device, strict=args.strict)
    band = _band_pair(args.band)
    return device, band, resonant_config(device, band, pump_separation=args.separation)


def cmd_spectrum(args: argparse.Namespace, argv: Sequence[str]) -> None:
    # A large spectrum first imports numpy below. Its kernel makes no BLAS
    # call, so OpenBLAS's per-core worker threads would only add start-up time.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    device = load_device(args.device, strict=args.strict)
    band = _band_pair(args.band)
    _emit(args.out, spectrum_csv(device, band, args.points), argv)


def cmd_overlap(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device, _band, cfg = _process(args)
    res = j_quadrature(device, cfg)
    payload = {
        "j_abs": res.j_abs,
        "j_phase": cmath.phase(res.j_value),
        "z_factor_abs": abs(res.z_factor),
        "enh_abs": abs(res.enhancement_product),
        "method": args.method,
        "warnings": list(res.warnings),
    }
    _emit(args.out, _json_text(payload), argv)


def cmd_rates(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device, band, cfg = _process(args)
    report = noise_budget(device, _valid_drive(device, args, cfg), cfg, kcal=args.kcal, band=band)
    payload = {
        **asdict(report),
        "rate_signal_per_s": per_second(report.beta_sq_signal, report.pulse_duration),
        "rate_parasitic_per_s": [
            per_second(b, report.pulse_duration) for b in report.beta_sq_parasitic
        ],
    }
    _emit(args.out, _json_text(payload), argv)


def cmd_suppression(args: argparse.Namespace, argv: Sequence[str]) -> None:
    require_count("--points", args.points, 2, MAX_ROWS)
    require_finite("--max-detuning", args.max_detuning)
    device, _band, cfg = _process(args)
    wg = device.waveguide
    lw = cfg.res_s.linewidth
    drive = resolve_drive(device, _valid_drive(device, args, cfg), cfg)

    def rate(delta: float) -> float:
        beta_sq = pair_rate_closed_form(drive, cfg.res_s, delta, args.kcal, wg.v_g)
        return per_second(beta_sq, drive.pulse_duration)

    signal_rate = rate(cfg.signal_mismatch)
    rows = []
    for i in range(args.points):
        x = args.max_detuning * i / (args.points - 1) + 0.0  # -0.0 + 0.0 is 0.0: no "-0" row
        delta = x * lw
        require_finite("detuning delta_over_linewidth * linewidth", delta, NonPhysical)
        rows.append((x, suppression_factor(delta, lw), signal_rate, rate(delta)))
    _emit(
        args.out,
        csv_text(("delta_over_linewidth", "suppression", "signal_rate", "parasitic_rate"), rows),
        argv,
    )


def cmd_kerr_check(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device = load_device(args.device, strict=args.strict)
    comp = xpm_spm_compensation(device, args.power)
    payload = {
        **asdict(comp),
        "metric_limit": KERR_CEILING,
        "crosstalk_at_null": kerr_detuned_efficiency(
            device.kappa, device.dc_length, comp.delta_beta
        ),
        "isolation_db_cold": isolation_db(device.kappa, device.dc_length),
    }
    _emit(args.out, _json_text(payload), argv)


def cmd_optimize(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device = load_device(args.device, strict=args.strict)
    goal = DesignGoal(
        signal_wavelength=TWO_PI * C_VACUUM / parse_frequency(args.signal),
        pump_separation=args.separation,
        min_parasitic_suppression=args.suppression,
        min_isolation_db=args.min_isolation,
        gap_budget=(args.gap_min, args.gap_max),
    )
    if not hasattr(args, "pulse"):
        args.pulse = _FLAGS["pulse"]["default"]
    elif args.photons is None:
        raise ValueError("optimize reads --pulse only with --photons, which enables the "
                         "Kerr rules; give --photons too or drop --pulse")
    drive = _drive(args) if args.photons is not None else None
    final, report = optimize_device(device, goal, drive=drive, mode=args.mode)
    data = device_to_dict(final)
    if args.out is not None:
        # A plain device file, loadable by every other operation.
        _emit(args.out, _json_text(data), argv)
    _emit(args.report, _json_text({"device": data, "report": asdict(report)}), argv)


def _parse_flag(flag: str, kind: type, text: str) -> Any:
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{flag} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {text!r}") from None


def _sweep_values(args: argparse.Namespace) -> list[float]:
    if args.values is not None:
        lo = _parse_flag("--values LO", float, args.values[0])
        hi = _parse_flag("--values HI", float, args.values[1])
        n = require_count("--values N", _parse_flag("--values N", int, args.values[2]), 2, MAX_ROWS)
        points = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        # A finite LO and HI can still overflow HI - LO or a point.
        if not all(map(math.isfinite, points)):
            raise ValueError("--values LO HI N must give finite points, got "
                             + " ".join(map(repr, args.values)))
        return points
    return [_parse_flag("--list value", float, v) for v in args.list.split(",")]


def _suppression_row(device, args: argparse.Namespace, band) -> tuple[float, ...]:
    cfg = resonant_config(device, band, pump_separation=args.separation)
    comb2 = resonance_comb(device.ring2, device.waveguide, band, owner=2)
    deltas, sups, _partners = sideband_pair(comb2, cfg, band)
    return (max(sups), *deltas)


def _rates_row(device, args: argparse.Namespace, band) -> tuple[float, ...]:
    cfg = resonant_config(device, band, pump_separation=args.separation)
    rep = noise_budget(device, _valid_drive(device, args, cfg), cfg, kcal=args.kcal, band=band)
    per_s = [per_second(b, rep.pulse_duration)
             for b in (rep.beta_sq_signal, *rep.beta_sq_parasitic)]
    return (per_s[0], max(per_s[1:]))


# Each sweep report: its CSV columns after param_value, the _FLAGS it
# reads (any other exits 2), and its row for one device.
SWEEP_REPORTS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable[..., tuple]]] = {
    "isolation": (("isolation_db",), (),
                  lambda dev, args, band: (isolation_db(dev.kappa, dev.dc_length),)),
    "kerr": (("kerr_metric",), ("power",),
             lambda dev, args, band: (null_kerr_metric(dev, args.power),)),
    "suppression": (("suppression", "detuning_1", "detuning_2"), ("band", "separation"),
                    _suppression_row),
    "rates": (("signal_rate", "parasitic_rate"), ("band", "separation", *_DRIVE), _rates_row),
}


def _readers(dest: str) -> str:
    return " or ".join(name for name, (_, flags, _) in SWEEP_REPORTS.items() if dest in flags)


def cmd_sweep(args: argparse.Namespace, argv: Sequence[str]) -> None:
    columns, flags, row = SWEEP_REPORTS[args.report]
    unread = [f"{_flag(d)} (read by --report {_readers(d)})"
              for d in _FLAGS if d not in flags and hasattr(args, d)]
    if unread:
        raise ValueError(f"sweep --report {args.report} does not read {', '.join(unread)}")
    for dest in (d for d in flags if not hasattr(args, d)):
        if _FLAGS[dest].get("required"):
            raise ValueError(f"{_flag(dest)} is required for --report {args.report}")
        setattr(args, dest, _FLAGS[dest]["default"])
    raw = read_device_json(args.device)
    values = _sweep_values(args)
    band = _band_pair(args.band) if "band" in flags else None
    devices = swept_devices(raw, args.param, values, strict=args.strict)
    rows = [(value, *row(device, args, band)) for value, device in zip(values, devices)]
    _emit(args.out, csv_text(("param_value", *columns), rows), argv)


def _add_common(p: argparse.ArgumentParser, func: Callable, *flags: str, **overrides) -> None:
    """--device, --out, --strict and the named _FLAGS; overrides: dest -> changed settings."""
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("--device", required=True, help="device JSON path")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--strict", action="store_true", help="reject unknown device-file keys")
    for dest in flags:
        p.add_argument(_flag(dest), **{**_FLAGS[dest], **overrides.get(dest, {})})
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringpair",
        description="design and simulate a linearly uncoupled racetrack pair",
    )
    sub = parser.add_subparsers(dest="op", required=True)

    p = sub.add_parser("spectrum", help="per-ring intensity enhancement spectrum (CSV)")
    _add_common(p, cmd_spectrum, "band")
    p.add_argument("--points", type=int, default=2001, help="number of frequency samples")

    p = sub.add_parser("overlap", help="nonlinear overlap figure J (JSON)")
    _add_common(p, cmd_overlap, "band", "separation")
    p.add_argument("--method", choices=("quadrature",), default="quadrature",
                   help="overlap method; the one choice is the exact coupler integral")

    p = sub.add_parser("rates", help="signal and parasitic pair rates (JSON)")
    _add_common(p, cmd_rates, "band", "separation", *_DRIVE)

    p = sub.add_parser("suppression", help="suppression versus detuning sweep (CSV)")
    _add_common(p, cmd_suppression, "band", "separation", *_DRIVE)
    p.add_argument("--max-detuning", type=float, default=60.0,
                   help="sweep end [linewidths]; a negative end sweeps the detuning below zero")
    p.add_argument("--points", type=int, default=121)

    p = sub.add_parser("kerr-check", help="Kerr budget and compensating shifts (JSON)")
    _add_common(p, cmd_kerr_check, "power", power={"required": True})

    p = sub.add_parser("optimize", help="tune a seed device against a design goal")
    _add_common(p, cmd_optimize, "separation", "photons", "pulse",
                photons={"default": None, "help": "enable Kerr rules at this drive"},
                pulse={"default": argparse.SUPPRESS,
                       "help": "pulse duration [s]; read only with --photons"})
    p.add_argument("--signal", required=True, help="signal line position (e.g. 1550nm)")
    p.add_argument("--suppression", type=float, default=DesignGoal.min_parasitic_suppression,
                   help="suppression target")
    p.add_argument("--min-isolation", type=float, default=DesignGoal.min_isolation_db,
                   help="isolation floor [dB]")
    gap_min, gap_max = DesignGoal.gap_budget
    p.add_argument("--gap-min", type=float, default=gap_min, help="gap budget lower edge [m]")
    p.add_argument("--gap-max", type=float, default=gap_max, help="gap budget upper edge [m]")
    p.add_argument("--mode", choices=("trim", "fabrication"), default="fabrication")
    p.add_argument("--report", default=None, help="design report path (stdout when omitted)")

    # A report's flags stay unset unless given, so cmd_sweep sees which
    # were given, refuses those its report does not read and defaults the rest.
    p = sub.add_parser("sweep", help="one-parameter sweep of a summary figure (CSV)")
    read = [d for d in _FLAGS if _readers(d)]
    unset = {d: dict(default=argparse.SUPPRESS, required=False,
                     help=f"{_FLAGS[d]['help']}; read by --report {_readers(d)}") for d in read}
    _add_common(p, cmd_sweep, *read, **unset)
    p.add_argument(
        "--param",
        required=True,
        help="swept entry as section.key or section.field, e.g. dc.gap_m or dc.dc_gap; "
        "the value is in the file key's unit",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--values", nargs=3, metavar=("LO", "HI", "N"), help="linear range with N points"
    )
    group.add_argument("--list", help="comma-separated explicit values")
    p.add_argument("--report", choices=tuple(SWEEP_REPORTS), default="isolation")

    return parser


def _fail(code: int, exc: BaseException) -> int:
    payload = {
        "code": code,
        "message": str(exc),
        "context": {"error": type(exc).__name__},
    }
    if sys.stderr is not None:  # closed at start: the exit code is all that is left
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, argv)
    except _INFEASIBLE_ERRORS as exc:
        return _fail(EXIT_INFEASIBLE, exc)
    except _NUMERICAL_ERRORS as exc:
        return _fail(EXIT_NUMERICAL, exc)
    except _VALIDATION_ERRORS as exc:
        return _fail(EXIT_VALIDATION, exc)
    return EXIT_OK


def run() -> NoReturn:
    """Run :func:`main` and exit with its code, skipping interpreter teardown.

    Once ``main`` returns, the artifact and its sidecar are closed, so
    the process flushes whichever of stdout and stderr exists and ends
    with ``os._exit``. When ``main`` raises (argparse's usage errors and
    ``--help`` among them) or a flush fails, it exits the normal way
    instead, so the exit code and the output match ``sys.exit(main())``.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):  # a broken pipe, a full disk, a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
