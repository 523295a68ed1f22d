"""Command line front end.

Every operation reads a device description from JSON and writes either
CSV or JSON. Outputs are deterministic: identical inputs produce
byte-identical files, so artifacts can be diffed across runs. Anything
time-dependent (timestamps, the exact command line) goes into a
``<out>.meta.json`` sidecar, never into the artifact itself.

JSON artifacts are the library's result dataclasses written with
``dataclasses.asdict``: ``rates`` writes a ``PairRateReport``,
``kerr-check`` a ``CompensationResult`` and ``optimize --report`` a
``DesignReport`` under ``report``, with the tuned device in device-file
form under ``device``. The CLI adds only the numbers the dataclass does
not hold, such as per-second rates.

Two tables build the arguments. ``_FLAGS`` holds the one argparse
specification of each flag that more than one command or report reads.
``SWEEP_REPORTS`` gives each ``sweep --report`` its CSV columns, the
flags it reads and its row; from it come the ``--report`` choices and
the refusal of any flag the chosen report does not read.

Exit codes: 0 success, 2 input or validation trouble, 3 a stated goal
is unreachable, 4 a numeric procedure failed. On failure a single JSON
object describing the error is written to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict
from typing import Any, Callable, Sequence

from . import __version__
from .design import DesignGoal, null_kerr_metric, optimize_device, xpm_spm_compensation
from .deviceio import (
    csv_text,
    device_to_dict,
    load_device,
    read_device_json,
    swept_devices,
    write_text_atomic,
)
from .enhancement import intensity_spectrum, spectrum_to_csv
from .errors import (
    AssumptionViolated,
    EmptyBand,
    Infeasible,
    MissingResonance,
    NoConvergence,
    NonPhysical,
    OutOfRange,
    QuadratureFailure,
    ValidityExceeded,
)
from .geometry import C_VACUUM, TWO_PI, resonance_comb
from .linear_cmt import isolation_db, kerr_detuned_efficiency
from .nonlinear import j_closed_form, j_quadrature, resonant_config
from .sfwm import (
    PumpDrive,
    noise_budget,
    pair_rate_closed_form,
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
_NUMERICAL_ERRORS = (NoConvergence, QuadratureFailure, NonPhysical)
_VALIDATION_ERRORS = (ValueError, OSError, EmptyBand, MissingResonance, AssumptionViolated)

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
    m = re.fullmatch(r"\s*([+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)\s*([a-zA-Z]*)\s*", text)
    if m is None:
        raise ValueError(f"cannot parse frequency {text!r}")
    value = float(m.group(1))
    unit = m.group(2).lower()
    if unit in ("", "hz") or unit in _FREQUENCY_UNITS:
        scale = _FREQUENCY_UNITS.get(unit, 1.0)
        if value <= 0.0:
            raise ValueError(f"frequency must be positive, got {text!r}")
        omega = TWO_PI * value * scale
    elif unit in _WAVELENGTH_UNITS:
        wavelength = value * _WAVELENGTH_UNITS[unit]
        if wavelength <= 0.0:
            raise ValueError(f"wavelength must be positive, got {text!r}")
        omega = TWO_PI * C_VACUUM / wavelength
    else:
        raise ValueError(f"unknown unit {m.group(2)!r} in {text!r}")
    # Overflowing literals (1e400) and conversions (1e300THz) come out
    # infinite, an overflowing wavelength (1e400nm) comes out zero.
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


def _require_rows(flag: str, n: int) -> None:
    if not 2 <= n <= MAX_ROWS:
        raise ValueError(f"{flag} must be between 2 and {MAX_ROWS}, got {n}")


def _json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(out: str | None, text: str, argv: Sequence[str]) -> None:
    if out is None:
        sys.stdout.write(text)
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
# optimize leaves --photons unset unless its Kerr rules should run.
_FLAGS: dict[str, dict[str, Any]] = {
    "band": dict(nargs="+", required=True, metavar="EDGE", help="band edges 'LO HI' or "
                 "'LO:HI'; bare numbers are Hz, suffixes nm/um/GHz/THz supported"),
    "separation": dict(type=int, default=2, help="pump separation in ring-1 orders"),
    "photons": dict(type=float, default=1.0, help="pump photons per pulse"),
    "pulse": dict(type=float, default=1e-9, help="pulse duration [s]"),
    "kcal": dict(type=float, default=1.0, help="hardware calibration constant"),
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


def cmd_spectrum(args: argparse.Namespace, argv: Sequence[str]) -> None:
    # numpy is first imported below. The kernel makes no BLAS call, so
    # OpenBLAS's per-core worker threads would only add start-up time.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    device = load_device(args.device, strict=args.strict)
    band = _band_pair(args.band)
    result = intensity_spectrum(device, band, args.points)
    _emit(args.out, spectrum_to_csv(result), argv)


def cmd_overlap(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device = load_device(args.device, strict=args.strict)
    band = _band_pair(args.band)
    cfg = resonant_config(device, band, pump_separation=args.separation)
    solver = j_quadrature if args.method == "quadrature" else j_closed_form
    res = solver(device, cfg)
    if args.strict and res.warnings:
        raise AssumptionViolated(res.warnings[0])
    payload = {
        "j_abs": res.j_abs,
        "j_phase": cmath.phase(res.j_value),
        "z_factor_abs": abs(res.z_factor),
        "enh_abs": abs(res.enhancement_product),
        "method": res.method,
        "warnings": list(res.warnings),
    }
    _emit(args.out, _json_text(payload), argv)


def cmd_rates(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device = load_device(args.device, strict=args.strict)
    band = _band_pair(args.band)
    cfg = resonant_config(device, band, pump_separation=args.separation)
    report = noise_budget(device, _drive(args), cfg, kcal=args.kcal, band=band)
    payload = {
        **asdict(report),
        "rate_signal_per_s": report.per_second(report.beta_sq_signal),
        "rate_parasitic_per_s": [report.per_second(b) for b in report.beta_sq_parasitic],
    }
    _emit(args.out, _json_text(payload), argv)


def cmd_suppression(args: argparse.Namespace, argv: Sequence[str]) -> None:
    _require_rows("--points", args.points)
    if not math.isfinite(args.max_detuning):
        raise ValueError(f"--max-detuning must be finite, got '{args.max_detuning}'")
    device = load_device(args.device, strict=args.strict)
    band = _band_pair(args.band)
    cfg = resonant_config(device, band, pump_separation=args.separation)
    wg = device.waveguide
    lw = cfg.res_s.linewidth
    drive = resolve_drive(device, _drive(args), cfg)

    def rate(delta: float) -> float:
        beta_sq = pair_rate_closed_form(drive, cfg.res_s, delta, args.kcal, wg.v_g)
        return beta_sq / drive.pulse_duration

    signal_rate = rate(cfg.signal_mismatch)
    rows = []
    for i in range(args.points):
        x = args.max_detuning * i / (args.points - 1) + 0.0  # -0.0 + 0.0 is 0.0: no "-0" row
        delta = x * lw
        rows.append((x, suppression_factor(delta, lw), signal_rate, rate(delta)))
    _emit(
        args.out,
        csv_text(("delta_over_linewidth", "suppression", "signal_rate", "parasitic_rate"), rows),
        argv,
    )


def cmd_kerr_check(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device = load_device(args.device, strict=args.strict)
    comp = xpm_spm_compensation(device, args.power, args.max_metric)
    payload = {
        **asdict(comp),
        "metric_limit": args.max_metric,
        "crosstalk_at_null": kerr_detuned_efficiency(
            device.kappa, device.dc_length, comp.delta_beta
        ),
        "isolation_db_cold": isolation_db(device.kappa, device.dc_length),
    }
    _emit(args.out, _json_text(payload), argv)


def cmd_optimize(args: argparse.Namespace, argv: Sequence[str]) -> None:
    device = load_device(args.device, strict=args.strict)
    omega_signal = parse_frequency(args.signal)
    goal = DesignGoal(
        signal_wavelength=TWO_PI * C_VACUUM / omega_signal,
        pump_separation=args.separation,
        min_parasitic_suppression=args.suppression,
        max_kerr_metric=args.max_kerr,
        min_isolation_db=args.min_isolation,
        gap_budget=(args.gap_min, args.gap_max),
    )
    drive = _drive(args) if args.photons is not None else None
    final, report = optimize_device(device, goal, drive=drive, mode=args.mode)
    if args.out is not None:
        # A plain device file, loadable by every other operation.
        _emit(args.out, _json_text(device_to_dict(final)), argv)
    payload = {"device": device_to_dict(final), "report": asdict(report)}
    _emit(args.report, _json_text(payload), argv)


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
        n = _parse_flag("--values N", int, args.values[2])
        _require_rows("--values N", n)
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
    deltas, sups, _partners = sideband_pair(comb2, cfg)
    return (max(sups), *deltas)


def _rates_row(device, args: argparse.Namespace, band) -> tuple[float, ...]:
    cfg = resonant_config(device, band, pump_separation=args.separation)
    rep = noise_budget(device, _drive(args), cfg, kcal=args.kcal, band=band)
    per_s = [rep.per_second(b) for b in (rep.beta_sq_signal, *rep.beta_sq_parasitic)]
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
    p.add_argument("--strict", action="store_true",
                   help="reject unknown device-file keys; overlap also fails on a "
                        "model-assumption warning")
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
    p.add_argument(
        "--method",
        choices=("quadrature", "closed-form"),
        default="quadrature",
        help="overlap evaluation method",
    )

    p = sub.add_parser("rates", help="signal and parasitic pair rates (JSON)")
    _add_common(p, cmd_rates, "band", "separation", *_DRIVE)

    p = sub.add_parser("suppression", help="suppression versus detuning sweep (CSV)")
    _add_common(p, cmd_suppression, "band", "separation", *_DRIVE)
    p.add_argument("--max-detuning", type=float, default=60.0,
                   help="sweep end [linewidths]; a negative end sweeps the detuning below zero")
    p.add_argument("--points", type=int, default=121)

    p = sub.add_parser("kerr-check", help="Kerr budget and compensating shifts (JSON)")
    _add_common(p, cmd_kerr_check, "power", power={"required": True})
    p.add_argument("--max-metric", type=float, default=0.05, help="validity metric ceiling")

    p = sub.add_parser("optimize", help="tune a seed device against a design goal")
    _add_common(p, cmd_optimize, "separation", "photons", "pulse",
                photons={"default": None, "help": "enable Kerr rules at this drive"})
    p.add_argument("--signal", required=True, help="signal line position (e.g. 1550nm)")
    p.add_argument("--suppression", type=float, default=1e-4, help="suppression target")
    p.add_argument("--max-kerr", type=float, default=0.05)
    p.add_argument("--min-isolation", type=float, default=30.0, help="isolation floor [dB]")
    p.add_argument("--gap-min", type=float, default=5e-8, help="gap budget lower edge [m]")
    p.add_argument("--gap-max", type=float, default=1e-6, help="gap budget upper edge [m]")
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


if __name__ == "__main__":
    sys.exit(main())
