"""Device file format: versioned JSON with SI units at the boundary.

Lengths are meters, frequencies are plain Hz in the file; internally
everything is angular (rad/s). The format is versioned through a
mandatory ``"schema": 1`` key so that future revisions can migrate old
files instead of misreading them. ``FILE_FORMAT`` is the one definition
of the keys, their units and their defaults: reading, writing and
:func:`swept_devices` all work from it.

Unknown keys are tolerated by default so that annotated device files
keep loading; strict mode rejects them, which is what the CLI
``--strict`` flag uses. :func:`read_device_json` is the one reader of
device files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import replace
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from .geometry import CouplingModel, DeviceSpec, RacetrackSpec, WaveguideParams

SCHEMA_VERSION = 1

# The file format, section by section, in file order. Each row is
# (file key, dataclass field, scale from the file unit to the field
# unit, default in the file unit or None when the key is required).
_REQUIRED = None
_RING = (
    ("straight_len_m", "straight_len", 1.0, _REQUIRED),
    ("bend_radius_m", "bend_radius", 1.0, _REQUIRED),
    ("q_intrinsic", "q_intrinsic", 1.0, _REQUIRED),
    ("q_coupling", "q_coupling", 1.0, _REQUIRED),
    ("heater_shift_hz", "heater_shift", 2.0 * math.pi, 0.0),
)
FILE_FORMAT: dict[str, tuple[tuple[str, str, float, float | None], ...]] = {
    "waveguide": (
        ("n_eff_ref", "n_eff_ref", 1.0, _REQUIRED),
        ("n_g", "n_g", 1.0, _REQUIRED),
        ("freq_ref_hz", "omega_ref", 2.0 * math.pi, _REQUIRED),
        ("gvd_s2_per_m", "gvd", 1.0, 0.0),
        ("gamma_nl_w_m", "gamma_nl", 1.0, 0.0),
        ("chi3_m2_v2", "chi3_bar", 1.0, 0.0),
        ("n_bar", "n_bar", 1.0, 1.0),
        ("area_eff_m2", "area_eff", 1.0, 1.0),
    ),
    "ring1": _RING,
    "ring2": _RING,
    "dc": (
        ("length_m", "dc_length", 1.0, _REQUIRED),
        ("gap_m", "dc_gap", 1.0, _REQUIRED),
    ),
    "coupling_model": (
        ("kappa0_per_m", "kappa0", 1.0, _REQUIRED),
        ("gap_ref_m", "gap_ref", 1.0, _REQUIRED),
        ("decay_len_m", "decay_len", 1.0, _REQUIRED),
        ("phase_rad", "phase", 1.0, 0.0),
    ),
}
# The DeviceSpec attribute holding each section's fields (None: the device's own).
_OWNERS = {"waveguide": "waveguide", "ring1": "ring1", "ring2": "ring2", "dc": None,
           "coupling_model": "coupling"}


def _require_number(section: str, data: dict, key: str) -> float:
    if key not in data:
        raise ValueError(f"device file: missing key '{section}.{key}'")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"device file: '{section}.{key}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"device file: '{section}.{key}' must be finite, got {value!r}")
    return value


def _read_section(data: dict, name: str, strict: bool) -> dict[str, float]:
    """Constructor keyword arguments of one section, in field units."""
    if name not in data:
        raise ValueError(f"device file: missing section '{name}'")
    section = data[name]
    if not isinstance(section, dict):
        raise ValueError(f"device file: section '{name}' must be an object")
    rows = FILE_FORMAT[name]
    out = {
        field: scale * (
            _require_number(name, section, key)
            if default is _REQUIRED or key in section
            else default
        )
        for key, field, scale, default in rows
    }
    extra = sorted(set(section) - {key for key, _, _, _ in rows})
    if strict and extra:
        raise ValueError(f"device file: unknown keys in '{name}': {', '.join(extra)}")
    return out


def device_from_dict(data: dict[str, Any], strict: bool = False) -> DeviceSpec:
    """Build a :class:`DeviceSpec` from parsed JSON.

    Raises ``ValueError`` on any structural problem: wrong schema
    version, missing or non-numeric fields, and (in strict mode)
    unknown keys. Physical validation is delegated to the value types;
    their errors carry the same ``device file:`` prefix.
    """
    if not isinstance(data, dict):
        raise ValueError("device file: top level must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"device file: expected \"schema\": {SCHEMA_VERSION}, got {data.get('schema')!r}"
        )
    unknown = sorted(set(data) - {"schema", *FILE_FORMAT})
    if strict and unknown:
        raise ValueError(f"device file: unknown top-level keys: {', '.join(unknown)}")
    kw = {name: _read_section(data, name, strict) for name in FILE_FORMAT}
    try:
        return DeviceSpec(
            waveguide=WaveguideParams(**kw["waveguide"]),
            ring1=RacetrackSpec(**kw["ring1"]),
            ring2=RacetrackSpec(**kw["ring2"]),
            coupling=CouplingModel(**kw["coupling_model"]),
            **kw["dc"],
        )
    except ValueError as exc:
        raise ValueError(f"device file: {exc}") from exc


def device_to_dict(device: DeviceSpec) -> dict[str, Any]:
    """Serialize a device back to the file representation (Hz, meters)."""
    out: dict[str, Any] = {"schema": SCHEMA_VERSION}
    for name, rows in FILE_FORMAT.items():
        owner = getattr(device, _OWNERS[name]) if _OWNERS[name] else device
        # Unit-scale fields are copied, so an integer stays an integer.
        out[name] = {
            key: getattr(owner, field) / scale if scale != 1.0 else getattr(owner, field)
            for key, field, scale, _ in rows
        }
    return out


def swept_devices(data: dict[str, Any], dotted: str, values: Iterable[float],
                  strict: bool = False) -> Iterator[DeviceSpec]:
    """Devices of a parsed device file with one entry set to each value in turn.

    The entry is ``section.leaf``, by file key (``dc.gap_m``) or field name
    (``dc.dc_gap``); values are in the file key's unit. The file is validated
    once, with the first value in place; each later device replaces only the
    swept field, with the checks and ``device file:`` messages of a full
    parse. An unknown path raises ``ValueError``.
    """
    name, _, leaf = dotted.partition(".")
    if name not in FILE_FORMAT:
        raise ValueError(
            f"parameter path {dotted!r} not found; sections: {', '.join(FILE_FORMAT)}"
        )
    rows = FILE_FORMAT[name]
    row = next((row for row in rows if leaf in row[:2]), None)
    if row is None:
        raise ValueError(
            f"parameter path {dotted!r} not found; keys of '{name}': "
            f"{', '.join(row[0] for row in rows)}"
        )
    if not isinstance(data, dict) or not isinstance(data.get(name), dict):
        raise ValueError(f"device file: section '{name}' must be an object")
    key, field, scale, _ = row
    attr = _OWNERS[name]
    device = None
    for value in values:
        if device is None:
            device = device_from_dict({**data, name: {**data[name], key: value}}, strict)
        else:
            value = scale * _require_number(name, {key: value}, key)
            try:
                owner = replace(getattr(device, attr) if attr else device, **{field: value})
                device = replace(device, **{attr: owner}) if attr else owner
            except ValueError as exc:
                raise ValueError(f"device file: {exc}") from exc
        yield device


def read_device_json(path: str | os.PathLike) -> Any:
    """Parse a device file's JSON, unvalidated; invalid JSON raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"device file: invalid JSON in {path}: {exc}") from exc


def load_device(path: str | os.PathLike, strict: bool = False) -> DeviceSpec:
    """Load a device JSON file."""
    return device_from_dict(read_device_json(path), strict=strict)


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write a file atomically: temp file in the target dir, then rename.

    A crashed or interrupted run can never leave a partially written
    output behind; readers see either the old file or the new one. An
    ``OSError`` names ``path``, not the temp file's random name.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def csv_text(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """CSV with 17 significant digits, so parsing reproduces the doubles exactly.

    Each row holds one value per header column. The values are flattened
    and formatted in one ``%`` operation over a template that repeats the
    row format once per row.
    """
    flat = tuple(chain.from_iterable(rows))
    row = ",".join(["%.17g"] * len(header)) + "\n"
    head = ",".join(header).replace("%", "%%") + "\n"
    return (head + row * (len(flat) // len(header))) % flat


def save_device(device: DeviceSpec, path: str | os.PathLike) -> None:
    """Serialize a device to JSON on disk (atomic, trailing newline)."""
    write_text_atomic(path, json.dumps(device_to_dict(device), indent=2) + "\n")
