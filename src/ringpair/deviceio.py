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

import functools
import json
import math
import os
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from .geometry import CouplingModel, DeviceSpec, RacetrackSpec, WaveguideParams
from .record import replace

SCHEMA_VERSION = 1

# The file format, section by section, in file order. Each row is
# (file key, record field, scale from the file unit to the field
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
    output behind; readers see either the old file or the new one. The
    temp file has a random name and is created exclusively, with the
    mode ``open(path, "w")`` gives a new file (``0o666`` less the
    umask), which the rename keeps. An ``OSError`` names ``path``, not
    the temp file's name.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    created = False
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            created = True
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if created:
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


# Rows that csv_columns renders at once: its work arrays for three
# columns stay under 0.5 MB however long the columns are.
_BLOCK_ROWS = 1024
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant for doubles
# A '%.17g' text is at most 24 characters: -2.2250738585072014e-308.
_MAX_TEXT = 24


@functools.cache
def _slot_tables():
    """The tables of :func:`_cut_slots`, built at the first call.

    - 10**0 .. 10**20 as doubles, all exact;
    - the four ASCII digits of each of 0..9999, one uint32 per number;
    - for digit group i (0 to 3) and each of 0..9999 at i * 10**4 + g,
      the position (1 to 16) of g's last nonzero digit among the 16
      digits after the leading one, or 0 when g is 0;
    - the slot a fixed-notation value is cut from: sign, '0', 17
      integer-part digits, '.', "000", 17 fraction digits, separator;
    - the slot's keep mask for each decimal exponent k (-4 to 16) and
      last nonzero digit ``last`` (0 to 16), at row (k + 4) * 17 + last.
      It keeps the integer digits 0..k, or "0." and -k-1 zeros when
      k < 0, then the fraction digits k+1..last after a '.'. The sign is
      kept per value.
    """
    import numpy as np

    pow10 = np.array([float(10**i) for i in range(21)])
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    quads[..., 0] = ascii_digits[:, None, None, None]
    quads[..., 1] = ascii_digits[:, None, None]
    quads[..., 2] = ascii_digits[:, None]
    quads[..., 3] = ascii_digits
    group = np.arange(10**4)
    zeros = sum(group % 10**j == 0 for j in range(1, 5))  # trailing zeros, 4 for 0
    lasts = np.where(group > 0, np.arange(4, 17, 4)[:, None] - zeros, 0).astype(np.uint8)
    template = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b",", dtype=np.uint8)
    k = np.arange(-4, 17)[:, None, None]
    last = np.arange(17)[:, None]
    j = np.arange(17)
    keep = np.zeros((21, 17, len(template)), dtype=bool)
    keep[..., 1:2] = k < 0
    keep[..., 2:19] = j <= k
    keep[..., 19:20] = (k < 0) | (last > k)
    keep[..., 20:23] = np.arange(3) < -k - 1
    keep[..., 23:40] = (j > k) & (j <= last)
    keep[..., 40] = True
    tables = (pow10, quads.view(np.uint32).ravel(), lasts.ravel(), template,
              keep.reshape(21 * 17, -1))
    for table in tables:
        table.flags.writeable = False  # every later call shares them
    return tables


def _two_product(a, b):
    """h + e == a * b exactly, with h = fl(a * b) (Dekker, no FMA)."""
    h = a * b
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = b * _SPLIT
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return h, ((a_hi * b_hi - h) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _cut_slots(x):
    """Each value's fixed-notation slot and keep mask, and where they hold.

    The mask is right for a value only where ``fixed`` is true; see
    :func:`csv_columns` for why those digits are exact.
    """
    import numpy as np

    pow10, quads, lasts, template, masks = _slot_tables()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0  # keeps log10 and the int64 casts quiet
    k = np.log10(a)
    np.floor(k, out=k)
    k = np.clip(k, -4, 16).astype(np.intp)
    h, e = _two_product(a, pow10.take(16 - k))
    d = h.astype(np.int64) + np.rint(e).astype(np.int64)
    fixed &= ((h > 1e16) | ((h == 1e16) & (e >= 0))) & (d < 10**17)

    # The 17 digits: the leading one, then four groups of four.
    groups = np.empty((len(x), 4), dtype=np.intp)
    for i in (3, 2, 1, 0):
        rest = d // 10**4
        groups[:, i] = d - rest * 10**4
        d = rest
    digits = quads.take(groups).view(np.uint8)
    last = lasts.take(groups[:, 0])
    for i in (1, 2, 3):
        np.maximum(last, lasts.take(groups[:, i] + i * 10**4), out=last)

    chars = np.empty((len(x), len(template)), dtype=np.uint8)
    chars[:] = template
    chars[:, 2] = chars[:, 23] = d + ord("0")
    chars[:, 3:19] = chars[:, 24:40] = digits
    keep = masks.take((k + 4) * 17 + last, axis=0)
    keep[:, 0] = x < 0
    return chars, keep, fixed


def csv_columns(header: Sequence[str], columns: Sequence[Any]) -> str:
    """The text of :func:`csv_text` for 1-D float64 columns, rendered by numpy.

    ``csv_columns(header, columns) == csv_text(header, zip(*columns))``
    for any values, byte for byte. Rows are rendered in blocks of 1024,
    so the work arrays stay the same size however long the columns are;
    the text is the one large allocation. Raises ``ValueError`` unless
    there is one 1-D column of equal length per header name.

    A value x with 1e-4 <= |x| < 1e17 is one that ``'%.17g'`` prints in
    fixed notation, and its digits come out exactly, without a guess at
    rounding. With k = floor(log10|x|) and p = 16 - k, 10**p is an
    exact double (p <= 20 < 23), and Dekker's TwoProduct (Numer. Math.
    18, 1971; factors split by 2**27 + 1, so no FMA is needed) gives
    |x| * 10**p = h + e exactly. Then h >= 1e16 > 2**53 is an even
    integer, so D = h + rint(e), summed in int64, is the 17-digit
    rounding of |x| with ties to even, as ``'%.17g'`` rounds. When
    log10 misjudges k, or the rounding carries to a power of ten, the
    test 1e16 <= h + e and D < 1e17 fails. Those values, and all
    outside the range (zeros, subnormals, nan, infinities, scientific
    notation), are formatted by ``'%.17g'`` itself. The 16 digits after
    the leading one are cut as four groups of four, and where the last
    nonzero one sits comes from a 10**4-entry table per group.
    """
    import numpy as np

    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if not cols or len(cols) != len(header):
        raise ValueError(f"csv_columns: {len(header)} names for {len(cols)} columns")
    n = len(cols[0])
    if any(c.ndim != 1 or len(c) != n for c in cols):
        raise ValueError("csv_columns: columns must be 1-D and of one length")
    seps = np.tile(np.frombuffer(b"," * (len(cols) - 1) + b"\n", dtype=np.uint8), _BLOCK_ROWS)

    text = ",".join(header) + "\n"
    for start in range(0, n, _BLOCK_ROWS):
        x = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols]).ravel()
        chars, keep, fixed = _cut_slots(x)
        chars[:, -1] = seps[:len(x)]
        other = np.flatnonzero(~fixed)
        if len(other):
            texts = ["%.17g" % v for v in x[other].tolist()]
            padded = "".join(s.ljust(_MAX_TEXT) for s in texts).encode("ascii")
            chars[other, :_MAX_TEXT] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _MAX_TEXT)
            lengths = np.array([len(s) for s in texts])
            keep[other, :-1] = np.arange(chars.shape[1] - 1) < lengths[:, None]
        # CPython grows the only reference to a str in place, so the text
        # is not copied once per block.
        text += str(chars[keep], "ascii")
    return text
