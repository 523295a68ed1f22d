"""Output checks that decide whether an operation failed.

Every artifact must parse, have the expected fields and row count, and
hold only finite numbers. For the reference seed, the first cycle's
artifacts must also match the references committed in ``reference/``:

* a number matches when ``|a - b| <= RTOL * max(|a|, |b|) + atol``;
* ``atol`` is 0 except for frequencies, where it is 1e-6 of a ring
  linewidth (``FREQ_ATOL_RAD_S`` rad/s, or that over 2*pi for Hz);
* strings and booleans must be equal.

RTOL = 1e-6 is far above what the closed-form comb (about 1e-14
relative on line positions, so about 1e-9 on a spectrum sample next to a
line) and the closed-form coupler overlap (exact, against a quadrature
good to 1e-12 of the coupler length) change, and far below what a comb
line moved by 1e-4 of a linewidth changes near that line.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from workloads import Artifact, Operation

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
RTOL = 1e-6
# A ring linewidth is about 2.4e10 rad/s (Q_loaded 5e4 near 193 THz).
FREQ_ATOL_RAD_S = 2.4e4
_FREQ_PATH = re.compile(
    r"(detuning|induced_shift|compensation|omega|energy_conservation\.(value|limit))"
)
SAMPLE_ROWS = 100


class CheckFailed(Exception):
    pass


def _atol(path: str) -> float:
    if path.endswith("_hz"):
        return FREQ_ATOL_RAD_S / (2.0 * math.pi)
    return FREQ_ATOL_RAD_S if _FREQ_PATH.search(path) else 0.0


def _flatten(obj, path=""):
    """(path, leaf) pairs; list items that are named dicts use their name."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            tag = item["name"] if isinstance(item, dict) and "name" in item else i
            yield from _flatten(item, f"{path}.{tag}")
    else:
        yield path, obj


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def read_artifact(path: Path, art: Artifact):
    """Parse one artifact and check its shape and finiteness.

    Returns the header and the row-major values of a CSV, or the parsed
    JSON object."""
    text = path.read_text(encoding="utf-8")
    if art.kind == "csv":
        lines = text.split("\n")
        if lines[-1] != "":
            raise CheckFailed(f"{art.name}: no trailing newline")
        header = lines[0].split(",")
        if tuple(header) != art.fields:
            raise CheckFailed(f"{art.name}: header {header} != {list(art.fields)}")
        body = lines[1:-1]
        if len(body) != art.rows:
            raise CheckFailed(f"{art.name}: {len(body)} rows, expected {art.rows}")
        commas = len(header) - 1
        if not all(line.count(",") == commas for line in body):
            raise CheckFailed(f"{art.name}: a row does not have {len(header)} fields")
        values = list(map(float, ",".join(body).split(",")))
        if not all(map(math.isfinite, values)):
            raise CheckFailed(f"{art.name}: a value is not finite")
        return header, values
    data = json.loads(text)
    if not isinstance(data, dict) or tuple(sorted(data)) != tuple(sorted(art.fields)):
        raise CheckFailed(f"{art.name}: keys {sorted(data)} != {sorted(art.fields)}")
    for key, leaf in _flatten(data):
        if _is_number(leaf) and not math.isfinite(leaf):
            raise CheckFailed(f"{art.name}: {key} is not finite")
    return data


def _row(parsed, index: int) -> list[float]:
    header, values = parsed
    return values[index * len(header):(index + 1) * len(header)]


def digest(parsed, art: Artifact) -> dict:
    """The part of an artifact kept as a reference: all of a JSON object;
    for a CSV, about SAMPLE_ROWS evenly spaced rows plus each column's
    peak row."""
    if art.kind == "json":
        return {"json": parsed}
    header, values = parsed
    width, n = len(header), art.rows
    keep = set(range(0, n, max(1, n // SAMPLE_ROWS))) | {n - 1}
    for col in range(width):
        column = values[col::width]
        keep.add(column.index(max(column)))
    return {"rows": {str(i): _row(parsed, i) for i in sorted(keep)}}


def _match(path: str, a, b) -> bool:
    if _is_number(a) and _is_number(b):
        return abs(a - b) <= RTOL * max(abs(a), abs(b)) + _atol(path)
    return a == b


def compare(parsed, art: Artifact, ref: dict) -> None:
    if art.kind == "json":
        got, want = dict(_flatten(parsed)), dict(_flatten(ref["json"]))
        if got.keys() != want.keys():
            raise CheckFailed(f"{art.name}: fields differ from the reference")
        for path in want:
            if not _match(path, got[path], want[path]):
                raise CheckFailed(f"{art.name}: {path} = {got[path]!r}, reference {want[path]!r}")
        return
    for index, want in ref["rows"].items():
        for name, a, b in zip(parsed[0], _row(parsed, int(index)), want):
            if not _match(name, a, b):
                raise CheckFailed(f"{art.name}: row {index} {name} = {a!r}, reference {b!r}")


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["ops"]


def check_operation(op: Operation, out_dir: Path, reference: dict | None) -> None:
    """Check every artifact of one operation; raise CheckFailed on the first fault.

    ``reference`` maps op_id to artifact name to digest, or is None when
    this operation has no reference."""
    for art in op.artifacts:
        path = out_dir / art.name
        if not path.is_file():
            raise CheckFailed(f"{art.name}: missing")
        try:
            value = read_artifact(path, art)
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckFailed(f"{art.name}: unparsable: {exc}") from exc
        if reference is not None:
            compare(value, art, reference[op.op_id][art.name])
