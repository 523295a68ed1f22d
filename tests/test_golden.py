"""Artifacts stay byte-identical to the committed hashes.

Runs the seven README commands, 41-point suppression, rates and kerr
sweeps, and ``rates --self-coupling`` through ``cli.main``, and compares
the sha256 of every artifact they write with
``tests/golden/artifacts.json``. The README commands come from
``conftest.README_COMMANDS``, and README.md's example block must show
exactly those command lines. A refactor must not move any of these
bytes. The hashes were recorded on
x86-64 Linux with numpy 2.4; another libm may round a last digit
differently. A change that means to move a reported number records the
new hashes, and says why, by running

    PYTHONPATH=src python tests/test_golden.py

which prints ``key: old → new`` for each hash it rewrites, and
committing the rewritten file with the change.
"""

from __future__ import annotations

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from ringpair.cli import EXIT_OK, main

from conftest import DEVICE_JSON, README_COMMANDS, REPO

GOLDEN = Path(__file__).resolve().parent / "golden" / "artifacts.json"
DEV = str(DEVICE_JSON)
BAND = ["--band", "192THz", "195THz"]

# name -> (argv without output flags, output flags the command takes)
COMMANDS = {
    **{name: (argv, ("--out", "--report") if name == "optimize" else ("--out",))
       for name, argv in README_COMMANDS.items()},
    "sweep-suppression": (["sweep", "--device", DEV, "--param", "ring2.heater_shift_hz",
                           "--values", "0", "4e9", "41", "--report", "suppression", *BAND],
                          ("--out",)),
    "sweep-rates": (["sweep", "--device", DEV, "--param", "ring2.straight_len_m",
                     "--values", "5.8e-5", "5.9e-5", "41", "--report", "rates", *BAND],
                    ("--out",)),
    "sweep-kerr": (["sweep", "--device", DEV, "--param", "ring1.q_intrinsic",
                    "--values", "5e4", "2e5", "41", "--report", "kerr", "--power", "0.005"],
                   ("--out",)),
    "rates-self-coupling": (["rates", "--device", DEV, *BAND, "--photons", "5e4",
                             "--pulse", "1e-9", "--self-coupling", "0.97"], ("--out",)),
}


def artifact_hashes(name: str, tmp_path: Path) -> dict[str, str]:
    """Run one command; sha256 of each artifact, keyed ``name`` plus its flag."""
    argv, flags = COMMANDS[name]
    outs = {f"{name}{flag}": tmp_path / f"{name}{flag}" for flag in flags}
    rc = main([*argv, *(x for flag in flags for x in (flag, str(outs[f"{name}{flag}"])))])
    assert rc == EXIT_OK
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in outs.items()}


@pytest.mark.parametrize("name", COMMANDS)
def test_artifact_bytes_unchanged(name, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = artifact_hashes(name, tmp_path)
    assert got == {key: expected[key] for key in got}
    capsys.readouterr()


# The optimize report before its J became the exact coupler integral:
# sha256 of the artifact and the two numbers that moved. L/4 sits
# 2.45e-7 above the exact integral on the README's tuned device. The hash
# holds the rest of the report as the one polynomial k(w) gives it, whose
# rounding moved the detunings and suppressions by at most 5.3e-13.
L4_REPORT_SHA256 = "4447cddf25af88f91c13a796e1570897896644dcf441fca8fc3c9ded3258b4aa"
L4_REPORT_J = {"j_abs": 3.118149497298663e-11, "j_ratio": 0.05590161915513349}


def test_exact_j_moves_only_the_report_j_and_within_1e_6(tmp_path, capsys):
    argv, _ = COMMANDS["optimize"]
    path = tmp_path / "report.json"
    assert main([*argv, "--report", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text(encoding="utf-8"))
    report = payload["report"]
    for key, old in L4_REPORT_J.items():
        assert report[key] != old
        assert abs(report[key] - old) <= 1e-6 * old
    report.update(L4_REPORT_J)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == L4_REPORT_SHA256
    capsys.readouterr()


# The README goal's ``optimize --photons 1e5 --report``, recorded when the
# Kerr compensation solved the tuned device's process once more: its note
# holds the compensation at the drive's per-pump power on that process.
PHOTONS_REPORT_SHA256 = "e070639d966598ca78e9e66ab3ddc03cf24d621be9da9328d7ab4559be09fd7b"


def test_the_compensation_reads_the_tuned_process(tmp_path, capsys):
    argv, _ = COMMANDS["optimize"]
    path = tmp_path / "report.json"
    assert main([*argv, "--photons", "1e5", "--report", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert any(n.startswith("heater compensation") for n in payload["report"]["notes"])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PHOTONS_REPORT_SHA256
    capsys.readouterr()


def readme_command_lines() -> list[list[str]]:
    """The ``ringpair`` command lines of README.md's example block, without output flags."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```")[0] for b in text.split("```sh\n")[1:]]
    block = next(b for b in blocks if "\nringpair " in b).replace("\\\n", " ")
    lines = []
    for line in block.splitlines():
        if not line.startswith("ringpair "):
            continue
        words = shlex.split(line)[1:]
        for flag in COMMANDS[words[0]][1]:
            if flag in words:
                i = words.index(flag)
                del words[i:i + 2]
        lines.append(words)
    return lines


def test_readme_shows_exactly_the_pinned_commands():
    device = str(DEVICE_JSON.relative_to(REPO))
    pinned = [[device if word == DEV else word for word in argv]
              for argv in README_COMMANDS.values()]
    assert readme_command_lines() == pinned


def test_golden_file_covers_exactly_the_commands():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    keys = {f"{name}{flag}" for name, (_, flags) in COMMANDS.items() for flag in flags}
    assert set(expected) == keys


if __name__ == "__main__":
    import tempfile

    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        hashes: dict[str, str] = {}
        for command in COMMANDS:
            hashes.update(artifact_hashes(command, Path(tmp)))
    # Name every hash that moves, so a rewrite shows which artifacts changed.
    for key in sorted(recorded.keys() | hashes.keys()):
        if recorded.get(key) != hashes.get(key):
            print(f"{key}: {recorded.get(key)} → {hashes.get(key)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
