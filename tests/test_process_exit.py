"""How a fresh ``ringpair`` process ends: exit codes, streams, artifacts.

``python -m ringpair.cli`` and the ``ringpair`` script end through
:func:`ringpair.cli.run`, which flushes stdout and stderr and skips
interpreter teardown. Where the outcome depends on how the interpreter
handles a broken or closed stream, the same arguments also run through
``sys.exit(main())``, the plain exit, and both must give the same exit
code and stderr bytes. Each case runs with stdout buffered (Python's
default for a pipe) and unbuffered (``PYTHONUNBUFFERED=1``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from ringpair.cli import EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION

from conftest import DEVICE_JSON, README_COMMANDS, REPO, make_device, write_device

MODULE = [sys.executable, "-m", "ringpair.cli"]
PLAIN_EXIT = [sys.executable, "-c", "import sys; from ringpair.cli import main; sys.exit(main())"]
# Closes the command's stdout before it starts, so sys.stdout is None.
CLOSED_STDOUT = ["/bin/sh", "-c", 'exec "$0" "$@" >&-']
BUFFERING = {"buffered": None, "unbuffered": "1"}
SPECTRUM = README_COMMANDS["spectrum"]
RATES = README_COMMANDS["rates"]


def _env(buffering=None):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
    )
    if buffering is not None:
        env["PYTHONUNBUFFERED"] = buffering
    return env


def _run(argv, buffering=None, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(argv, env=_env(buffering), stderr=subprocess.PIPE, timeout=120,
                          **kwargs)


def _run_to_gone_reader(prefix, argv, buffering):
    """Run with stdout on a pipe whose read end is closed before the start."""
    read, write = os.pipe()
    os.close(read)
    try:
        return _run([*prefix, *argv], buffering, stdout=write)
    finally:
        os.close(write)


def _error_object(stderr):
    """The one JSON error object a failed command writes to stderr."""
    text = stderr.decode()
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


def test_success_writes_artifact_and_sidecar(tmp_path):
    out = tmp_path / "rates.json"
    proc = _run([*MODULE, *RATES, "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, b"", b"")
    assert set(json.loads(out.read_text())) >= {"beta_sq_signal", "rate_signal_per_s"}
    meta = json.loads((tmp_path / "rates.json.meta.json").read_text())
    assert meta["argv"] == [*RATES, "--out", str(out)]


def _lossy_device(tmp_path):
    # Finesse below pi: no physical self-coupling, a numeric-domain failure.
    path = tmp_path / "lossy.json"
    write_device(make_device(q_i=200.0, q_c=200.0), path)
    return str(path)


FAILURES = {
    "validation": (EXIT_VALIDATION, "FileNotFoundError",
                   lambda tmp: ["rates", "--device", str(tmp / "missing.json"),
                                "--band", "192THz", "195THz"]),
    "infeasible": (EXIT_INFEASIBLE, "Infeasible",
                   lambda tmp: ["optimize", "--device", str(DEVICE_JSON), "--signal", "1550nm",
                                "--suppression", "1e-6", "--report", str(tmp / "out")]),
    "numerical": (EXIT_NUMERICAL, "NonPhysical",
                  lambda tmp: ["rates", "--device", _lossy_device(tmp),
                               "--band", "192THz", "195THz"]),
}


@pytest.mark.parametrize("code, error, argv", FAILURES.values(), ids=FAILURES.keys())
def test_failure_writes_one_error_object_and_no_artifact(code, error, argv, tmp_path):
    out = tmp_path / "out"
    proc = _run([*MODULE, *argv(tmp_path), "--out", str(out)])
    assert proc.returncode == code
    assert proc.stdout == b""
    payload = _error_object(proc.stderr)
    assert payload["code"] == code and payload["context"]["error"] == error
    assert not out.exists() and not (tmp_path / "out.meta.json").exists()


@pytest.mark.parametrize("argv, code", [
    pytest.param(["spectrum", "--device", str(DEVICE_JSON)], EXIT_VALIDATION, id="usage-error"),
    pytest.param(["--help"], EXIT_OK, id="help"),
    pytest.param(["spectrum", "--help"], EXIT_OK, id="subcommand-help"),
])
def test_argparse_exits_match_the_plain_exit(argv, code):
    proc = _run([*MODULE, *argv])
    plain = _run([*PLAIN_EXIT, *argv])
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (plain.stdout, plain.stderr)
    if code == EXIT_OK:
        assert proc.stdout.startswith(b"usage: ringpair") and proc.stderr == b""
    else:
        assert proc.stdout == b""
        assert b"error: the following arguments are required: --band" in proc.stderr


@pytest.mark.parametrize("buffering", BUFFERING.values(), ids=BUFFERING.keys())
def test_piped_spectrum_equals_the_out_file(buffering, tmp_path):
    out = tmp_path / "spectrum.csv"
    assert _run([*MODULE, *SPECTRUM, "--out", str(out)]).returncode == EXIT_OK
    proc = _run([*MODULE, *SPECTRUM], buffering)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert proc.stdout == out.read_bytes()


@pytest.mark.parametrize("buffering", BUFFERING.values(), ids=BUFFERING.keys())
@pytest.mark.parametrize("argv", [SPECTRUM, RATES], ids=["spectrum", "rates"])
def test_gone_reader_exits_as_the_plain_exit(argv, buffering):
    # The rates JSON fits Python's stdout buffer; it is written to the
    # descriptor inside main all the same, so its failure is exit 2 too.
    proc = _run_to_gone_reader(MODULE, argv, buffering)
    plain = _run_to_gone_reader(PLAIN_EXIT, argv, buffering)
    assert (proc.returncode, proc.stderr) == (plain.returncode, plain.stderr)
    assert proc.returncode == EXIT_VALIDATION
    assert _error_object(proc.stderr)["context"]["error"] == "BrokenPipeError"


@pytest.mark.parametrize("buffering", BUFFERING.values(), ids=BUFFERING.keys())
def test_reader_that_closes_early_gets_the_plain_exit(buffering):
    # The spectrum is larger than a pipe holds, so the reader closes
    # while the command is still writing.
    results = []
    for prefix in (MODULE, PLAIN_EXIT):
        proc = subprocess.Popen([*prefix, *SPECTRUM], env=_env(buffering),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"omega_rad_s,f1_sq,f2_sq\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        results.append((proc.wait(timeout=120), stderr))
    assert results[0] == results[1]
    # Unbuffered too: a short write(2) is written again from where it
    # stopped, and the next one fails.
    assert results[0][0] == EXIT_VALIDATION
    assert _error_object(results[0][1])["context"]["error"] == "BrokenPipeError"


# Byte offsets at which the reader of a 100001-point spectrum (about 7 MB)
# closes: before the first byte, inside the header, at a pipe's and
# Python's buffer sizes, and deep into the rows. Each leaves more unread
# than a pipe holds, so the command is still writing when the reader goes.
CLOSE_OFFSETS = [0, 10, 8192, 65536, 3_000_000]
WIDE_SPECTRUM = ["spectrum", "--device", str(DEVICE_JSON), "--band", "192THz", "195THz",
                 "--points", "100001"]


@pytest.fixture(scope="module")
def wide_spectrum(tmp_path_factory):
    out = tmp_path_factory.mktemp("wide") / "spectrum.csv"
    assert _run([*MODULE, *WIDE_SPECTRUM, "--out", str(out)]).returncode == EXIT_OK
    return out.read_bytes()


def _read_then_close(buffering, limit):
    """Run the wide spectrum to stdout, read up to ``limit`` bytes (all
    when None) and close the pipe: the bytes read, the exit and stderr."""
    proc = subprocess.Popen([*MODULE, *WIDE_SPECTRUM], env=_env(buffering), bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    got = bytearray()
    while limit is None or len(got) < limit:
        chunk = proc.stdout.read(65536 if limit is None else min(65536, limit - len(got)))
        if not chunk:
            break
        got += chunk
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return bytes(got), proc.wait(timeout=120), stderr


@pytest.mark.parametrize("buffering", BUFFERING.values(), ids=BUFFERING.keys())
def test_reader_gets_a_prefix_and_exit_0_only_with_every_byte(buffering, wide_spectrum):
    for offset in [*CLOSE_OFFSETS, None]:
        got, code, stderr = _read_then_close(buffering, offset)
        assert wide_spectrum.startswith(got), offset
        if got == wide_spectrum:
            assert (code, stderr) == (EXIT_OK, b""), offset
        else:
            assert code == EXIT_VALIDATION, offset
            assert _error_object(stderr)["context"]["error"] == "BrokenPipeError", offset
    assert got == wide_spectrum  # the reader that read to the end got every byte


@pytest.mark.parametrize("buffering", BUFFERING.values(), ids=BUFFERING.keys())
def test_closed_stdout(buffering, tmp_path):
    # With --out nothing goes to stdout, and the command succeeds.
    out = tmp_path / "rates.json"
    proc = _run([*CLOSED_STDOUT, *MODULE, *RATES, "--out", str(out)], buffering)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert out.is_file()
    # Without it, the missing sys.stdout is a failed write like any other:
    # exit 2 and one JSON object, as from the plain exit.
    proc = _run([*CLOSED_STDOUT, *MODULE, *RATES], buffering)
    plain = _run([*CLOSED_STDOUT, *PLAIN_EXIT, *RATES], buffering)
    assert (proc.returncode, proc.stderr) == (plain.returncode, plain.stderr)
    assert proc.returncode == EXIT_VALIDATION
    payload = _error_object(proc.stderr)
    assert payload["context"]["error"] == "OSError"
    assert payload["message"] == "[Errno 9] stdout is closed"
