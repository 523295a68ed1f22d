"""The names ``clibench/trace_boot.py`` wraps still exist in ``ringpair``.

trace_boot patches functions by module and name and fails with a
``KeyError`` or ``AttributeError`` when one is dropped or renamed. These
tests catch such a rename in the suite instead of in a traced benchmark
run.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import ringpair.cli  # noqa: F401  (imports every module trace_boot patches)

from conftest import DEVICE_JSON, REPO

TRACE_BOOT = REPO / "clibench" / "trace_boot.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("trace_boot", TRACE_BOOT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, names", _targets().items())
def test_every_target_exists(layer, names):
    module = sys.modules[f"ringpair.{layer}"]
    if names is None:
        names = [n for n, f in vars(module).items()
                 if inspect.isfunction(f) and not n.startswith("_")]
        assert names
    for name in names:
        assert inspect.isfunction(getattr(module, name))


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--band", "192THz", "195THz", "--points", "101"],
        ["rates", "--band", "192THz", "195THz", "--photons", "5e4"],
    ],
    ids=["spectrum", "rates"],
)
def test_trace_boot_runs(argv, tmp_path):
    trace = tmp_path / "trace.json"
    out = tmp_path / "artifact"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(TRACE_BOOT), str(trace), "op", "--",
         argv[0], "--device", str(DEVICE_JSON), *argv[1:], "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    spans = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert {"import", "cli.main", "deviceio.load_device", "geometry.resonance_comb"} <= spans
