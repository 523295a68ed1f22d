"""The benchmark's contract with ``ringpair``: names and command lines.

trace_boot patches functions by module and name and fails with a
``KeyError`` or ``AttributeError`` when one is dropped or renamed, and
every operation of ``clibench/workloads.py`` is a command line that the
CLI must accept. These tests catch a rename or a dropped flag in the
suite instead of in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import ringpair.cli  # imports every module trace_boot patches

from conftest import DEVICE_JSON, REPO

TRACE_BOOT = REPO / "clibench" / "trace_boot.py"
WORKLOADS = REPO / "clibench" / "workloads.py"
# The benchmark's run length (BENCHMARK.json) and the seeds checked.
RUN_SECONDS = 20
SEEDS = (0, 1, 2)


def _load(path):
    spec = importlib.util.spec_from_file_location(f"clibench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _targets() -> dict:
    return _load(TRACE_BOOT).TARGETS


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["oneshot", "sweep", "spectrum_wide"])
def test_every_benchmark_command_line_parses(workload, seed, tmp_path):
    # Parsing only: argparse exits 2 on a dropped flag or choice, such as
    # overlap --method, which would make the benchmark fail.
    workloads = _load(WORKLOADS)
    parser = ringpair.cli.build_parser()
    ops = [op for cycle in range(workloads.cycle_count(workload, RUN_SECONDS))
           for op in workloads.cycle_ops(workload, seed, cycle)]
    assert ops
    for op in ops:
        args = parser.parse_args(op.argv(tmp_path))
        assert args.op == op.args[0]
